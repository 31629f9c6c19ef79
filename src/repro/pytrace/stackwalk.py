"""Interpreter stack walking — the validation oracle for pytrace.

The paper cross-validates decoded contexts against stack walks captured
at the same sample points (Section 6.1).  For the Python frontend the
walk is a traversal of ``frame.f_back``, producing the same
``CallingContext`` shape the decoder emits so the two can be compared
step by step.
"""

from __future__ import annotations

import sys
from types import FrameType
from typing import List, Optional

from ..core.ccstack import UNTRACKED_FUNCTION
from ..core.context import CallingContext, ContextStep
from .tracer import ROOT_FUNCTION, PythonDacceTracer


def walk_stack(
    tracer: PythonDacceTracer,
    frame: Optional[FrameType] = None,
    skip: int = 1,
) -> CallingContext:
    """Capture the current Python call path as the tracer would name it.

    ``skip`` drops that many innermost frames (this helper itself).
    Each live traced frame is named by the function id the tracer
    entered it under (``tracer.live_frames()``).
    Frames above the tracer's base (the harness) collapse into the
    root node, matching the engine's view.
    """
    if frame is None:
        frame = sys._getframe(skip)
    functions: List[int] = []
    live = {id(f): function for f, function in tracer.live_frames()}
    current: Optional[FrameType] = frame
    while current is not None:
        function = live.get(id(current))
        if function is not None:
            if function == UNTRACKED_FUNCTION:
                # Out of the targeted plan: name the code itself, so a
                # projection onto the plan checks the hook's verdict.
                function = tracer._function_id(current.f_code)
            functions.append(function)
        current = current.f_back
    functions.append(ROOT_FUNCTION)
    functions.reverse()
    return CallingContext(tuple(ContextStep(fn) for fn in functions))


def contexts_agree(decoded: CallingContext, walked: CallingContext) -> bool:
    """Function-path equality (stack walks carry no call-site info)."""
    return decoded.functions() == walked.functions()
