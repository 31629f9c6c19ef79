"""Context-sensitive coverage — the testing application (Section 1).

Statement/function coverage treats every call to ``f`` the same; tools
like DART [11] care about the *situations* code runs in, and the calling
context is the natural situation key.  :class:`ContextCoverage` tracks,
per function, how many distinct calling contexts have reached it, and
can diff two runs ("which contexts did the new test exercise that the
old suite never did?").

Recording cost is the compact context signature — decoding only happens
when a report is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.engine import DacceEngine
from ..core.events import FunctionId, SampleEvent, ThreadId


Signature = Tuple  # (gTS, id, function, ccstack)


@dataclass
class CoverageReport:
    """Summary of one coverage collection."""

    functions: int
    contexts: int
    per_function: Dict[FunctionId, int]

    def contexts_of(self, function: FunctionId) -> int:
        return self.per_function.get(function, 0)

    def hotspots(self, limit: int = 10) -> List[Tuple[FunctionId, int]]:
        """Functions reachable through the most distinct contexts."""
        ranked = sorted(
            self.per_function.items(), key=lambda item: -item[1]
        )
        return ranked[:limit]


class ContextCoverage:
    """Distinct-calling-context tracking over a live engine."""

    def __init__(self, engine: DacceEngine):
        self.engine = engine
        self._signatures: Set[Signature] = set()
        self._per_function: Dict[FunctionId, Set[Signature]] = {}

    # ------------------------------------------------------------------
    def touch(self, thread: ThreadId = 0) -> bool:
        """Record the current context; True if it was new coverage.

        A sample the engine quarantines (``FaultPolicy.RECOVER``, unknown
        thread) covers nothing: False.
        """
        sample = self.engine.on_sample(SampleEvent(thread=thread))
        if sample is None:
            return False
        signature = (
            sample.timestamp,
            sample.context_id,
            sample.function,
            sample.ccstack,
        )
        fresh = signature not in self._signatures
        if fresh:
            self._signatures.add(signature)
            self._per_function.setdefault(sample.function, set()).add(
                signature
            )
        return fresh

    # ------------------------------------------------------------------
    @property
    def distinct_contexts(self) -> int:
        return len(self._signatures)

    def report(self) -> CoverageReport:
        return CoverageReport(
            functions=len(self._per_function),
            contexts=len(self._signatures),
            per_function={
                fn: len(signatures)
                for fn, signatures in self._per_function.items()
            },
        )

    def new_versus(self, baseline: "ContextCoverage") -> int:
        """Contexts this run covered that the baseline never did.

        Note: signatures are only comparable between runs that share the
        engine's encoding history (same program, same discovery order) —
        the regression-suite use case.
        """
        return len(self._signatures - baseline._signatures)
