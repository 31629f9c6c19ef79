"""Test seam: run the profile hook's compiled or Python hit path.

``PythonDacceTracer`` reads ``repro.pytrace.tracer._chook`` when it
builds its hook: the compiled ``_chook`` module, or ``None`` for the
Python reference hook.  :func:`forced` sets it for the tracers built
inside a ``with`` block; :func:`each` runs a whole test once per
available hit path.  The compiled path is available when
``repro.pytrace._native`` could build and load it; the Python path
always is.  :func:`collector_off` keeps the garbage collector out of a
block whose traced calls a test counts exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gc
from typing import Any, Callable, Iterator, Tuple

from repro.pytrace import _native
from repro.pytrace import tracer as tracer_module


def available() -> Tuple[str, ...]:
    """The hit paths this interpreter can run."""
    return ("c", "python") if _native.HOOK is not None else ("python",)


@contextlib.contextmanager
def forced(path: str) -> Iterator[None]:
    """Tracers built in this block run on ``path`` (``"c"``/``"python"``)."""
    assert path in available(), path
    saved = tracer_module._chook
    tracer_module._chook = _native.HOOK if path == "c" else None
    try:
        yield
    finally:
        tracer_module._chook = saved


def each(test: Callable[..., Any]) -> Callable[..., Any]:
    """Run ``test`` once on every available hit path, same fixtures."""

    @functools.wraps(test)
    def run(*args: Any, **kwargs: Any) -> None:
        for path in available():
            with forced(path):
                test(*args, **kwargs)

    return run


@contextlib.contextmanager
def collector_off() -> Iterator[None]:
    """No collection inside the block: a ``gc.callbacks`` entry (pytest
    plugins install some) or a finalizer would be traced as one more
    call from C, in whichever run the collector happens to land."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
