"""Calling-context value objects.

A *calling context* is the chain of call sites from ``main`` (or from a
thread entry function) to the current execution point.  The engine never
stores whole contexts at runtime — that is the point of the paper — it
stores a compact :class:`CollectedSample` (context id + ccStack snapshot +
timestamp) which the decoder later expands into a :class:`CallingContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from .events import CallSiteId, FunctionId, ThreadId


@dataclass(frozen=True)
class ContextStep:
    """One frame transition in a decoded context.

    ``callsite`` is ``None`` for the root frame.  ``count`` is the number
    of *extra* compressed recursive repetitions of this step (Figure 5(e)
    of the paper): a step with ``count == 2`` occurred three times in a
    row in the original execution.
    """

    function: FunctionId
    callsite: Optional[CallSiteId] = None
    count: int = 0


@dataclass(frozen=True)
class CallingContext:
    """A fully decoded calling context — a path through the call graph.

    ``steps[0]`` is the outermost frame (``main`` or a thread entry),
    ``steps[-1]`` the function at which the sample was taken.
    """

    steps: Tuple[ContextStep, ...]

    def functions(self) -> Tuple[FunctionId, ...]:
        """The context as a plain function-id path, recursion expanded."""
        out = []
        for step in self.steps:
            out.extend([step.function] * (1 + step.count))
        return tuple(out)

    def depth(self) -> int:
        """Number of frames including compressed recursive repetitions."""
        return sum(1 + step.count for step in self.steps)

    def __iter__(self) -> Iterator[ContextStep]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    @staticmethod
    def from_functions(path: Sequence[FunctionId]) -> "CallingContext":
        """Build an uncompressed context from a plain function path."""
        return CallingContext(tuple(ContextStep(f) for f in path))


class CcStackEntry(NamedTuple):
    """One saved sub-path on the ccStack: ``<id, callsite, target, count>``.

    ``count`` is only meaningful for recursion-compressed entries; it is
    zero for plain unencoded-edge saves (Figure 2(b) vs Figure 5(e)).

    A ``NamedTuple`` (not a frozen dataclass): entries are created on
    the runtime hot path (every unencoded-edge save), and tuple
    construction is a single C call where the frozen-dataclass
    ``__init__`` pays one ``object.__setattr__`` per field.
    """

    id: int
    callsite: CallSiteId
    target: FunctionId
    count: int = 0


class CollectedSample(NamedTuple):
    """What the sampler records at a sample point (Figure 6).

    This is the *compact* runtime representation of a context:

    * ``timestamp`` — the value of ``gTimeStamp`` when the sample was
      taken; selects the decoding dictionary.
    * ``context_id`` — the current per-thread id.
    * ``function`` — the function executing at the sample point
      (``ifun`` in Algorithm 1).
    * ``ccstack`` — snapshot of the per-thread ccStack, bottom first.
    * ``thread`` — the sampled thread, used to stitch thread-creation
      contexts back on during decoding.

    A ``NamedTuple`` for the same hot-path reason as
    :class:`CcStackEntry`: one is materialised per profile-hook fire,
    and the constructor cost is the bulk of the hook's marginal
    overhead.
    """

    timestamp: int
    context_id: int
    function: FunctionId
    ccstack: Tuple[CcStackEntry, ...] = ()
    thread: ThreadId = 0

    def ccstack_depth(self) -> int:
        """Depth of the saved ccStack including compressed repetitions."""
        return sum(1 + entry.count for entry in self.ccstack)
