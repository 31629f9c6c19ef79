"""The ccStack — per-thread storage for sub-path encoding contexts.

Whenever a thread is about to traverse an edge that carries no static
encoding (a newly discovered edge, a recursive back edge, an indirect call
with an unknown target, a PLT call before binding), the current encoding
context ``<id, callsite, target>`` is pushed here and the id is set to
``maxID + 1`` (Section 3, Figure 2(b)).

Highly repetitive recursion is compressed: when the entry being pushed is
identical to the top entry, a repetition counter is bumped instead
(Section 3.3, Figure 5(e)).  The stack records operation statistics used
both by the cost model (Figure 8) and by the adaptive policy's
"ccStack is frequently accessed" trigger (Section 4).

Storage is one plain list per entry, ``[id, callsite, target, count,
discovery]`` (:data:`CcEntry`), bottom to top.  The list is unbounded:
it never holds more entries than its thread has live frames, plus a
spawned thread's clone entry, so whatever bounds the call stack bounds
it, and Section 5.3's guard page has nothing to model.  The methods
here are the general path's API over it; the fast path's two drivers,
the columnar kernel (:func:`repro.core.fastpath.columnar_kernel`) and
the Python tracer's profile hook, push, compress and pop the same lists
directly.  Each takes them with :meth:`CcStack.kernel_view` and keeps
the logical depth and the operation counts in locals; the end of its
stay on the thread (:func:`repro.core.fastpath.hand_back`) returns them
with :meth:`CcStack.kernel_fold`.  Whether a back edge compresses is
decided per edge by the engine (its compression mode and the adaptive
policy), not by the stack.
:meth:`CcStack.snapshot` and :meth:`CcStack.entries` copy the content out
as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .context import CcStackEntry
from .errors import TraceError
from .events import CallSiteId, FunctionId

#: Reserved callsite id marking the base entry of a spawned thread; the
#: decoder stops at this sentinel and stitches the parent context.
CLONE_CALLSITE: CallSiteId = -1

#: Reserved callsite id marking a targeted-encoding boundary crossing:
#: the entry was pushed when control left the targeted subgraph
#: (departure) or came back into it (re-entry).  The decoder renders the
#: untracked span as a single ``<untracked>`` pseudo-frame.
UNTRACKED_CALLSITE: CallSiteId = -2

#: Pseudo function id standing for all code outside the targeted
#: subgraph — the ``<untracked>`` frame in decoded contexts and samples.
UNTRACKED_FUNCTION: FunctionId = -2


#: One stored entry, ``[id, callsite, target, count, discovery]``.
#: ``count`` is the number of extra compressed repetitions (Figure 5(e)).
#: ``discovery`` (a bool) marks entries saved for edges that merely await
#: their first encoding (a transient state bounded by the re-encoding
#: latency) as opposed to recursive back edges, whose entries are the
#: steady-state ccStack content Figure 10 measures.
CcEntry = List[int]

#: The fields of one entry as :meth:`CcStack.entries` returns them.
CcEntryFields = Tuple[int, CallSiteId, FunctionId, int, bool]


@dataclass
class CcStackStats:
    """Operation counters reported per benchmark in Table 1."""

    pushes: int = 0
    pops: int = 0
    compressions: int = 0
    decompressions: int = 0
    max_depth: int = 0

    @property
    def operations(self) -> int:
        """Total ccStack accesses (the ``ccStack/s`` numerator)."""
        return self.pushes + self.pops + self.compressions + self.decompressions


class CcStack:
    """One thread's ccStack."""

    def __init__(self) -> None:
        self._entries: List[CcEntry] = []
        #: Logical depth (including compressed repetitions), maintained
        #: incrementally so the per-push ``max_depth`` update is O(1)
        #: instead of a full-stack sum.
        self._depth = 0
        self.stats = CcStackStats()

    # ------------------------------------------------------------------
    def push(
        self,
        id_value: int,
        callsite: CallSiteId,
        target: FunctionId,
        allow_compress: bool = False,
        discovery: bool = False,
    ) -> bool:
        """Save an encoding context before an unencoded call.

        With ``allow_compress`` (recursive back edges whose instrumentation
        was upgraded per Figure 5(e)) an entry identical to the current top
        only bumps the top's repetition counter.  Returns ``True`` when the
        push was compressed.
        """
        entries = self._entries
        stats = self.stats
        if (
            allow_compress
            and entries
            and entries[-1][0] == id_value
            and entries[-1][1] == callsite
            and entries[-1][2] == target
        ):
            entries[-1][3] += 1
            stats.compressions += 1
            compressed = True
        else:
            entries.append([id_value, callsite, target, 0, discovery])
            stats.pushes += 1
            compressed = False
        self._depth += 1
        if self._depth > stats.max_depth:
            stats.max_depth = self._depth
        return compressed

    def pop(self) -> int:
        """Undo the most recent (uncompressed) push; returns the saved id."""
        if not self._entries:
            raise TraceError("pop from empty ccStack")
        top = self._entries[-1]
        self._depth -= 1
        if top[3] > 0:
            # A compressed repetition ends: restore the id and drop one
            # repetition (the ``ccStack.top().count--`` of Figure 5(e)).
            top[3] -= 1
            self.stats.decompressions += 1
            return top[0]
        self._entries.pop()
        self.stats.pops += 1
        return top[0]

    def top(self) -> Optional[CcStackEntry]:
        if not self._entries:
            return None
        top = self._entries[-1]
        return CcStackEntry(top[0], top[1], top[2], top[3])

    def top_matches(
        self, id_value: int, callsite: CallSiteId, target: FunctionId
    ) -> bool:
        """Does the top entry equal ``<id, callsite, target>``?

        Allocation-free variant of ``top() == CcStackEntry(...)`` for the
        engine's hot compressed-recursion check.
        """
        if not self._entries:
            return False
        top = self._entries[-1]
        return top[0] == id_value and top[1] == callsite and top[2] == target

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of physical entries (compressed runs count once)."""
        return len(self._entries)

    def depth(self) -> int:
        """Logical depth including compressed repetitions."""
        return self._depth

    def steady_depth(self) -> int:
        """Logical depth excluding transient edge-discovery entries."""
        return sum(1 + e[3] for e in self._entries if not e[4])

    def snapshot(self) -> Tuple[CcStackEntry, ...]:
        """Frozen bottom-to-top copy stored into a collected sample."""
        return tuple(CcStackEntry(e[0], e[1], e[2], e[3]) for e in self._entries)

    def entries(self) -> List[CcEntryFields]:
        """Every entry's ``(id, callsite, target, count, discovery)``,
        bottom to top."""
        return [(e[0], e[1], e[2], e[3], bool(e[4])) for e in self._entries]

    def kernel_view(self) -> Tuple[List[CcEntry], int, int]:
        """What a fast-path driver keeps in locals while it runs on this
        stack: ``(entries, depth, max_depth)``.  ``entries`` is the
        storage itself, which the driver pushes, compresses and pops in
        place."""
        return (self._entries, self._depth, self.stats.max_depth)

    def kernel_fold(
        self,
        depth: int,
        max_depth: int,
        pushes: int,
        compressions: int,
        pops: int,
        decompressions: int,
    ) -> None:
        """Take back the depth and the operation counts a fast-path
        driver kept in locals since :meth:`kernel_view`."""
        self._depth = depth
        stats = self.stats
        stats.pushes += pushes
        stats.compressions += compressions
        stats.pops += pops
        stats.decompressions += decompressions
        stats.max_depth = max_depth

    def saved_state(self) -> Tuple[int, int]:
        """(physical length, top count) — enough to restore across a call.

        Within one call's dynamic extent the stack never shrinks below its
        entry depth and only the entry that was on top may see its counter
        change, so this pair restores the stack exactly.  Used by the
        engine for tail-call (TcStack) restoration and re-encoding.
        """
        top_count = self._entries[-1][3] if self._entries else 0
        return (len(self._entries), top_count)

    def restore(self, state: Tuple[int, int]) -> None:
        """Truncate back to a :meth:`saved_state` checkpoint."""
        length, top_count = state
        if length > len(self._entries):
            raise TraceError("cannot restore ccStack to a deeper state")
        del self._entries[length:]
        if self._entries and length > 0:
            self._entries[-1][3] = top_count
        self._depth = sum(1 + e[3] for e in self._entries)

    def __repr__(self) -> str:
        return "CcStack(%s)" % (
            ", ".join("<%d,%d,%d,%d>" % tuple(e[:4]) for e in self._entries)
        )
