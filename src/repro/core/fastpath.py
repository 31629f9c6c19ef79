"""Compiled fast-path dispatch tables for the steady state.

The paper's central trick is that a call over an already-encoded edge
costs almost nothing — the hottest in-edge gets encoding 0, i.e. *no
instrumentation at all* (Sections 3-4).  The reproduction mirrors that
at the interpreter level: :class:`FastPathTable` is a flat dictionary
compiled from the current decoding dictionary, and two drivers run the
steady state from it.  :func:`columnar_kernel`, which
``DacceEngine.process_columns`` runs for column sources (the synthetic
substrate), handles encoded NORMAL calls and their returns with one
dict probe and one integer add each — no dataclass unpacking, no
handler/fault branches.  The Python tracer's profile hook
(:mod:`repro.pytrace.tracer`) does the same work per row at the call
itself: it patches each call site with the table's entry for its
callee.  Both drivers deoptimise the same events to the same general
path, so they count the same hits and misses.

A *stay* is the stretch during which a driver holds one thread's engine
state in its locals: the id register, its deferred frames, the
ccStack's depth and operation counts, and the engine counters it has
folded since the stay began.  Every stay ends in :func:`hand_back`,
which returns all of it to the engine, so nothing outside a driver ever
sees engine state that a driver still holds.

The table is a pure *specialisation cache*: every entry restates what
the general path would compute for that edge under the current
``gTimeStamp``.  Recursive back edges get a second map: a NORMAL call
over a back edge pushes (or compresses) ``<id, callsite, target>`` on
the ccStack and its return pops it, exactly as Figure 5(e) describes,
without leaving the kernel.  In targeted mode a NORMAL call with an
end outside the plan is handled in the kernel too, as
``DacceEngine._apply_targeted`` handles it: a boundary crossing pushes
``<id, UNTRACKED_CALLSITE, tracked end>`` and its return pops it, and a
call wholly outside the plan is a bare shadow frame.  Anything else (an
unencoded edge, an indirect/tail/PLT call, a tail-chain return, a
ccStack push past the stack's capacity, a sample, a thread event, a
malformed event) misses and deoptimises to
the general path — the engine's event handlers, which check every
fault condition and apply the fault policy themselves — so behaviour
is identical under either policy and only speed changes.

Invalidation is by identity: a table is valid exactly while the engine's
current dictionary is the *object* it was compiled from and the
tail-caller set has not grown (:meth:`FastPathTable.valid_for`, the one
place the rule is written).  Re-encoding replaces the dictionary
object (and a rolled-back pass restores the previous object, for which
the previous table is still exact), so transactional re-encoding and
warm-start seeding need no extra hooks.  A triggered re-encoding pass
that would change nothing commits nothing, so the table survives it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .ccstack import UNTRACKED_CALLSITE, CcEntry, CcStack
from .events import CallKind, CallSiteId, FunctionId, ThreadId

if TYPE_CHECKING:
    from .callgraph import CallEdge, CallGraph
    from .dictionary import EncodingDictionary
    from .engine import DacceStats, _ThreadState

#: ``(callsite, callee) -> (encoding delta, edge, callee tail-calls?)``.
#:
#: The issue sketches the key as ``(thread_kind, callsite)``; the
#: reproduction keys on ``(callsite, callee)`` instead because a call
#: site is not guaranteed monomorphic (the Python tracer maps dynamic
#: dispatch onto NORMAL calls), and the encoding is a per-target
#: property.  The per-thread running-id register lives in the engine's
#: ``_ThreadState.id_value``; the kernel keeps it in a local and writes
#: it back whenever it leaves a thread.
FastPathEntry = Tuple[int, "CallEdge", bool]
FastPathKey = Tuple[CallSiteId, FunctionId]

#: ``(callsite, callee) -> (edge, push counters, compress?, callee
#: tail-calls?)`` for recursive back edges.  ``push counters`` is the
#: adaptive policy's live ``[pushes, repetitive pushes]`` list for the
#: edge; ``compress?`` is whether the edge has the compressing
#: instrumentation of Figure 5(e) (fixed per table: the compression
#: mode is configuration and the compressed set only changes in a
#: committed or rolled-back re-encoding pass).
BackEdgeEntry = Tuple["CallEdge", List[int], bool, bool]

#: ``spec(edge) -> (push counters, compress?)`` for one back edge.
BackEdgeSpec = Callable[["CallEdge"], Tuple[List[int], bool]]


@dataclass
class FastPathStats:
    """Specialisation counters; ``hit_rate`` is the steady-state gate."""

    hits: int = 0
    misses: int = 0
    batches: int = 0
    compiles: int = 0
    #: Traced runs (``start()``/``stop()``) of the Python tracer's
    #: profile hook, the table's other driver.
    hook_runs: int = 0

    @property
    def events(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if not total:
            return 0.0
        return self.hits / total

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "batches": self.batches,
            "compiles": self.compiles,
            "hit_rate": self.hit_rate,
        }


class FastPathTable:
    """One compiled dispatch table, pinned to a dictionary snapshot.

    ``entries`` maps every encoded, non-back NORMAL edge of the source
    dictionary to ``(delta, edge, callee_tail_calls)``:

    * ``delta`` — the edge's encoding (``id += delta``; 0 for the
      hottest in-edge, matching the paper's zero-instrumentation case),
    * ``edge`` — the live :class:`~repro.core.callgraph.CallEdge`, so
      the kernel can bump ``invocations`` (the adaptive policy's
      frequency signal) without a graph lookup,
    * ``callee_tail_calls`` — whether the callee is a known tail-caller,
      i.e. the caller-side TcStack save of Figure 7 must be charged.

    Seeded edges that have never been invoked are compiled in as well;
    the kernel credits ``warmstart_handler_hits_avoided`` on their
    first hit exactly as the general path would.

    ``back_entries`` maps every NORMAL back edge of the graph (see
    :data:`BackEdgeEntry`).  A back edge never carries an encoding, so
    its handling does not depend on the dictionary; the kernel probes
    this map only after an ``entries`` miss.

    A targeted table holds tracked→tracked edges only, so a probe hit
    gives the answer ``on_call`` gives, which tests plan membership
    before it looks at the graph.
    """

    __slots__ = ("entries", "back_entries", "dictionary", "tail_set_size")

    def __init__(
        self,
        entries: Dict[FastPathKey, FastPathEntry],
        back_entries: Dict[FastPathKey, BackEdgeEntry],
        dictionary: "EncodingDictionary",
        tail_set_size: int,
    ):
        self.entries = entries
        self.back_entries = back_entries
        self.dictionary = dictionary
        self.tail_set_size = tail_set_size

    def __len__(self) -> int:
        return len(self.entries) + len(self.back_entries)

    def valid_for(
        self, dictionary: "EncodingDictionary", tail_set_size: int
    ) -> bool:
        """Is this table still exact for the engine's current state?

        Identity on the dictionary object covers both directions of the
        re-encoding transaction: a committed pass installs a new object
        (stale), a rolled-back pass restores the old object (this table
        is exact again).  The tail-caller set only grows, and growth
        flips the TcStack charge of affected callees, so its size is the
        second validity dimension.
        """
        return (
            dictionary is self.dictionary
            and tail_set_size == self.tail_set_size
        )


def compile_table(
    graph: "CallGraph",
    dictionary: "EncodingDictionary",
    tail_calling_functions: AbstractSet[FunctionId],
    back_edge_spec: Optional[BackEdgeSpec] = None,
    tracked: Optional[AbstractSet[FunctionId]] = None,
) -> FastPathTable:
    """Compile the fast-path table for one dictionary snapshot.

    O(edges) — the same order as one re-encoding pass, and compiled at
    most once per (dictionary, tail-set) state, so compilation cost is
    bounded by the adaptive machinery that triggered it.  Back edges
    are compiled in only when ``back_edge_spec`` supplies their policy
    state; without it every back-edge call deoptimises.  ``tracked``
    (targeted mode) leaves out every edge with an end outside the set.
    """
    entries: Dict[FastPathKey, FastPathEntry] = {}
    back_entries: Dict[FastPathKey, BackEdgeEntry] = {}
    for edge in graph.edges():
        if edge.kind is not CallKind.NORMAL:
            continue
        if tracked is not None and (
            edge.caller not in tracked or edge.callee not in tracked
        ):
            continue
        tail_calls = edge.callee in tail_calling_functions
        if edge.is_back:
            if back_edge_spec is not None:
                counters, compress = back_edge_spec(edge)
                back_entries[(edge.callsite, edge.callee)] = (
                    edge,
                    counters,
                    compress,
                    tail_calls,
                )
            continue
        encoding = dictionary.encoding(edge.callsite, edge.callee)
        if encoding is None:
            continue
        entries[(edge.callsite, edge.callee)] = (encoding, edge, tail_calls)
    return FastPathTable(
        entries, back_entries, dictionary, len(tail_calling_functions)
    )


# ----------------------------------------------------------------------
# shadow-stack frames
# ----------------------------------------------------------------------
class _Action(enum.Enum):
    """What the forward instrumentation of a call did (for the unwind)."""

    NONE = 0            # encoding 0 — no instrumentation at all
    ID = 1              # id += En
    PUSH = 2            # ccStack push (recursive back edge)
    COMPRESS = 3        # ccStack counter bump (compressed recursion)
    DISCOVERY_PUSH = 4  # ccStack push for a not-yet-encoded edge
    UNTRACKED = 5       # targeted mode: interior untracked call, no work
    BOUNDARY_DEP = 6    # targeted mode: departure from the subgraph
    BOUNDARY_RE = 7     # targeted mode: re-entry into the subgraph


@dataclass(slots=True)
class _Frame:
    """Shadow-stack frame.

    ``chain`` holds the (function, callsite, kind) sequence of tail-call
    replaced predecessors — the logical context includes them even though
    their machine frames are gone.  ``restore_id`` / ``cc_state`` are the
    encoding context at entry of the *chain head*, which is what the
    TcStack restores after a tail-call chain returns (Figure 7).

    The general path allocates one frame per call it handles; the
    columnar kernel builds frames only for the calls still live when it
    leaves a thread (see :func:`_materialise`), so a call that returns
    within one kernel stay never gets one.  Frames are never mutated, so
    the chain is an immutable tuple (shared between a frame and its
    regenerated twin) and the class is slotted to keep construction
    cheap.
    """

    function: FunctionId
    callsite: Optional[CallSiteId]
    restore_id: int
    cc_state: Tuple[int, int]
    action: _Action
    kind: CallKind = CallKind.NORMAL
    chain: Tuple[Tuple[FunctionId, CallSiteId, CallKind], ...] = ()

    @property
    def is_tail_chain(self) -> bool:
        return bool(self.chain)


# ----------------------------------------------------------------------
# the columnar kernel
# ----------------------------------------------------------------------
# ``DacceEngine.process_columns`` drives struct-of-arrays batches
# (:mod:`repro.core.columnar`) through :func:`columnar_kernel`, one
# ordinary function for every engine.  Optional features are runtime
# guards on arguments: the warm-start credit (``warm``), the sampling
# countdown (``profiled``), the ccStack-depth histogram (``observe``)
# and the targeted boundary block (``tracked``); the adaptive check
# interval is an argument too.  Everything that changes per encoding
# epoch (the table's two maps, ``maxID + 1``) comes from the table, so a
# re-encoding pass only recompiles the table.  The per-thread id
# register, the logical top-of-stack function and the sampling countdown
# live in locals, so the steady-state inner loop is one dict probe plus
# one integer add over raw integer columns.
#
# Frames are *deferred*: every call the kernel handles pushes a scratch
# tuple, and real ``_Frame`` objects are built only when the kernel
# leaves a thread (deopt, thread switch, exit).  Nothing observes
# ``state.frames`` between kernel events, so a call/return pair wholly
# inside one stay on a thread never needs its frame.  Encoded and
# ``UNTRACKED`` calls push ``(function, callsite, restore_id, action)``;
# calls that touch the ccStack (``PUSH``, ``COMPRESS``, ``BOUNDARY_DEP``,
# ``BOUNDARY_RE``) add their pre-push checkpoint ``(physical length, top
# count)``, read off the stack's storage.  Materialisation walks the
# scratch list newest to oldest and gives each encoded frame the
# checkpoint of the nearest younger ccStack frame (the current one if
# there is none): within a call's extent the ccStack returns to its entry
# state, which is ``saved_state()``'s invariant.
#
# The kernel works on the ccStack's storage (:data:`CcEntry` lists)
# directly.  On the first ccStack event of a stay on a thread it takes
# the entry list, the logical depth, ``max_depth`` and the capacity into
# locals (``CcStack.kernel_view``); pops and decompressions count in
# locals from zero, and pushes and compressions are the stay's engine
# counters.  The stay's end folds them back, and only if it took them,
# so entering a thread costs nothing.
#
# A back-edge call is the general path's ``_push_unencoded`` inlined:
# the repeat-top test feeds the policy's push counters, the top entry's
# count is bumped (compression) or a new entry is appended, and ``id =
# maxID + 1``.  A push that would overflow the ccStack's capacity is
# tested before any state changes and deoptimises, so the general path
# raises (or, under ``recover``, quarantines) the capacity trap.  The
# return of a ``PUSH``/``COMPRESS`` frame pops the entry or drops one
# repetition and restores the id.
#
# In targeted mode (``tracked`` is the plan's function set) a NORMAL
# call that misses both probes runs the general path's
# ``_apply_targeted``: a call with exactly one end in the set crosses
# the boundary, pushing ``<id, UNTRACKED_CALLSITE, tracked end>`` (with
# the same capacity test), setting ``id = maxID + 1`` and getting a
# ``BOUNDARY_DEP``/``BOUNDARY_RE`` scratch frame, whose return pops; a
# call with neither end in the set gets an ``UNTRACKED`` scratch frame,
# which only restores the id.  Boundary pushes and pops are counted
# apart from back-edge ones: they are ``boundary_crossings``, never
# ``back_edge_calls``, and stay out of the trigger-(c) window, because
# no encoding can remove them.
#
# A stay on a thread ends at a thread switch, before a deopt and when
# the kernel returns, and always in :func:`hand_back`: the scratch
# frames are materialised, the ccStack locals folded, the id register
# written back and the stay's engine counters flushed.  The kernel then
# adds the stay's calls to its copy of the adaptive window, so the
# trigger test ``wcalls + calls >= interval`` stays exact.  On a miss
# it calls the per-batch ``deopt`` closure (:data:`Deopt`), which runs
# the general path on that one event and returns ``(window calls,
# sample countdown, stale)``; the kernel then re-enters the event
# thread on the next event.  ``stale`` is true when the general path
# changed what the kernel's arguments were taken from (the dictionary,
# the tail-caller set) or installed or removed the sampling hook.

#: Exit reasons of a kernel run.
KERNEL_DONE = 0  #: every event consumed
KERNEL_SAMPLE = 1  #: sampling countdown hit zero after a call
KERNEL_TRIGGER = 2  #: adaptive window filled after a return
KERNEL_STALE = 3  #: a general-path event invalidated the kernel's arguments

#: One event of a column batch: ``(op, thread, callsite, caller, callee,
#: kind)`` (see :mod:`repro.core.columnar`).
ColumnarRow = Tuple[int, int, int, int, int, int]

#: A deferred frame.  Encoded and untracked calls: ``(function,
#: callsite, restore_id, action)``; calls that touched the ccStack add
#: the pre-push checkpoint ``(physical length, top count)``.
_Scratch = Union[
    Tuple[FunctionId, CallSiteId, int, _Action],
    Tuple[FunctionId, CallSiteId, int, _Action, int, int],
]


#: The per-batch general path for one event the kernel missed:
#: ``deopt(i, countdown)`` with the event index and the sampling
#: countdown returns ``(window calls, sampling countdown, stale)``.
Deopt = Callable[[int, int], Tuple[int, int, bool]]

#: ``DacceEngine._flush_fastpath_counters``, which folds one stay's
#: engine counters, passed in :func:`hand_back`'s parameter order.
Flush = Callable[[int, int, int, int, int, int, int, int, int, int], None]


def _materialise(
    scratch: List[_Scratch], frames: List[_Frame], cc_state: Tuple[int, int]
) -> None:
    """Turn deferred scratch frames into real frames, oldest first.

    ``cc_state`` is the ccStack's current checkpoint.  The walk goes
    newest to oldest: a ccStack frame carries its own pre-push
    checkpoint, and an encoded frame shares the one of the nearest
    younger ccStack frame.
    """
    built: List[_Frame] = []
    for sf in reversed(scratch):
        if len(sf) == 6:
            cc_state = (sf[4], sf[5])
        built.append(_Frame(sf[0], sf[1], sf[2], cc_state, sf[3]))
    built.reverse()
    frames.extend(built)
    scratch.clear()


def hand_back(
    state: "_ThreadState",
    cur_id: int,
    scratch: List[_Scratch],
    ccs: Optional[CcStack],
    depth: int,
    max_depth: int,
    cc_pops: int,
    cc_decompressions: int,
    flush: Flush,
    calls: int,
    returns: int,
    id_updates: int,
    tcstack: int,
    pushes: int,
    compressions: int,
    pops: int,
    boundary_pushes: int,
    boundary_pops: int,
    untracked: int,
) -> None:
    """End a driver's stay on ``state``: hand its locals back.

    ``cur_id`` is the id register, ``scratch`` the deferred frames and
    ``ccs`` the ccStack the driver bound (``None`` if it touched none),
    with the ``depth``, ``max_depth``, pops and decompressions it kept
    for it.  The rest are the stay's engine counters, which ``flush``
    folds into the engine; the stay's ccStack pushes and compressions
    are among them.  Afterwards the thread state, the ccStack and the
    engine's statistics, window and cost report are what per-event
    processing would have left.
    """
    if ccs is not None:
        ccs.kernel_fold(
            depth, max_depth, pushes + boundary_pushes, compressions,
            cc_pops, cc_decompressions,
        )
    if scratch:
        _materialise(scratch, state.frames, state.ccstack.saved_state())
    state.id_value = cur_id
    if calls or returns:
        flush(
            calls, returns, id_updates, tcstack, pushes, compressions, pops,
            boundary_pushes, boundary_pops, untracked,
        )


def columnar_kernel(
    events: Iterator[ColumnarRow],
    i: int,
    threads: Mapping[ThreadId, "_ThreadState"],
    table: FastPathTable,
    deopt: Deopt,
    flush: Flush,
    stats: "DacceStats",
    wcalls: int,
    interval: int,
    warm: bool,
    profiled: bool,
    pcount: int,
    observe: Optional[Callable[[int], None]],
    tracked: Optional[AbstractSet[FunctionId]],
) -> Tuple[int, int, int, int]:
    """Dispatch column events until the batch ends or the engine must act.

    ``events`` is a shared iterator over the batch's rows and ``i`` the
    index of the last event already consumed; ``wcalls`` is the adaptive
    window's call count and ``pcount`` the sampling countdown (read only
    when ``profiled``); every stay ends in :func:`hand_back` with
    ``flush``.  Returns ``(i, reason, thread, countdown)`` once the last
    stay has ended: ``i`` is the last event consumed (pass it back in to
    resume), ``reason`` one of the ``KERNEL_*`` codes and ``thread`` the
    thread the kernel was on.
    """
    threads_get = threads.get
    entries_get = table.entries.get
    back_get = table.back_entries.get
    mark_id = table.dictionary.max_id + 1
    act_none = _Action.NONE
    act_id = _Action.ID
    act_push = _Action.PUSH
    act_cmp = _Action.COMPRESS
    act_disc = _Action.DISCOVERY_PUSH
    act_unt = _Action.UNTRACKED
    act_dep = _Action.BOUNDARY_DEP
    act_re = _Action.BOUNDARY_RE
    scratch: List[_Scratch] = []
    scratch_append = scratch.append
    scratch_pop = scratch.pop
    # ``state`` and ``frames`` are bound exactly while ``cur_t != -1``.
    state: "_ThreadState"
    frames: List[_Frame]
    cur_t = -1
    cur_id = 0
    top_fn = -1
    # The current thread's ccStack while bound (``CcStack.kernel_view``);
    # its pops and decompressions count from zero until the stay ends.
    ccs: Optional[CcStack] = None
    ents: List[CcEntry] = []
    depth = max_depth = limit = s_pop = s_dcmp = 0
    # The stay's engine counters.
    calls = rets = id_updates = tcstack = 0
    pushes = compressions = pops = bpushes = bpops = untracked = 0
    reason = KERNEL_DONE
    for op, et, cs, cr, ce, ek in events:
        i += 1
        if (op == 0 and not ek) or op == 1:
            # A NORMAL call or a return: enter the event's thread.
            if et != cur_t:
                if cur_t != -1:
                    hand_back(
                        state, cur_id, scratch, ccs, depth, max_depth, s_pop, s_dcmp,
                        flush, calls, rets, id_updates, tcstack, pushes,
                        compressions, pops, bpushes, bpops, untracked,
                    )
                    ccs = None
                    wcalls += calls
                    calls = rets = id_updates = tcstack = 0
                    pushes = compressions = pops = bpushes = bpops = untracked = 0
                ns = threads_get(et)
                if ns is None:
                    cur_t = -1  # the general path reports the unknown thread
                else:
                    cur_t = et
                    state = ns
                    frames = ns.frames
                    cur_id = ns.id_value
                    top_fn = frames[-1].function
            if cur_t == -1:
                pass
            elif op == 0:
                if top_fn == cr:
                    key = (cs, ce)
                    entry = entries_get(key)
                    if entry is not None:
                        edge = entry[1]
                        if warm and not edge.invocations and edge.seeded:
                            stats.warmstart_handler_hits_avoided += 1
                        edge.invocations += 1
                        delta = entry[0]
                        if delta:
                            scratch_append((ce, cs, cur_id, act_id))
                            cur_id += delta
                            id_updates += 1
                        else:
                            scratch_append((ce, cs, cur_id, act_none))
                        if entry[2]:
                            tcstack += 1
                        top_fn = ce
                        calls += 1
                        if profiled:
                            pcount -= 1
                            if pcount <= 0:
                                reason = KERNEL_SAMPLE
                                break
                        continue
                    back = back_get(key)
                    if back is not None:
                        if ccs is None:
                            ccs = state.ccstack
                            ents, depth, max_depth, limit = ccs.kernel_view()
                            s_pop = s_dcmp = 0
                        n = len(ents)
                        if n:
                            top = ents[-1]
                            top_count = top[3]
                            repeat = top[0] == cur_id and top[1] == cs and top[2] == ce
                        else:
                            top_count = 0
                            repeat = False
                        compress = repeat and back[2]
                        # A push that would overflow deoptimises before
                        # any state changes (the policy counters too).
                        if compress or n < limit:
                            counters = back[1]
                            counters[0] += 1
                            if repeat:
                                counters[1] += 1
                            if compress:
                                top[3] = top_count + 1
                                scratch_append((ce, cs, cur_id, act_cmp, n, top_count))
                                compressions += 1
                            else:
                                ents.append([cur_id, cs, ce, 0, False])
                                scratch_append((ce, cs, cur_id, act_push, n, top_count))
                                pushes += 1
                            depth += 1
                            if depth > max_depth:
                                max_depth = depth
                            if observe is not None:
                                observe(depth)
                            cur_id = mark_id
                            edge = back[0]
                            if warm and not edge.invocations and edge.seeded:
                                stats.warmstart_handler_hits_avoided += 1
                            edge.invocations += 1
                            if back[3]:
                                tcstack += 1
                            top_fn = ce
                            calls += 1
                            if profiled:
                                pcount -= 1
                                if pcount <= 0:
                                    reason = KERNEL_SAMPLE
                                    break
                            continue
                    elif tracked is not None:
                        cr_in = cr in tracked
                        ce_in = ce in tracked
                        if cr_in and ce_in:
                            # A tracked edge the table lacks: general path.
                            handled = False
                        elif cr_in or ce_in:
                            # A boundary crossing saves the context with
                            # the tracked end as the target; an overflow
                            # deoptimises.
                            if ccs is None:
                                ccs = state.ccstack
                                ents, depth, max_depth, limit = ccs.kernel_view()
                                s_pop = s_dcmp = 0
                            n = len(ents)
                            handled = n < limit
                            if handled:
                                scratch_append(
                                    (
                                        ce, cs, cur_id, act_dep if cr_in else act_re,
                                        n, ents[-1][3] if n else 0,
                                    )
                                )
                                ents.append(
                                    [cur_id, UNTRACKED_CALLSITE, cr if cr_in else ce, 0, False]
                                )
                                depth += 1
                                if depth > max_depth:
                                    max_depth = depth
                                if observe is not None:
                                    observe(depth)
                                cur_id = mark_id
                                bpushes += 1
                        else:
                            scratch_append((ce, cs, cur_id, act_unt))
                            untracked += 1
                            handled = True
                        if handled:
                            top_fn = ce
                            calls += 1
                            if profiled:
                                pcount -= 1
                                if pcount <= 0:
                                    reason = KERNEL_SAMPLE
                                    break
                            continue
            elif scratch:
                sf = scratch_pop()
                cur_id = sf[2]
                act = sf[3]
                if act is act_id:
                    id_updates += 1
                elif act is not act_none and act is not act_unt:
                    # A back-edge or boundary entry, on top by the
                    # checkpoint invariant.
                    if act is act_cmp:
                        ents[-1][3] -= 1
                        s_dcmp += 1
                        pops += 1
                    else:
                        ents.pop()
                        s_pop += 1
                        if act is act_push:
                            pops += 1
                        else:
                            bpops += 1
                    depth -= 1
                    if observe is not None:
                        observe(depth)
                rets += 1
                top_fn = scratch[-1][0] if scratch else frames[-1].function
                if wcalls + calls >= interval:
                    reason = KERNEL_TRIGGER
                    break
                continue
            elif len(frames) > 1:
                frame = frames[-1]
                act = frame.action
                cc_pop = act is not act_id and act is not act_none and act is not act_unt
                if cc_pop and ccs is None:
                    ccs = state.ccstack
                    ents, depth, max_depth, limit = ccs.kernel_view()
                    s_pop = s_dcmp = 0
                # Tail chains, discovery entries and a pop from an empty
                # ccStack (which the general path reports) deoptimise.
                if not frame.chain and act is not act_disc and (ents or not cc_pop):
                    frames.pop()
                    if act is act_id:
                        id_updates += 1
                    elif cc_pop:
                        # A back-edge or boundary entry: pop it.
                        top = ents[-1]
                        if top[3]:
                            top[3] -= 1
                            s_dcmp += 1
                        else:
                            ents.pop()
                            s_pop += 1
                        depth -= 1
                        if observe is not None:
                            observe(depth)
                        if act is act_push or act is act_cmp:
                            pops += 1
                        else:
                            bpops += 1
                    cur_id = frame.restore_id
                    rets += 1
                    top_fn = frames[-1].function
                    if wcalls + calls >= interval:
                        reason = KERNEL_TRIGGER
                        break
                    continue
        # Anything else deoptimises: end the stay and hand the event to
        # the general path.
        if cur_t != -1:
            hand_back(
                state, cur_id, scratch, ccs, depth, max_depth, s_pop, s_dcmp,
                flush, calls, rets, id_updates, tcstack, pushes,
                compressions, pops, bpushes, bpops, untracked,
            )
            ccs = None
            cur_t = -1
            calls = rets = id_updates = tcstack = 0
            pushes = compressions = pops = bpushes = bpops = untracked = 0
        wcalls, pcount, stale = deopt(i, pcount)
        if stale:
            reason = KERNEL_STALE
            break
    if cur_t != -1:
        hand_back(
            state, cur_id, scratch, ccs, depth, max_depth, s_pop, s_dcmp,
            flush, calls, rets, id_updates, tcstack, pushes,
            compressions, pops, bpushes, bpops, untracked,
        )
    return i, reason, cur_t, pcount
