"""Compiled fast-path dispatch tables for the steady state.

The paper's central trick is that a call over an already-encoded edge
costs almost nothing — the hottest in-edge gets encoding 0, i.e. *no
instrumentation at all* (Sections 3-4).  The reproduction mirrors that
at the interpreter level: :class:`FastPathTable` is a flat dictionary
compiled from the current decoding dictionary, and two drivers run the
steady state from it.  :func:`columnar_kernel`, which
``DacceEngine.process_columns`` runs for column sources (the synthetic
substrate), handles encoded NORMAL and PLT calls and their returns with
one dict probe and one integer add each — no dataclass unpacking, no
handler/fault branches.  The Python tracer's profile hook
(:mod:`repro.pytrace.tracer`) does the same work per row at the call
itself: it patches each call site with the table's entry for its
callee.  Both drivers deoptimise the same events to the same general
path, so they count the same hits and misses.

Every driver keeps the same shadow stack: one :data:`Frame` tuple per
live call, in the thread's ``frames`` list, built by whichever driver
handled the call.  A *stay* is the stretch during which a driver holds
one thread's engine state in its locals: the id register, the ccStack's
current checkpoint, depth and decompressions, and the engine counters it
has folded since the stay began.  Every stay ends in one engine method,
``DacceEngine._end_stay``, which takes all of it back, so nothing
outside a driver ever sees engine state that a driver still holds.

The table is a pure *specialisation cache*: every entry restates what
the general path would compute for that edge under the current
``gTimeStamp``.  A bound PLT call is a direct call (Section 5.1), so it
probes the same map as a NORMAL call.  An INDIRECT call whose target is
in its site's patched set does the compare-and-add of Figures 3-4: its
own map holds the site and what the hit costs (the target's position +
1 down an inline cache, one comparison behind a hash table), and a hit
updates the site's counters as ``DacceEngine._dispatch_indirect`` does.
Recursive back edges get a third map: a NORMAL call
over a back edge pushes (or compresses) ``<id, callsite, target>`` on
the ccStack and its return pops it, exactly as Figure 5(e) describes,
without leaving the kernel.  In targeted mode a NORMAL call with an
end outside the plan is handled in the kernel too, as
``DacceEngine._apply_targeted`` handles it: a boundary crossing pushes
``<id, UNTRACKED_CALLSITE, tracked end>`` and its return pops it, and a
call wholly outside the plan is a bare shadow frame.  Anything else (an
unencoded edge, a first binding, an indirect target outside its site's
patched set, an indirect or PLT back edge, a tail call or tail-chain
return, a pop from an empty ccStack, a sample, a thread event, a
malformed event) misses and deoptimises to the general path —
the engine's event handlers, which check every fault condition and
apply the fault policy themselves — so behaviour is identical under
either policy and only speed changes.

Invalidation is by identity: a table is valid exactly while the engine's
current dictionary is the *object* it was compiled from and the
tail-caller set has not grown (:meth:`FastPathTable.valid_for`, the one
place the rule is written).  A committed re-encoding pass installs a
new dictionary object; a failed pass installs nothing, so the current
object and its table stay exact, and transactional re-encoding and
warm-start seeding need no extra hooks.  Indirect patches follow the
same rule: sites are patched only at construction (warm start, PCCE's
static chains), before any table exists, and by a re-encoding pass
when it commits, together with its new dictionary.  A triggered
re-encoding pass that would change nothing commits nothing, so the
table survives it.
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
    Optional,
    Tuple,
    Union,
)

from .ccstack import UNTRACKED_CALLSITE, CcEntry, CcStack
from .events import CallKind, CallSiteId, FunctionId

if TYPE_CHECKING:
    from .callgraph import CallEdge, CallGraph
    from .dictionary import EncodingDictionary
    from .engine import DacceEngine, _ThreadState
    from .indirect import IndirectCallSite, IndirectDispatchTable

#: ``(callsite, callee) -> (encoding delta, edge, callee tail-calls?)``.
#:
#: Keys are ``(callsite, callee)`` pairs, not call sites: a site is not
#: guaranteed monomorphic (the Python tracer maps dynamic dispatch onto
#: NORMAL calls, and an indirect site has one entry per patched
#: target), and the encoding is a per-target property.  The per-thread
#: running-id register lives in the engine's ``_ThreadState.id_value``;
#: the kernel keeps it in a local and writes it back whenever it leaves
#: a thread.
FastPathEntry = Tuple[int, "CallEdge", bool]
FastPathKey = Tuple[CallSiteId, FunctionId]

#: ``(callsite, callee) -> (encoding delta, edge, callee tail-calls?,
#: site, comparisons, hashed?)`` for an INDIRECT call whose target is in
#: ``site``'s patched set: what :meth:`IndirectCallSite.dispatch` would
#: charge for the hit (``comparisons``, behind a hash table if
#: ``hashed``), on top of the :data:`FastPathEntry` fields.
IndirectEntry = Tuple[int, "CallEdge", bool, "IndirectCallSite", int, bool]

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
    #: Which hit path that profile hook runs, ``"c"`` (compiled) or
    #: ``"python"``; ``None`` on an engine no tracer drives.
    hit_path: Optional[str] = None

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

    ``entries`` maps every encoded, non-back NORMAL or PLT edge of the
    source dictionary to ``(delta, edge, callee_tail_calls)``:

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

    NORMAL and PLT calls probe it: the general path applies a call of
    either kind as a direct call.  ``indirect_entries`` maps every
    encoded, non-back INDIRECT edge whose target is in its site's
    patched set (see :data:`IndirectEntry`); INDIRECT calls probe it.

    ``back_entries`` maps every NORMAL back edge of the graph (see
    :data:`BackEdgeEntry`).  A back edge never carries an encoding, so
    its handling does not depend on the dictionary; the kernel probes
    this map only after an ``entries`` miss.

    A targeted table holds tracked→tracked edges only, so a probe hit
    gives the answer ``on_call`` gives, which tests plan membership
    before it looks at the graph.
    """

    __slots__ = (
        "entries", "indirect_entries", "back_entries", "dictionary",
        "tail_set_size",
    )

    def __init__(
        self,
        entries: Dict[FastPathKey, FastPathEntry],
        indirect_entries: Dict[FastPathKey, IndirectEntry],
        back_entries: Dict[FastPathKey, BackEdgeEntry],
        dictionary: "EncodingDictionary",
        tail_set_size: int,
    ):
        self.entries = entries
        self.indirect_entries = indirect_entries
        self.back_entries = back_entries
        self.dictionary = dictionary
        self.tail_set_size = tail_set_size

    def __len__(self) -> int:
        return (
            len(self.entries) + len(self.indirect_entries) + len(self.back_entries)
        )

    def valid_for(
        self, dictionary: "EncodingDictionary", tail_set_size: int
    ) -> bool:
        """Is this table still exact for the engine's current state?

        Identity on the dictionary object is the re-encoding rule: a
        committed pass installs a new object (stale), and a failed pass
        installs nothing, so the current object and this table stay
        exact.  The tail-caller set only grows, and growth flips the
        TcStack charge of affected callees, so its size is the second
        validity dimension.

        The indirect entries need no third dimension.  A site's patch
        (its target order and strategy) changes only where the
        dictionary does: at engine construction, before any table is
        compiled, and in a re-encoding pass, which re-patches only when
        it commits a new dictionary object.  A failed or no-op pass
        re-patches nothing.
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
    indirect: Optional["IndirectDispatchTable"] = None,
) -> FastPathTable:
    """Compile the fast-path table for one dictionary snapshot.

    O(edges) — the same order as one re-encoding pass, and compiled at
    most once per (dictionary, tail-set) state, so compilation cost is
    bounded by the adaptive machinery that triggered it.  Back edges
    are compiled in only when ``back_edge_spec`` supplies their policy
    state, and indirect edges only when ``indirect`` supplies the
    patched sites; without them those calls deoptimise.  ``tracked``
    (targeted mode) leaves out every edge with an end outside the set.
    """
    entries: Dict[FastPathKey, FastPathEntry] = {}
    indirect_entries: Dict[FastPathKey, IndirectEntry] = {}
    back_entries: Dict[FastPathKey, BackEdgeEntry] = {}
    for edge in graph.edges():
        kind = edge.kind
        if kind is CallKind.TAIL:
            continue
        if tracked is not None and (
            edge.caller not in tracked or edge.callee not in tracked
        ):
            continue
        tail_calls = edge.callee in tail_calling_functions
        if edge.is_back:
            if kind is CallKind.NORMAL and back_edge_spec is not None:
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
        key = (edge.callsite, edge.callee)
        if kind is not CallKind.INDIRECT:
            entries[key] = (encoding, edge, tail_calls)
            continue
        site = indirect.get(edge.callsite) if indirect is not None else None
        if site is None:
            continue
        comparisons = site.hit_comparisons(edge.callee)
        if comparisons is not None:
            indirect_entries[key] = (
                encoding, edge, tail_calls, site, comparisons, site.hashed,
            )
    return FastPathTable(
        entries,
        indirect_entries,
        back_entries,
        dictionary,
        len(tail_calling_functions),
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


#: One link of a tail chain: ``(function, callsite, kind)`` of a frame
#: a tail call replaced.
ChainLink = Tuple[FunctionId, CallSiteId, CallKind]

#: One shadow-stack frame: ``(function, callsite, restore_id, cc_state,
#: action, kind, chain)``, read through the ``FRAME_*`` indices.
#:
#: ``restore_id`` and ``cc_state`` (the ccStack's ``(physical length,
#: top count)`` checkpoint, :meth:`CcStack.saved_state`) are the encoding
#: context at entry of the *chain head*, which is what a return restores
#: and what the TcStack restores after a tail-call chain returns
#: (Figure 7).  ``chain`` holds the :data:`ChainLink` of every tail-call
#: replaced predecessor, oldest first: the logical context includes them
#: even though their machine frames are gone.  Every driver pushes this
#: tuple for every call it handles, so a frame is never rebuilt, and
#: frames are never mutated, so a chain is shared between a frame and
#: its regenerated twin.
Frame = Tuple[
    FunctionId,
    Optional[CallSiteId],
    int,
    Tuple[int, int],
    _Action,
    CallKind,
    Tuple[ChainLink, ...],
]
FRAME_FUNCTION = 0
FRAME_CALLSITE = 1
FRAME_RESTORE_ID = 2
FRAME_CC_STATE = 3
FRAME_ACTION = 4
FRAME_KIND = 5
FRAME_CHAIN = 6


# ----------------------------------------------------------------------
# the columnar kernel
# ----------------------------------------------------------------------
# ``DacceEngine.process_columns`` drives struct-of-arrays batches
# (:mod:`repro.core.columnar`) through :func:`columnar_kernel`, one
# ordinary function for every engine.  Optional features are runtime
# guards: the sampling countdown (``profiled``, an argument) and, read
# from the engine once per run like the adaptive check interval, the
# warm-start credit (``warm``), the ccStack-depth histogram
# (``observe``) and the targeted boundary block (``tracked``).
# Everything that changes per encoding epoch (the table's three maps,
# ``maxID + 1``) comes from the table, so a re-encoding pass only
# recompiles the table.  The per-thread id register, the logical
# top-of-stack function and the sampling countdown live in locals, so
# the steady-state inner loop is one dict probe plus one integer add
# over raw integer columns.
#
# Every call the kernel handles pushes its :data:`Frame` straight onto
# the thread's ``frames``, as the general path does, and every return it
# handles pops one; there is no second frame representation.  The frame's
# ``cc_state`` is the ccStack checkpoint at the call, which the kernel
# keeps in a local: it is read (``saved_state()``) when the kernel enters
# a thread, an encoded or untracked call's frame takes it as it is, a
# push, compression or boundary push advances it, and a return restores
# it from the popped frame.  That restore is exact because within a
# call's extent the ccStack returns to its entry state, which is
# ``saved_state()``'s invariant.  An encoded INDIRECT or PLT call's frame
# keeps its ``CallKind``: a tail chain records the kind of the frame it
# replaces.  The loop reads frames by literal index, the ``FRAME_*``
# values, which saves a global load per read.
#
# The kernel works on the ccStack's storage (:data:`CcEntry` lists)
# directly.  On the first ccStack event of a stay on a thread it takes
# the entry list, the logical depth and ``max_depth`` into locals
# (``CcStack.kernel_view``); decompressions count in a local from
# zero, and pushes, compressions and pops are the stay's engine
# counters.  The stay's end folds them back, and only if it took them,
# so entering a thread costs nothing.  It derives the physical pops:
# every back-edge or boundary return drops a repetition or pops an
# entry, so they are those returns less the decompressions.
#
# A back-edge call is the general path's ``_push_unencoded`` inlined:
# the repeat-top test feeds the policy's push counters, the top entry's
# count is bumped (compression) or a new entry is appended, and ``id =
# maxID + 1``.  The ccStack is an unbounded list, so no push
# deoptimises.  The return of a ``PUSH``/``COMPRESS`` frame pops the
# entry or drops one repetition and restores the id.
#
# In targeted mode (``tracked`` is the plan's function set) a NORMAL
# call that misses both probes runs the general path's
# ``_apply_targeted``: a call with exactly one end in the set crosses
# the boundary, pushing ``<id, UNTRACKED_CALLSITE, tracked end>``,
# setting ``id = maxID + 1`` and getting a ``BOUNDARY_DEP``/
# ``BOUNDARY_RE`` frame, whose return pops; a call with neither end in
# the set gets an ``UNTRACKED`` frame, which only restores the id.  Boundary pushes and pops are counted apart from
# back-edge ones: they are ``boundary_crossings``, never
# ``back_edge_calls``, and stay out of the trigger-(c) window, because
# no encoding can remove them.
#
# An encoded INDIRECT or PLT call is an encoded NORMAL call plus
# bookkeeping: both count towards the stay's per-kind call counters, and
# an INDIRECT hit also bumps its site's ``hits`` and
# ``total_comparisons`` and adds its comparisons (or hash lookup) to the
# stay's, which the stay's end charges to the cost model's ``indirect``
# category and counts as ``stats.indirect_hits``.
#
# A stay on a thread ends at a thread switch, before a deopt and when
# the kernel returns, and always in ``engine._end_stay``: the ccStack
# locals are folded, the id register written back and the stay's engine
# counters folded into the engine.  The kernel then adds the stay's
# calls to its copy of the adaptive window, so the trigger test
# ``wcalls + calls >= interval`` stays exact.  On a miss it calls the
# per-batch ``deopt`` closure (:data:`Deopt`), which runs the general
# path on that one event and returns ``(window calls, sample countdown,
# stale)``; the kernel then re-enters the event thread on the next
# event.  ``stale`` is true when the general path changed what the
# kernel's arguments were taken from (the dictionary, the tail-caller
# set) or installed or removed the sampling hook.

#: Exit reasons of a kernel run.
KERNEL_DONE = 0  #: every event consumed
KERNEL_SAMPLE = 1  #: sampling countdown hit zero after a call
KERNEL_TRIGGER = 2  #: adaptive window filled after a return
KERNEL_STALE = 3  #: a general-path event invalidated the kernel's arguments

#: One event of a column batch: ``(op, thread, callsite, caller, callee,
#: kind)`` (see :mod:`repro.core.columnar`).
ColumnarRow = Tuple[int, int, int, int, int, int]

#: The per-batch general path for one event the kernel missed:
#: ``deopt(i, countdown)`` with the event index and the sampling
#: countdown returns ``(window calls, sampling countdown, stale)``.
Deopt = Callable[[int, int], Tuple[int, int, bool]]


def columnar_kernel(
    events: Iterator[ColumnarRow],
    i: int,
    table: FastPathTable,
    deopt: Deopt,
    engine: "DacceEngine",
    wcalls: int,
    profiled: bool,
    pcount: int,
) -> Tuple[int, int, int, int]:
    """Dispatch column events until the batch ends or the engine must act.

    ``events`` is a shared iterator over the batch's rows and ``i`` the
    index of the last event already consumed; ``wcalls`` is the adaptive
    window's call count and ``pcount`` the sampling countdown (read only
    when ``profiled``); every stay ends in ``engine._end_stay``.
    Returns ``(i, reason, thread, countdown)`` once the last stay has
    ended: ``i`` is the last event consumed (pass it back in to
    resume), ``reason`` one of the ``KERNEL_*`` codes and ``thread`` the
    thread the kernel was on.
    """
    threads_get = engine._threads.get
    stats = engine.stats
    end_stay = engine._end_stay
    interval = engine.config.adaptive.check_interval
    warm = engine._warm
    observe: Optional[Callable[[int], None]] = (
        engine._h_ccstack_depth.observe if engine._obs else None
    )
    tracked = engine._targeted_fns
    entries_get = table.entries.get
    indirect_get = table.indirect_entries.get
    back_get = table.back_entries.get
    kind_normal = CallKind.NORMAL
    kind_indirect = CallKind.INDIRECT
    kind_plt = CallKind.PLT
    mark_id = table.dictionary.max_id + 1
    act_none = _Action.NONE
    act_id = _Action.ID
    act_push = _Action.PUSH
    act_cmp = _Action.COMPRESS
    act_disc = _Action.DISCOVERY_PUSH
    act_unt = _Action.UNTRACKED
    act_dep = _Action.BOUNDARY_DEP
    act_re = _Action.BOUNDARY_RE
    entry: Optional[Union[FastPathEntry, IndirectEntry]]
    # ``state``, ``frames`` and ``cc``, the ccStack's current checkpoint
    # ``(physical length, top count)``, are bound exactly while
    # ``cur_t != -1``.
    state: "_ThreadState"
    frames: List[Frame]
    cc: Tuple[int, int]
    cur_t = -1
    cur_id = 0
    top_fn = -1
    # The current thread's ccStack while bound (``CcStack.kernel_view``);
    # its decompressions count from zero until the stay ends.
    ccs: Optional[CcStack] = None
    ents: List[CcEntry] = []
    depth = max_depth = s_dcmp = 0
    # The stay's engine counters.
    calls = rets = id_updates = tcstack = 0
    pushes = compressions = pops = bpushes = bpops = untracked = 0
    indirect = plt = comparisons = hashes = 0
    reason = KERNEL_DONE
    for op, et, cs, cr, ce, ek in events:
        i += 1
        if (op == 0 and ek != 2) or op == 1:
            # A call other than a tail call, or a return: enter the
            # event's thread.
            if et != cur_t:
                if cur_t != -1:
                    end_stay(
                        state, cur_id, ccs, depth, max_depth, s_dcmp, calls,
                        rets, id_updates, tcstack, pushes, compressions, pops,
                        bpushes, bpops, untracked, indirect, plt, comparisons,
                        hashes,
                    )
                    ccs = None
                    wcalls += calls
                    calls = rets = id_updates = tcstack = 0
                    pushes = compressions = pops = bpushes = bpops = untracked = 0
                    indirect = plt = comparisons = hashes = 0
                ns = threads_get(et)
                if ns is None:
                    cur_t = -1  # the general path reports the unknown thread
                else:
                    cur_t = et
                    state = ns
                    frames = ns.frames
                    cur_id = ns.id_value
                    cc = ns.ccstack.saved_state()
                    top_fn = frames[-1][0]
            if cur_t == -1:
                pass
            elif op == 0:
                if top_fn == cr:
                    key = (cs, ce)
                    if not ek:
                        entry = entries_get(key)
                        kind = kind_normal
                    elif ek == 1:
                        entry = indirect_get(key)
                        if entry is not None:
                            # The site's patched compare-and-add hit.
                            site = entry[3]
                            site.hits += 1
                            site.total_comparisons += entry[4]
                            if entry[5]:
                                hashes += 1
                            else:
                                comparisons += entry[4]
                            indirect += 1
                            kind = kind_indirect
                    elif ek == 3:
                        entry = entries_get(key)
                        if entry is not None:
                            plt += 1
                            kind = kind_plt
                    else:
                        entry = None
                    if entry is not None:
                        edge = entry[1]
                        if warm and not edge.invocations and edge.seeded:
                            stats.warmstart_handler_hits_avoided += 1
                        edge.invocations += 1
                        delta = entry[0]
                        frames.append(
                            (ce, cs, cur_id, cc, act_id if delta else act_none, kind, ())
                        )
                        if delta:
                            cur_id += delta
                            id_updates += 1
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
                    back = None if ek else back_get(key)
                    if back is not None:
                        if ccs is None:
                            ccs = state.ccstack
                            ents, depth, max_depth = ccs.kernel_view()
                            s_dcmp = 0
                        n = len(ents)
                        if n:
                            top = ents[-1]
                            top_count = top[3]
                            repeat = top[0] == cur_id and top[1] == cs and top[2] == ce
                        else:
                            top_count = 0
                            repeat = False
                        compress = repeat and back[2]
                        counters = back[1]
                        counters[0] += 1
                        if repeat:
                            counters[1] += 1
                        if compress:
                            top[3] = top_count + 1
                            frames.append((ce, cs, cur_id, cc, act_cmp, kind_normal, ()))
                            cc = (n, top_count + 1)
                            compressions += 1
                        else:
                            ents.append([cur_id, cs, ce, 0, False])
                            frames.append((ce, cs, cur_id, cc, act_push, kind_normal, ()))
                            cc = (n + 1, 0)
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
                    elif tracked is not None and not ek:
                        cr_in = cr in tracked
                        ce_in = ce in tracked
                        # A tracked edge the table lacks (both ends in the
                        # plan) goes to the general path.
                        if not (cr_in and ce_in):
                            if cr_in or ce_in:
                                # A boundary crossing saves the context
                                # with the tracked end as the target.
                                if ccs is None:
                                    ccs = state.ccstack
                                    ents, depth, max_depth = ccs.kernel_view()
                                    s_dcmp = 0
                                n = len(ents)
                                frames.append(
                                    (
                                        ce, cs, cur_id, cc, act_dep if cr_in else act_re,
                                        kind_normal, (),
                                    )
                                )
                                cc = (n + 1, 0)
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
                                frames.append((ce, cs, cur_id, cc, act_unt, kind_normal, ()))
                                untracked += 1
                            top_fn = ce
                            calls += 1
                            if profiled:
                                pcount -= 1
                                if pcount <= 0:
                                    reason = KERNEL_SAMPLE
                                    break
                            continue
            elif len(frames) > 1:
                frame = frames[-1]
                act = frame[4]
                cc_pop = act is not act_id and act is not act_none and act is not act_unt
                if cc_pop and ccs is None:
                    ccs = state.ccstack
                    ents, depth, max_depth = ccs.kernel_view()
                    s_dcmp = 0
                # Tail chains, discovery entries and a pop from an empty
                # ccStack (which the general path reports) deoptimise.
                if not frame[6] and act is not act_disc and (ents or not cc_pop):
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
                        depth -= 1
                        if observe is not None:
                            observe(depth)
                        if act is act_push or act is act_cmp:
                            pops += 1
                        else:
                            bpops += 1
                    cur_id = frame[2]
                    cc = frame[3]
                    rets += 1
                    top_fn = frames[-1][0]
                    if wcalls + calls >= interval:
                        reason = KERNEL_TRIGGER
                        break
                    continue
        # Anything else deoptimises: end the stay and hand the event to
        # the general path.
        if cur_t != -1:
            end_stay(
                state, cur_id, ccs, depth, max_depth, s_dcmp, calls, rets,
                id_updates, tcstack, pushes, compressions, pops, bpushes, bpops,
                untracked, indirect, plt, comparisons, hashes,
            )
            ccs = None
            cur_t = -1
            calls = rets = id_updates = tcstack = 0
            pushes = compressions = pops = bpushes = bpops = untracked = 0
            indirect = plt = comparisons = hashes = 0
        wcalls, pcount, stale = deopt(i, pcount)
        if stale:
            reason = KERNEL_STALE
            break
    if cur_t != -1:
        end_stay(
            state, cur_id, ccs, depth, max_depth, s_dcmp, calls, rets,
            id_updates, tcstack, pushes, compressions, pops, bpushes, bpops,
            untracked, indirect, plt, comparisons, hashes,
        )
    return i, reason, cur_t, pcount
