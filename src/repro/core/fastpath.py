"""Compiled fast-path dispatch tables for the steady state.

The paper's central trick is that a call over an already-encoded edge
costs almost nothing — the hottest in-edge gets encoding 0, i.e. *no
instrumentation at all* (Sections 3-4).  The reproduction mirrors that
at the interpreter level: :class:`FastPathTable` is a flat dictionary
compiled from the current decoding dictionary, and the code-generated
kernel of ``DacceEngine.process_columns`` handles encoded NORMAL calls
and their returns with one dict probe and one integer add each — no
dataclass unpacking, no handler/fault/telemetry branches.

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
sample, a thread event, a malformed event) misses and deoptimises to
the general path — the engine's event handlers, which check every
fault condition and apply the fault policy themselves — so behaviour
is identical under either policy and only speed changes.

Invalidation is by identity: a table is valid exactly while the engine's
current dictionary is the *object* it was compiled from and the
tail-caller set has not grown.  Re-encoding replaces the dictionary
object (and a rolled-back pass restores the previous object, for which
the previous table is still exact), so transactional re-encoding and
warm-start seeding need no extra hooks.  A triggered re-encoding pass
that would change nothing commits nothing, so the table survives it.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    cast,
)

from .ccstack import UNTRACKED_CALLSITE
from .events import CallKind, CallSiteId, FunctionId

if TYPE_CHECKING:
    from .callgraph import CallEdge, CallGraph
    from .dictionary import EncodingDictionary

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
    """Specialisation counters; ``hit_rate`` feeds the CI perf gate."""

    hits: int = 0
    misses: int = 0
    batches: int = 0
    compiles: int = 0

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
# code-generated columnar dispatch
# ----------------------------------------------------------------------
# ``DacceEngine.process_columns`` drives struct-of-arrays batches
# (:mod:`repro.core.columnar`) through a *code-generated* kernel.  The
# kernel's source is specialised for one engine *shape* — warm-start
# seeding present?  sampling hook installed?  telemetry on?  adaptive
# check interval?  targeted plan? — and branches for absent features do
# not exist in the generated bytecode.  Everything that changes per
# encoding epoch or per engine (the table's two probe functions,
# ``maxID + 1``, the stats block, the ccStack-depth histogram, the
# plan's function set) is a kernel *argument*, so one
# kernel per shape is generated per process and a re-encoding pass never
# pays an ``exec``.  The per-thread id register, the logical
# top-of-stack function and the sampling countdown live in interpreter
# locals, so the steady-state inner loop is one dict probe plus one
# integer add over raw integer columns.
#
# Frames for hot calls are *deferred*: the kernel pushes lightweight
# scratch tuples and only materialises real ``_Frame`` objects when it
# leaves a thread (deopt, thread switch, exit) or is about to touch the
# ccStack (a back-edge call).  This is sound because nothing observes
# ``state.frames`` between hot events and the ccStack never mutates
# while scratch frames are pending, so one ``saved_state()`` taken at
# materialisation is exact for every deferred frame; a call/return pair
# wholly inside one kernel run never needs its frame at all.
#
# A back-edge call is the general path's ``_push_unencoded`` inlined:
# the repeat-top check feeds the policy's push counters, the ccStack
# push or compression, ``id = maxID + 1`` and a real ``PUSH``/
# ``COMPRESS`` frame.  Its return (a ``PUSH``/``COMPRESS`` frame without
# a tail chain) pops the ccStack and restores the id.  The
# ``back_edge_calls`` statistic, the window's ccStack operations and the
# push/compress/pop cost charges are folded into the per-run flush.
#
# A targeted kernel (the shape's ``targeted`` flag) takes the plan's
# function set as an argument and adds one block after both probes
# miss: it is the general path's ``_apply_targeted`` inlined for NORMAL
# calls.  A call with exactly one end in the set crosses the boundary:
# it pushes ``<id, UNTRACKED_CALLSITE, tracked end>``, sets
# ``id = maxID + 1`` and gets a real ``BOUNDARY_DEP``/``BOUNDARY_RE``
# frame, whose return pops.  A call with neither end in the set gets a
# deferred ``UNTRACKED`` frame, which only restores the id.  Boundary
# pushes and pops are folded apart from back-edge ones: they count as
# ``boundary_crossings``, never as ``back_edge_calls``, and stay out of
# the trigger-(c) window, because no encoding can remove them.
#
# Deopts stay inside the kernel.  On a miss it materialises its scratch
# frames, writes the id register back and calls the per-batch ``deopt``
# closure it was handed, which flushes the folded counters, runs the
# general path on that one event and returns ``(window calls, sample
# countdown, stale)``; the kernel then re-switches onto the event
# thread and keeps going.  ``stale`` is true when the general path
# changed what the kernel's arguments were taken from (the dictionary,
# the tail-caller set) or the sampling shape.
#
# Exit protocol: the kernel consumes a shared iterator over the batch's
# column views and returns ``(i, reason, thread, *folded, hits,
# countdown, *boundary)`` after materialising scratch frames and writing
# the id register back.  ``i`` is the index of the last event consumed
# (pass it back in to resume); ``reason`` is one of the ``KERNEL_*``
# codes below; ``folded`` are the per-run counters ``calls, returns,
# id_updates, tcstack, ccstack_pushes, ccstack_compressions,
# ccstack_pops`` and ``boundary`` the targeted ones ``boundary_pushes,
# boundary_pops, untracked_calls``.  ``deopt`` receives them flat too (a
# miss is hot enough on some workloads that packing them into a tuple
# shows), and only a targeted kernel passes it ``boundary``.

#: Exit reasons of a generated kernel run.
KERNEL_DONE = 0  #: every event consumed
KERNEL_SAMPLE = 1  #: sampling countdown hit zero after a call
KERNEL_TRIGGER = 2  #: adaptive window filled after a return
KERNEL_STALE = 3  #: a general-path event invalidated the kernel

#: ``kernel(events, i, threads, countdown, window_calls, deopt,
#: entries_get, back_get, mark_id, stats, observe, tracked)`` → ``(i,
#: reason, thread, *folded, hits, countdown, *boundary)``, where
#: ``deopt(i, *folded, hits, countdown[, *boundary])`` →
#: ``(window_calls, countdown, stale)``.
#: ``tracked`` is the targeted plan's function set (``None`` for an
#: untargeted kernel).
ColumnarKernel = Callable[..., Tuple[Any, ...]]

#: The compiled-in shape of a kernel: ``(warm, profiled, obs,
#: interval, targeted)``.
KernelShape = Tuple[bool, bool, bool, int, bool]

#: Generated kernels, process-wide, by shape.  A kernel is a pure
#: function of its shape (all engine state arrives as arguments), so
#: engines sharing one cannot affect each other; the cache holds at most
#: one kernel per distinct shape.
_KERNELS: Dict[KernelShape, ColumnarKernel] = {}

_FOLDED = "pend_calls, pend_rets, pend_id, pend_tc, pend_push, pend_cmp, pend_pop"
_BOUNDARY = "pend_bnd, pend_bpop, pend_unt"

#: Materialise deferred frames (the ccStack is about to change or the
#: kernel is leaving the thread).
_MATERIALISE_BLOCK = """\
if scratch:
    cc_state = state.ccstack.saved_state()
    frames_append = frames.append
    for sf in scratch:
        frames_append(_frame(sf[0], sf[1], sf[2], cc_state, sf[3]))
    del scratch[:]"""

#: Leave the current thread: materialise deferred frames, write back id.
_PARK_BLOCK = """\
if state is not None:
%s
    state.id_value = cur_id
    state = None""" % textwrap.indent(_MATERIALISE_BLOCK, "    ")

#: Hand event ``i`` to the general path (the thread is already parked).
#: An untargeted kernel never touches the boundary counters, so its
#: deopts neither pass nor reset them.
_DEOPT_BLOCK = """\
cur_t = -1
wcalls, pcount, stale = deopt(i, %s, hits, pcount{boundary})
pend_calls = pend_rets = pend_id = pend_tc = pend_push = 0
pend_cmp = pend_pop = hits = 0{reset}
if stale:
    reason = 3
    break""" % (_FOLDED,)

_SWITCH_BLOCK = """\
%s
ns = threads_get(et)
if ns is None:
{deopt}
    continue
cur_t = et
state = ns
frames = ns.frames
cur_id = ns.id_value
top_fn = frames[-1].function""" % (_PARK_BLOCK,)

_WARM_BLOCK = """\
if not edge.invocations and edge.seeded:
    stats.warmstart_handler_hits_avoided += 1"""

_PROF_BLOCK = """\
pcount -= 1
if pcount <= 0:
    reason = 1
    break"""

_OBS_BLOCK = "observe(cc.depth())"

#: The end of a kernel-handled return: the window check that
#: ``on_return``'s trigger check would make.
_RETURN_TAIL = """\
pend_rets += 1
hits += 1
top_fn = frames[-1].function
if wcalls + pend_calls >= {interval}:
    reason = 2
    break
continue"""

#: Targeted mode, after both probes miss: a boundary crossing or an
#: untracked call, as ``_apply_targeted`` handles it; a tracked pair
#: falls through to the deopt.
_TARGETED_CALL_BLOCK = """\
if top_fn == cr:
    cr_in = cr in tracked
    if not (cr_in and ce in tracked):
        if cr_in or ce in tracked:
{materialise}
            cc = state.ccstack
            cc_state = cc.saved_state()
            if cr_in:
                cc.push(cur_id, _untracked_site, cr)
                frames.append(_frame(ce, cs, cur_id, cc_state, _act_dep))
            else:
                cc.push(cur_id, _untracked_site, ce)
                frames.append(_frame(ce, cs, cur_id, cc_state, _act_re))
{obs}
            cur_id = mark_id
            pend_bnd += 1
        else:
            scratch_append((ce, cs, cur_id, _act_unt))
            pend_unt += 1
        top_fn = ce
        pend_calls += 1
        hits += 1
{prof}
        continue"""

#: Targeted mode: the return of a boundary crossing pops its entry.
_TARGETED_RETURN_BLOCK = """\
if act is _act_dep or act is _act_re:
    frames.pop()
    cc = state.ccstack
    cc.pop()
{obs}
    pend_bpop += 1
    cur_id = frame.restore_id
{tail}"""

_KERNEL_TEMPLATE = """\
def {name}(
    events, i, threads_map, pcount, wcalls, deopt,
    entries_get, back_get, mark_id, stats, observe, tracked,
):
    threads_get = threads_map.get
    scratch = []
    scratch_append = scratch.append
    scratch_pop = scratch.pop
    cur_t = -1
    state = None
    frames = None
    cur_id = 0
    top_fn = -1
    pend_calls = pend_rets = pend_id = pend_tc = 0
    pend_push = pend_cmp = pend_pop = pend_bnd = pend_bpop = pend_unt = 0
    hits = 0
    reason = 0
    for op, et, cs, cr, ce, ek in events:
        i += 1
        if op == 0:
            if ek == 0:
                if et != cur_t:
{switch_call}
                entry = entries_get((cs, ce))
                if entry is not None and top_fn == cr:
                    edge = entry[1]
{warm_block}
                    edge.invocations += 1
                    delta = entry[0]
                    if delta:
                        scratch_append((ce, cs, cur_id, _act_id))
                        cur_id += delta
                        pend_id += 1
                    else:
                        scratch_append((ce, cs, cur_id, _act_none))
                    if entry[2]:
                        pend_tc += 1
                    top_fn = ce
                    pend_calls += 1
                    hits += 1
{prof_block}
                    continue
                back = back_get((cs, ce))
                if back is not None and top_fn == cr:
{materialise_back}
                    cc = state.ccstack
                    counters = back[1]
                    counters[0] += 1
                    if cc.top_matches(cur_id, cs, ce):
                        counters[1] += 1
                    cc_state = cc.saved_state()
                    if cc.push(cur_id, cs, ce, back[2]):
                        frames.append(_frame(ce, cs, cur_id, cc_state, _act_cmp))
                        pend_cmp += 1
                    else:
                        frames.append(_frame(ce, cs, cur_id, cc_state, _act_push))
                        pend_push += 1
{obs_push}
                    cur_id = mark_id
                    edge = back[0]
{warm_block}
                    edge.invocations += 1
                    if back[3]:
                        pend_tc += 1
                    top_fn = ce
                    pend_calls += 1
                    hits += 1
{prof_block}
                    continue
{targeted_call}
        elif op == 1:
            if et != cur_t:
{switch_ret}
            if scratch:
                sf = scratch_pop()
                cur_id = sf[2]
                if sf[3] is _act_id:
                    pend_id += 1
                pend_rets += 1
                hits += 1
                top_fn = scratch[-1][0] if scratch else frames[-1].function
                if wcalls + pend_calls >= {interval}:
                    reason = 2
                    break
                continue
            if len(frames) > 1:
                frame = frames[-1]
                if not frame.chain:
                    act = frame.action
                    if {plain_return}:
                        frames.pop()
                        if act is _act_id:
                            pend_id += 1
                        cur_id = frame.restore_id
{return_tail}
                    if act is _act_push or act is _act_cmp:
                        frames.pop()
                        cc = state.ccstack
                        cc.pop()
{obs_pop}
                        pend_pop += 1
                        cur_id = frame.restore_id
{return_tail}
{targeted_return}
{park_miss}
{deopt_miss}
{park_exit}
    return (i, reason, cur_t, {folded}, hits, pcount, {boundary})
"""


def _at(indent: int, block: str) -> str:
    """``block`` indented by ``indent`` spaces (empty stays empty)."""
    return textwrap.indent(block, " " * indent) if block else ""


def cached_kernel(shape: KernelShape) -> Optional[ColumnarKernel]:
    """The process-wide kernel already generated for ``shape``, if any."""
    return _KERNELS.get(shape)


def compile_columnar_kernel(
    shape: KernelShape,
    *,
    frame_factory: Callable[..., Any],
    actions: Any,
) -> ColumnarKernel:
    """``exec`` the dispatch kernel for one engine shape and cache it.

    ``shape`` is ``(warm, profiled, obs, interval, targeted)``: the
    warm-start credit, the sampling countdown, the ccStack-depth
    histogram and the targeted boundary block are present in the source
    only when the feature is live, and the adaptive check interval is an
    inlined literal.  ``frame_factory`` and ``actions`` (the engine's
    ``_Frame`` class and ``_Action`` enum) are process constants.  The
    kernel is stored in the process-wide cache, so every engine of the
    same shape shares it — see ``DacceEngine._ensure_columnar_kernel``.
    """
    warm, profiled, obs, interval, targeted = shape
    name = "_kernel_w%d_p%d_o%d_i%d_t%d" % (
        warm, profiled, obs, interval, targeted,
    )
    return_tail = _RETURN_TAIL.format(interval=interval)
    obs_block = _OBS_BLOCK if obs else ""
    prof_block = _PROF_BLOCK if profiled else ""
    targeted_call = targeted_return = ""
    plain_return = "act is _act_none or act is _act_id"
    deopt_block = _DEOPT_BLOCK.format(
        boundary=", " + _BOUNDARY if targeted else "",
        reset="\npend_bnd = pend_bpop = pend_unt = 0" if targeted else "",
    )
    switch_block = _SWITCH_BLOCK.format(deopt=_at(4, deopt_block))
    if targeted:
        targeted_call = _at(16, _TARGETED_CALL_BLOCK.format(
            materialise=_at(12, _MATERIALISE_BLOCK),
            obs=_at(12, obs_block),
            prof=_at(8, prof_block),
        ))
        targeted_return = _at(20, _TARGETED_RETURN_BLOCK.format(
            obs=_at(4, obs_block),
            tail=_at(4, return_tail),
        ))
        plain_return += " or act is _act_unt"
    source = _KERNEL_TEMPLATE.format(
        name=name,
        interval=interval,
        folded=_FOLDED,
        boundary=_BOUNDARY,
        switch_call=_at(20, switch_block),
        switch_ret=_at(16, switch_block),
        warm_block=_at(20, _WARM_BLOCK if warm else ""),
        prof_block=_at(20, prof_block),
        obs_push=_at(20, obs_block),
        obs_pop=_at(24, obs_block),
        materialise_back=_at(20, _MATERIALISE_BLOCK),
        targeted_call=targeted_call,
        plain_return=plain_return,
        return_tail=_at(24, return_tail),
        targeted_return=targeted_return,
        park_miss=_at(8, _PARK_BLOCK),
        deopt_miss=_at(8, deopt_block),
        park_exit=_at(4, _PARK_BLOCK),
    )
    namespace: Dict[str, Any] = {
        "_frame": frame_factory,
        "_act_none": actions.NONE,
        "_act_id": actions.ID,
        "_act_push": actions.PUSH,
        "_act_cmp": actions.COMPRESS,
        "_act_dep": actions.BOUNDARY_DEP,
        "_act_re": actions.BOUNDARY_RE,
        "_act_unt": actions.UNTRACKED,
        "_untracked_site": UNTRACKED_CALLSITE,
    }
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(source, "<columnar-kernel %s>" % (name,), "exec"),
        namespace,
    )
    kernel = cast(ColumnarKernel, namespace[name])
    _KERNELS[shape] = kernel
    return kernel
