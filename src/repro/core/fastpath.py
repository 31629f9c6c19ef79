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
``gTimeStamp``.  Anything the table cannot prove cheap (an unencoded or
back edge, an indirect/tail/PLT call, a sample, a thread event, a
fault-policy recovery) misses and deoptimises to the existing general
path, so behaviour is identical and only speed changes.

Invalidation is by identity: a table is valid exactly while the engine's
current dictionary is the *object* it was compiled from and the
tail-caller set has not grown.  Re-encoding replaces the dictionary
object (and a rolled-back pass restores the previous object, for which
the previous table is still exact), so transactional re-encoding and
warm-start seeding (PR 2/PR 3) need no extra hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Tuple, cast

from .events import CallKind, CallSiteId, FunctionId

if TYPE_CHECKING:
    from .callgraph import CallEdge
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
    """

    __slots__ = ("entries", "dictionary", "tail_set_size")

    def __init__(
        self,
        entries: Dict[FastPathKey, FastPathEntry],
        dictionary: "EncodingDictionary",
        tail_set_size: int,
    ):
        self.entries = entries
        self.dictionary = dictionary
        self.tail_set_size = tail_set_size

    def __len__(self) -> int:
        return len(self.entries)

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


def compile_table(graph, dictionary, tail_calling_functions) -> FastPathTable:
    """Compile the fast-path table for one dictionary snapshot.

    O(edges) — the same order as one re-encoding pass, and compiled at
    most once per (dictionary, tail-set) state, so compilation cost is
    bounded by the adaptive machinery that triggered it.
    """
    entries: Dict[FastPathKey, FastPathEntry] = {}
    for edge in graph.edges():
        if edge.kind is not CallKind.NORMAL or edge.is_back:
            continue
        encoding = dictionary.encoding(edge.callsite, edge.callee)
        if encoding is None:
            continue
        entries[(edge.callsite, edge.callee)] = (
            encoding,
            edge,
            edge.callee in tail_calling_functions,
        )
    return FastPathTable(entries, dictionary, len(tail_calling_functions))


# ----------------------------------------------------------------------
# code-generated columnar dispatch
# ----------------------------------------------------------------------
# ``DacceEngine.process_columns`` drives struct-of-arrays batches
# (:mod:`repro.core.columnar`) through a *code-generated* kernel: each
# time a :class:`FastPathTable` is compiled, the engine ``exec``s a
# specialised dispatch function with the table's entry dict bound as a
# closure constant and the current engine shape (warm-start seeding
# present?  sampling hook installed?  adaptive check interval) compiled
# directly into the source — branches for absent features do not exist
# in the generated bytecode.  The per-thread id register, the logical
# top-of-stack function and the sampling countdown live in interpreter
# locals, so the steady-state inner loop is one dict probe plus one
# integer add over raw integer columns.
#
# Frames for hot calls are *deferred*: the kernel pushes lightweight
# scratch tuples and only materialises real ``_Frame`` objects when it
# leaves a thread (deopt, thread switch, exit).  This is sound because
# nothing observes ``state.frames`` between hot events, the ccStack never
# mutates on the hit path (so one ``saved_state()`` taken when the kernel
# leaves the thread is exact for every deferred frame), and a call/return
# pair wholly inside one kernel run never needs its frame at all.
#
# Deopts stay inside the kernel.  On a miss it materialises its scratch
# frames, writes the id register back and calls the per-batch ``deopt``
# closure it was handed, which flushes the folded counters, runs the
# general path on that one event and returns ``(window calls, sample
# countdown, stale)``; the kernel then re-switches onto the event
# thread and keeps going.  ``stale`` is true when the general path
# changed what the kernel was compiled against (the dictionary, the
# tail-caller set or the sampling shape).
#
# Exit protocol: the kernel consumes a shared iterator over the batch's
# column views and returns ``(i, reason, thread, calls, returns,
# id_updates, tcstack, hits, countdown)`` after materialising scratch
# frames and writing the id register back.  ``i`` is the index of the
# last event consumed (pass it back in to resume); ``reason`` is one of
# the ``KERNEL_*`` codes below.

#: Exit reasons of a generated kernel run.
KERNEL_DONE = 0  #: every event consumed
KERNEL_SAMPLE = 1  #: sampling countdown hit zero after a call
KERNEL_TRIGGER = 2  #: adaptive window filled after a return
KERNEL_STALE = 3  #: a general-path event invalidated the kernel

#: ``deopt(i, calls, returns, id_updates, tcstack, hits, countdown)`` →
#: ``(window_calls, countdown, stale)``.
DeoptHandler = Callable[[int, int, int, int, int, int, int], Tuple[int, int, bool]]

#: ``kernel(events, i, threads, countdown, window_calls, deopt)`` →
#: ``(i, reason, thread, calls, returns, id_updates, tcstack, hits,
#: countdown)``.
ColumnarKernel = Callable[
    [Iterator[Tuple[int, ...]], int, Dict[int, Any], int, int, DeoptHandler],
    Tuple[int, ...],
]

#: Leave the current thread: materialise deferred frames, write back id.
_PARK_BLOCK = """\
{i}if state is not None:
{i}    if scratch:
{i}        cc_state = state.ccstack.saved_state()
{i}        frames_append = frames.append
{i}        for sf in scratch:
{i}            frames_append(_frame(sf[0], sf[1], sf[2], cc_state, sf[3]))
{i}        del scratch[:]
{i}    state.id_value = cur_id
{i}    state = None"""

#: Hand event ``i`` to the general path (the thread is already parked).
_DEOPT_BLOCK = """\
{i}cur_t = -1
{i}wcalls, pcount, stale = deopt(
{i}    i, pend_calls, pend_rets, pend_id, pend_tc, hits, pcount
{i})
{i}pend_calls = pend_rets = pend_id = pend_tc = hits = 0
{i}if stale:
{i}    reason = 3
{i}    break"""

_SWITCH_BLOCK = """\
{park}
{i}ns = threads_get(et)
{i}if ns is None:
{deopt}
{i}    continue
{i}cur_t = et
{i}state = ns
{i}frames = ns.frames
{i}cur_id = ns.id_value
{i}top_fn = frames[-1].function"""

_WARM_BLOCK = """\
                    if not edge.invocations and edge.seeded:
                        _stats.warmstart_handler_hits_avoided += 1"""

_PROF_BLOCK = """\
                    pcount -= 1
                    if pcount <= 0:
                        reason = 1
                        break"""

_KERNEL_TEMPLATE = """\
def {name}(events, i, threads_map, pcount, wcalls, deopt):
    threads_get = threads_map.get
    entries_get = _entries_get
    scratch = []
    scratch_append = scratch.append
    scratch_pop = scratch.pop
    cur_t = -1
    state = None
    frames = None
    cur_id = 0
    top_fn = -1
    pend_calls = 0
    pend_rets = 0
    pend_id = 0
    pend_tc = 0
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
                act = frame.action
                if (act is _act_none or act is _act_id) and not frame.chain:
                    frames.pop()
                    if act is _act_id:
                        pend_id += 1
                    cur_id = frame.restore_id
                    pend_rets += 1
                    hits += 1
                    top_fn = frames[-1].function
                    if wcalls + pend_calls >= {interval}:
                        reason = 2
                        break
                    continue
{park_miss}
{deopt_miss}
{park_exit}
    return (
        i,
        reason,
        cur_t,
        pend_calls,
        pend_rets,
        pend_id,
        pend_tc,
        hits,
        pcount,
    )
"""


def _switch_block(indent: int) -> str:
    i = " " * indent
    return _SWITCH_BLOCK.format(
        i=i,
        park=_PARK_BLOCK.format(i=i),
        deopt=_DEOPT_BLOCK.format(i=i + "    "),
    )


def compile_columnar_kernel(
    table: FastPathTable,
    *,
    gts: int,
    frame_factory: Callable[..., Any],
    action_none: Any,
    action_id: Any,
    stats: Any,
    warm: bool,
    profiled: bool,
    interval: int,
) -> ColumnarKernel:
    """``exec`` a dispatch kernel specialised for one engine epoch.

    ``gts`` only names the generated function (``_kernel_gts<N>``) so
    profiles and tracebacks identify which encoding epoch a kernel
    belongs to; the real specialisation constants are the table's entry
    dict (closure constant), ``warm``/``profiled`` (their branches are
    present in the source only when the feature is live) and
    ``interval`` (inlined literal).  The engine recompiles whenever the
    table or any shape input changes — see
    ``DacceEngine._ensure_columnar_kernel``.
    """
    name = "_kernel_gts%d" % (gts,)
    source = _KERNEL_TEMPLATE.format(
        name=name,
        interval=interval,
        switch_call=_switch_block(20),
        switch_ret=_switch_block(16),
        warm_block=_WARM_BLOCK if warm else "",
        prof_block=_PROF_BLOCK if profiled else "",
        park_miss=_PARK_BLOCK.format(i=" " * 8),
        deopt_miss=_DEOPT_BLOCK.format(i=" " * 8),
        park_exit=_PARK_BLOCK.format(i=" " * 4),
    )
    namespace: Dict[str, Any] = {
        "_entries_get": table.entries.get,
        "_frame": frame_factory,
        "_act_none": action_none,
        "_act_id": action_id,
        "_stats": stats,
    }
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(source, "<columnar-kernel gts=%d>" % (gts,), "exec"),
        namespace,
    )
    return cast(ColumnarKernel, namespace[name])
