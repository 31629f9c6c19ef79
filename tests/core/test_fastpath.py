"""Unit tests for the hot-path fast lane (PR 4).

Covers the compact event wire format, the compiled
:class:`FastPathTable` (contents, identity-based validity, one compile
per committed dictionary), the subclasses that keep or bypass the
kernel, the :class:`DecodeCache` LRU, and the steady-state hit-rate
gate.
"""

import copy
import dataclasses
import itertools

import pytest

from repro.baselines.globalid import GlobalIdEngine
from repro.baselines.pcce import PcceEngine
from repro.bench.suite import full_suite
from repro.core.adaptive import AdaptiveConfig
from repro.core.context import CallingContext
from repro.core.decoder import DecodeCache
from repro.core.engine import CompressionMode, DacceConfig, DacceEngine
from repro.core.errors import TraceError
from repro.core.events import (
    EV_CALL,
    CallEvent,
    CallKind,
    LibraryLoadEvent,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadStartEvent,
    compact,
    inflate,
)
from repro.core.columnar import EventColumns
from repro.core.faults import FaultPolicy
from repro.core.serialize import decoding_state_to_dict
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import (
    ThreadSpec,
    TraceExecutor,
    WorkloadSpec,
    run_workload_columnar,
)
from repro.static.graph import StaticCallGraph, StaticEdge, StaticFunction
from repro.static.targeted import build_targeted


# ----------------------------------------------------------------------
# compact wire format
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "event",
    [
        CallEvent(thread=3, callsite=7, caller=1, callee=2),
        CallEvent(thread=0, callsite=9, caller=4, callee=4, kind=CallKind.TAIL),
        CallEvent(thread=1, callsite=5, caller=0, callee=8, kind=CallKind.INDIRECT),
        CallEvent(thread=0, callsite=2, caller=0, callee=3, kind=CallKind.PLT),
        ReturnEvent(thread=2),
        SampleEvent(thread=1),
        ThreadStartEvent(thread=4, parent=0, entry=6),
        ThreadExitEvent(thread=4),
        LibraryLoadEvent(thread=0, library="libm.so"),
    ],
)
def test_compact_inflate_roundtrip(event):
    assert inflate(compact(event)) == event


def test_compact_rejects_unknown():
    with pytest.raises(TypeError):
        compact(object())
    with pytest.raises(TypeError):
        inflate((99, 0))


def test_executor_compact_stream_matches_dataclass_stream():
    program = generate_program(GeneratorConfig(seed=11, functions=30, edges=70))
    spec = WorkloadSpec(calls=2000, seed=4, recursion_affinity=0.3)
    compact_stream = list(TraceExecutor(program, spec).compact_events())
    dataclass_stream = list(TraceExecutor(program, spec).events())
    assert [inflate(r) for r in compact_stream] == dataclass_stream


# ----------------------------------------------------------------------
# FastPathTable
# ----------------------------------------------------------------------
def _run_engine(calls=4000, **config):
    program = generate_program(GeneratorConfig(seed=9, functions=30, edges=80))
    spec = WorkloadSpec(calls=calls, seed=3, **config)
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    return engine


def test_table_holds_encoded_forward_edges_of_the_kinds_its_maps_answer():
    program = generate_program(
        GeneratorConfig(
            seed=9, functions=30, edges=80, indirect_fraction=0.4,
            indirect_targets=(2, 6),
        )
    )
    # Sites with more than two targets are hashed, the rest inline.
    engine = DacceEngine(config=DacceConfig(hash_threshold=2))
    run_workload_columnar(program, WorkloadSpec(calls=4000, seed=3), engine)
    engine.reencode()
    table = engine._ensure_fastpath()
    current = engine._current
    tail_set = engine._tail_calling_functions
    # NORMAL and PLT calls probe ``entries``.
    kinds = set()
    for (callsite, callee), (delta, edge, tail) in table.entries.items():
        kinds.add(edge.kind)
        assert (edge.callsite, edge.callee) == (callsite, callee)
        assert not edge.is_back
        assert delta == current.encoding(callsite, callee)
        assert tail == (callee in tail_set)
    assert kinds == {CallKind.NORMAL, CallKind.PLT}
    # INDIRECT calls probe ``indirect_entries``: only patched targets,
    # costed as the site's dispatch would charge the hit.
    strategies = set()
    for key, entry in table.indirect_entries.items():
        delta, edge, tail, site, comparisons, hashed = entry
        assert edge.kind is CallKind.INDIRECT and not edge.is_back
        assert (edge.callsite, edge.callee) == key
        assert delta == current.encoding(*key)
        assert tail == (edge.callee in tail_set)
        assert site is engine.indirect.get(edge.callsite)
        assert edge.callee in site.order
        result = copy.deepcopy(site).dispatch(edge.callee)
        assert result.hit
        assert (comparisons, hashed) == (result.comparisons, result.hashed)
        strategies.add(hashed)
    assert strategies == {False, True}
    assert len(table) == engine.fastpath_stats()["table_entries"] == (
        len(table.entries) + len(table.indirect_entries) + len(table.back_entries)
    )


def test_table_validity_is_dictionary_identity():
    engine = _run_engine()
    table = engine._ensure_fastpath()
    assert table.valid_for(engine._current, len(engine._tail_calling_functions))
    old_dictionary = engine._current
    assert engine.reencode()
    # Committed pass: new dictionary object, old table stale.
    assert not table.valid_for(
        engine._current, len(engine._tail_calling_functions)
    )
    # The old object would validate again (rollback restores it).
    assert table.valid_for(old_dictionary, table.tail_set_size)
    rebuilt = engine._ensure_fastpath()
    assert rebuilt is not table
    assert rebuilt.valid_for(
        engine._current, len(engine._tail_calling_functions)
    )


def test_process_batch_is_process_columns_over_compact_records():
    program = generate_program(GeneratorConfig(seed=9, functions=30, edges=80))
    spec = WorkloadSpec(calls=4000, seed=3, sample_period=50)
    records = list(TraceExecutor(program, spec).compact_events())

    def observed(engine):
        return (
            decoding_state_to_dict(engine),
            engine.stats,
            engine.samples,
            dataclasses.asdict(engine.cost.report),
            engine.stats_snapshot(),
        )

    batched = DacceEngine()
    columnar = DacceEngine()
    for start in range(0, len(records), 1000):
        part = records[start : start + 1000]
        batched.process_batch(part)
        columnar.process_columns(EventColumns.from_compact(part))
    assert batched.stats.reencodings > 0
    assert observed(batched) == observed(columnar)


# ----------------------------------------------------------------------
# subclasses
# ----------------------------------------------------------------------
def _threaded_stream():
    program = generate_program(GeneratorConfig(seed=4, functions=30, edges=80))
    spec = WorkloadSpec(
        calls=3000,
        seed=6,
        sample_period=41,
        threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=100)],
    )
    return list(TraceExecutor(program, spec).compact_events())


def test_baseline_with_overridden_handlers_disables_fastpath():
    # GlobalIdEngine shares one id across threads in on_call/on_return,
    # which the kernel would bypass: its columns go through per-event
    # dispatch and equal it exactly.
    records = _threaded_stream()
    per_event = GlobalIdEngine()
    for record in records:
        per_event.on_event(inflate(record))
    columnar = GlobalIdEngine()
    for start in range(0, len(records), 500):
        columnar.process_columns(
            EventColumns.from_compact(records[start : start + 500])
        )
    assert per_event.stats.calls > 0
    assert decoding_state_to_dict(columnar) == decoding_state_to_dict(per_event)
    assert columnar.stats == per_event.stats
    assert columnar.samples == per_event.samples
    assert columnar.fastpath.batches == 0
    assert columnar.fastpath_stats()["enabled"] is False


def test_pcce_subclass_keeps_fastpath():
    # PcceEngine only overrides discovery/runtime-handler hooks, none of
    # which the kernel bypasses.
    program = generate_program(GeneratorConfig(seed=3, functions=12, edges=20))
    engine = PcceEngine(program)
    run_workload_columnar(program, WorkloadSpec(calls=2000, seed=1), engine)
    assert engine.fastpath.batches >= 1
    assert engine.fastpath.hits > 0
    assert engine.fastpath_stats()["enabled"] is True


def test_one_table_compile_per_committed_dictionary():
    """root -> 1 -> 2 -> 3 and back, twice, between re-encoding passes."""

    def chain_columns():
        cols = EventColumns()
        for _ in range(2):
            for caller in range(3):
                cols.push_call(0, 10 + caller, caller, caller + 1)
            for _ in range(3):
                cols.push_return(0)
        return cols

    engine = DacceEngine(root=0)
    engine.process_columns(chain_columns())
    engine.reencode()
    engine.process_columns(chain_columns())
    engine.reencode()
    engine.process_columns(chain_columns())
    assert engine.fastpath.compiles == 3  # one table per dictionary
    assert engine.fastpath.hits > 0


# ----------------------------------------------------------------------
# steady-state hit rate (the fast-path gate)
# ----------------------------------------------------------------------
def test_steady_state_hit_rate_above_90_percent():
    program = generate_program(
        GeneratorConfig(
            seed=5,
            functions=40,
            edges=100,
            indirect_fraction=0.0,
            tail_fraction=0.0,
            recursive_sites=0,
            library_functions=0,
        )
    )
    spec = WorkloadSpec(
        calls=6000, seed=2, sample_period=0, recursion_affinity=0.0
    )
    engine = DacceEngine()
    # Warm up: discover and encode every edge, then measure a second run.
    run_workload_columnar(program, spec, engine)
    engine.reencode()
    engine.fastpath.hits = engine.fastpath.misses = 0
    run_workload_columnar(program, spec, engine)
    # The kernel engaged (at least one table compile) and absorbed the
    # steady state itself rather than deoptimising to the general path.
    assert engine.fastpath.compiles >= 1, engine.fastpath_stats()
    assert engine.fastpath.hit_rate > 0.90, engine.fastpath_stats()


def test_x264_shaped_indirect_and_plt_calls_stay_on_the_kernel():
    # The pipeline benchmark's synthetic_x264 program, pinned as
    # benchmarks/pipeline/workloads.py pins it, at 15% of its calls:
    # 82% of its calls are INDIRECT and 3% PLT.  After a warm-up pass,
    # inline-cache and hash-table hits over encoded edges and bound PLT
    # calls run in the kernel: the misses left are samples, thread
    # events and the discoveries of each workload phase.
    bench = full_suite().get("x264")
    program = generate_program(
        dataclasses.replace(bench.generator_config(1.0), seed=1000)
    )
    spec = dataclasses.replace(bench.workload_spec(calls=30_000, seed=1), seed=1)
    records = list(TraceExecutor(program, spec).compact_events())
    per_event = DacceEngine(root=program.main)
    columnar = DacceEngine(root=program.main)
    for run in range(2):
        if run:
            columnar.fastpath.hits = columnar.fastpath.misses = 0
        for record in records:
            per_event.on_event(inflate(record))
        for start in range(0, len(records), 4096):
            columnar.process_columns(
                EventColumns.from_compact(records[start : start + 4096])
            )
    assert columnar.fastpath.hit_rate >= 0.95, columnar.fastpath_stats()
    assert columnar.cost.report == per_event.cost.report
    snapshot = columnar.stats_snapshot()
    expected = per_event.stats_snapshot()
    # Only the specialisation counters may differ.
    snapshot.pop("fastpath")
    expected.pop("fastpath")
    assert snapshot == expected


# ----------------------------------------------------------------------
# DecodeCache
# ----------------------------------------------------------------------
def test_decode_cache_lru_eviction_and_counters():
    cache = DecodeCache(capacity=2)
    a, b, c = (CallingContext(()) for _ in range(3))
    assert cache.get(("k1", True, True)) is None
    cache.put(("k1", True, True), a)
    cache.put(("k2", True, True), b)
    assert cache.get(("k1", True, True)) is a  # k1 now most-recent
    cache.put(("k3", True, True), c)  # evicts k2 (least-recent)
    assert cache.get(("k2", True, True)) is None
    assert cache.get(("k1", True, True)) is a
    assert cache.get(("k3", True, True)) is c
    assert cache.hits == 3 and cache.misses == 2
    assert cache.hit_rate == pytest.approx(0.6)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0


def test_decode_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        DecodeCache(capacity=0)


def test_engine_decoder_shares_cache_across_samples():
    program = generate_program(GeneratorConfig(seed=9, functions=30, edges=80))
    spec = WorkloadSpec(calls=4000, seed=3, sample_period=50)
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    decoder = engine.decoder()
    uncached = [decoder._decode_uncached(s, True, True) for s in engine.samples]
    first = [decoder.decode(s) for s in engine.samples]
    again = [decoder.decode(s) for s in engine.samples]
    assert first == again == uncached
    stats = engine.stats_snapshot()["decode_cache"]
    assert stats["hits"] >= len(engine.samples)  # second pass all hits
    assert stats["entries"] <= stats["capacity"]


# ----------------------------------------------------------------------
# columnar dispatch (PR 9)
# ----------------------------------------------------------------------
def test_process_columns_empty_batch_is_noop():
    engine = DacceEngine()
    engine.process_columns(EventColumns())
    assert engine.stats.calls == 0
    assert engine.fastpath.batches == 0


def test_process_columns_fallback_without_fastpath():
    engine = GlobalIdEngine()
    events = [CallEvent(0, 1, engine.graph.root, 1), ReturnEvent(0)]
    engine.process_columns(EventColumns.from_compact([compact(e) for e in events]))
    # Per-event dispatch — processed, no fast-path counters.
    assert engine.stats.calls == 1 and engine.stats.returns == 1
    assert engine.fastpath.hits == engine.fastpath.misses == 0
    assert engine.fastpath.batches == 0


def test_process_columns_releases_views():
    """The batch is appendable again after processing (views released)."""
    engine = _run_engine()
    cols = EventColumns()
    cols.push_call(0, 1, engine.graph.root, 1)
    cols.push_return(0)
    engine.process_columns(cols)
    cols.clear()
    cols.push_return(0)  # would raise BufferError if views leaked
    assert len(cols) == 1


def test_process_columns_recompiles_after_reencode():
    engine = _run_engine()
    compiles_before = engine.fastpath.compiles
    engine.reencode()
    cols = EventColumns.from_compact(
        [(EV_CALL, 0, 1, engine.graph.root, 1, 0)]
    )
    engine.process_columns(cols)
    assert engine.fastpath.compiles > compiles_before


# ----------------------------------------------------------------------
# the trace-error backstop behind the kernel
# ----------------------------------------------------------------------
def _thread_states(engine):
    """Per-thread id, frames, ccStack entries, depth and counters."""
    return {
        thread: (
            state.id_value,
            list(state.frames),
            state.ccstack.entries(),
            state.ccstack.depth(),
            state.ccstack.stats,
        )
        for thread, state in engine._threads.items()
    }


def _end_state(engine):
    return (
        decoding_state_to_dict(engine),
        engine.stats,
        engine.ccstack_stats(),
        dataclasses.asdict(engine.cost.report),
        [record.to_dict() for record in engine.faults.records()],
        engine.policy.recursion_pushes,
        _thread_states(engine),
    )


def _fail_mid_apply(engine, callsite):
    """Make ``engine``'s general path raise a ``TraceError`` mid-apply
    on a call at ``callsite``: after ``_push_unencoded`` has pushed the
    ccStack and set the id, before the call's frame exists.  Key it on
    a first-seen edge, which misses in the kernel too, so both drivers
    fail on the same event."""
    push = engine._push_unencoded

    def failing(state, event, edge):
        action = push(state, event, edge)
        if event.callsite == callsite:
            raise TraceError("injected fault at call site %d" % callsite)
        return action

    engine._push_unencoded = failing


def _run_trap(make_engine, events, columnar):
    """Run ``events`` per event or as one column batch.

    Returns the engine and the ``TraceError`` message, if one escaped.
    """
    engine = make_engine()
    try:
        if columnar:
            engine.process_columns(
                EventColumns.from_compact([compact(e) for e in events])
            )
        else:
            for event in events:
                engine.on_event(event)
    except TraceError as error:
        return engine, str(error)
    return engine, None


def _assert_trap_parity(make_engine, events, policy):
    per_event, raised = _run_trap(make_engine, events, columnar=False)
    columnar, raised_columnar = _run_trap(make_engine, events, columnar=True)
    assert columnar.fastpath.hits > 0  # the kernel ran up to the failure
    if policy is FaultPolicy.STRICT:
        assert raised is not None and "injected fault" in raised
        assert raised_columnar == raised
    else:
        assert raised is None and raised_columnar is None
        kinds = [record.kind.value for record in per_event.faults.records()]
        assert kinds == ["trace-error"], kinds
        # Resynchronised from its frames, the thread unwinds to a clean
        # root: the failed call's half-applied push is gone.
        thread = columnar._threads[0]
        assert (thread.id_value, thread.ccstack.entries(), len(thread.frames)) == (
            0, [], 1,
        )
    assert _end_state(columnar) == _end_state(per_event)


@pytest.mark.faultinject
@pytest.mark.parametrize("policy", [FaultPolicy.RECOVER, FaultPolicy.STRICT])
def test_error_after_back_edge_hits_matches_per_event(policy):
    # 0 -> 1 -> 1 -> 1 runs in the kernel (two back-edge pushes); the
    # first-seen edge 1 -> 2 at site 12 fails in the general path.
    warmup = [
        CallEvent(0, 10, 0, 1),
        CallEvent(0, 11, 1, 1),
        ReturnEvent(0),
        ReturnEvent(0),
    ]
    trap = [
        CallEvent(0, 10, 0, 1),
        CallEvent(0, 11, 1, 1),
        CallEvent(0, 11, 1, 1),
        CallEvent(0, 12, 1, 2),
        ReturnEvent(0),
        ReturnEvent(0),
        ReturnEvent(0),
        CallEvent(0, 10, 0, 1),
        ReturnEvent(0),
    ]

    def make_engine():
        engine = DacceEngine(root=0, config=DacceConfig(fault_policy=policy))
        for event in warmup:
            engine.on_event(event)
        assert engine.reencode()
        assert engine._ensure_fastpath().back_entries
        _fail_mid_apply(engine, 12)
        return engine

    _assert_trap_parity(make_engine, trap, policy)


def _boundary_plan():
    """main(0) -> a(1) -> sink(2) tracked; noise(3) outside the plan."""
    graph = StaticCallGraph(root=0)
    for fid, name in enumerate(["main", "a", "sink", "noise"]):
        graph.add_function(StaticFunction(id=fid, qualname=name, module="m"))
    graph.add_edge(StaticEdge(caller=0, callee=1, callsite=1))
    graph.add_edge(StaticEdge(caller=1, callee=2, callsite=2))
    graph.add_edge(StaticEdge(caller=0, callee=3, callsite=3))
    return build_targeted(graph, ["sink"])


@pytest.mark.faultinject
@pytest.mark.parametrize("policy", [FaultPolicy.RECOVER, FaultPolicy.STRICT])
def test_error_after_boundary_hits_matches_per_event(policy):
    # The departure main -> noise and the re-entry noise -> a push in
    # the kernel; a -> sink at site 6, a tracked edge the plan lacks,
    # fails in the general path.
    trap = [
        CallEvent(0, 1, 0, 1),
        CallEvent(0, 2, 1, 2),
        ReturnEvent(0),
        ReturnEvent(0),
        CallEvent(0, 3, 0, 3),
        CallEvent(0, 5, 3, 1),
        CallEvent(0, 6, 1, 2),
        ReturnEvent(0),
        ReturnEvent(0),
        CallEvent(0, 1, 0, 1),
        ReturnEvent(0),
    ]

    def make_engine():
        engine = DacceEngine(
            targeted=_boundary_plan(), config=DacceConfig(fault_policy=policy)
        )
        _fail_mid_apply(engine, 6)
        return engine

    _assert_trap_parity(make_engine, trap, policy)


# ----------------------------------------------------------------------
# the kernel's ccStack checkpoint
# ----------------------------------------------------------------------
def test_kernel_checkpoints_match_per_event_through_tail_chain_restores():
    # main(0) -> f(1) over site 10, f -> f over the back edge at site 11
    # and f -> g(2) over site 12 are kernel hits; g tail-calls h(3) at
    # site 13, which deoptimises.  The kernel pushes every frame with
    # its checkpoint local, and the TcStack restore of a chain's return
    # reads the checkpoint the kernel stored in the chain head's frame,
    # so a checkpoint the kernel got wrong moves the ccStack itself.
    tail = CallKind.TAIL
    warmup = [
        CallEvent(0, 10, 0, 1),
        CallEvent(0, 11, 1, 1),
        CallEvent(0, 12, 1, 2),
        CallEvent(0, 13, 2, 3, kind=tail),
        ReturnEvent(0),
        ReturnEvent(0),
        ReturnEvent(0),
    ]
    events = [
        CallEvent(0, 10, 0, 1),  # encoded
        CallEvent(0, 11, 1, 1),  # push
        CallEvent(0, 11, 1, 1),  # push (a new id)
        CallEvent(0, 11, 1, 1),  # compress
        CallEvent(0, 12, 1, 2),  # encoded, above the compression
        CallEvent(0, 13, 2, 3, kind=tail),  # deopt: chain head g
        ReturnEvent(0),  # the chain's return restores g's checkpoint
        ReturnEvent(0),  # the decompressing return
        CallEvent(0, 12, 1, 2),  # encoded, below the compression
        CallEvent(0, 13, 2, 3, kind=tail),
        ReturnEvent(0),
        ReturnEvent(0),
        ReturnEvent(0),
        ReturnEvent(0),
    ]
    config = DacceConfig(compression=CompressionMode.ALWAYS)

    def make_engine():
        engine = DacceEngine(root=0, config=config)
        for event in warmup:
            engine.on_event(event)
        assert engine.reencode()
        table = engine._ensure_fastpath()
        assert set(table.entries) == {(10, 1), (12, 2)}
        assert set(table.back_entries) == {(11, 1)}
        return engine

    def observed(engine):
        return (
            _thread_states(engine),
            engine.ccstack_stats(),
            dataclasses.asdict(engine.cost.report),
        )

    per_event = make_engine()
    columnar = make_engine()
    start = 0
    # Each slab ends with frames live: after the encoded call above the
    # compression, after the one below it, and at the end.
    for end in (5, 9, len(events)):
        for event in events[start:end]:
            per_event.on_event(event)
        columnar.process_columns(
            EventColumns.from_compact([compact(e) for e in events[start:end]])
        )
        assert observed(columnar) == observed(per_event), end
        start = end
    assert per_event.stats.tail_calls == 3
    assert columnar.ccstack_stats()["compressions"] == 1
    # Only the tail calls and the chains' returns left the kernel.
    assert (columnar.fastpath.hits, columnar.fastpath.misses) == (10, 4)


# ----------------------------------------------------------------------
# stay ends
# ----------------------------------------------------------------------
def _alternating_stream():
    """A two-thread stream whose threads alternate on every event.

    The executor's per-thread event sequences are interleaved one event
    at a time, so every kernel stay on a thread is a single event long
    and ends in a thread switch: the most stay ends a stream can have.
    """
    program = generate_program(GeneratorConfig(seed=4, functions=30, edges=80))
    spec = WorkloadSpec(
        calls=3000,
        seed=6,
        sample_period=41,
        recursion_affinity=0.5,
        threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=1)],
    )
    per_thread = {}
    for record in TraceExecutor(program, spec).compact_events():
        per_thread.setdefault(record[1], []).append(record)
    assert sorted(per_thread) == [0, 1]
    return [
        record
        for pair in itertools.zip_longest(per_thread[0], per_thread[1])
        for record in pair
        if record is not None
    ]


def test_alternating_threads_flush_exactly_at_every_stay_end():
    records = _alternating_stream()
    config = DacceConfig(adaptive=AdaptiveConfig(check_interval=64))

    def observed(engine):
        return (
            engine.stats,
            dataclasses.asdict(engine.cost.report),
            engine.ccstack_stats(),
            _thread_states(engine),
            [
                {k: v for k, v in report.to_dict().items() if k != "duration_seconds"}
                for report in engine.reencode_passes
            ],
        )

    per_event = DacceEngine(config=config)
    for record in records:
        per_event.on_event(inflate(record))
    columnar = DacceEngine(config=config)
    for start in range(0, len(records), 500):
        columnar.process_columns(
            EventColumns.from_compact(records[start : start + 500])
        )
    switches = sum(a[1] != b[1] for a, b in zip(records, records[1:]))
    assert switches > len(records) // 2
    assert columnar.fastpath.hits > columnar.fastpath.misses
    assert columnar.stats.back_edge_calls > 0
    assert columnar.stats.reencodings > 0
    assert observed(columnar) == observed(per_event)
