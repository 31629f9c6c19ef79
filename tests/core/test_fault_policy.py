"""Deterministic fault-policy tests: quarantine semantics per fault class.

The hand-built streams make each malformed-event class hit its specific
recovery path; the hypothesis sweeps live in ``tests/faultinject``.
"""

import dataclasses

import pytest

from repro.core.engine import DacceConfig, DacceEngine
from repro.core.errors import StaleDictionaryError, TraceError
from repro.core.events import (
    CallEvent,
    CallKind,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadStartEvent,
)
from repro.core.faults import (
    FaultKind,
    FaultLog,
    FaultPolicy,
    FaultRecord,
    RecoveryAction,
)
from tests.conftest import A, B, C, D, EngineDriver


@pytest.fixture
def recover_engine():
    return DacceEngine(
        root=A, config=DacceConfig(fault_policy=FaultPolicy.RECOVER)
    )


@pytest.fixture
def rdriver(recover_engine):
    return EngineDriver(recover_engine)


# ----------------------------------------------------------------------
# thread-exit-then-sample race (regression)
# ----------------------------------------------------------------------
def test_sample_after_thread_exit_strict_raises_structured():
    engine = DacceEngine(root=A)
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=B))
    engine.on_event(ThreadExitEvent(thread=1))
    with pytest.raises(TraceError) as info:
        engine.on_event(SampleEvent(thread=1))
    assert info.value.thread == 1
    assert info.value.reason == "unknown-thread"
    assert info.value.gts == engine.timestamp


def test_sample_after_thread_exit_recover_quarantines(recover_engine):
    engine = recover_engine
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=B))
    engine.on_event(ThreadExitEvent(thread=1))
    engine.on_event(SampleEvent(thread=1))  # must not raise
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.UNKNOWN_THREAD
    assert record.thread == 1
    assert record.recovery is RecoveryAction.DROPPED
    assert engine.stats.samples == 0
    # Thread 0 is unaffected.
    assert engine.on_sample(SampleEvent(thread=0)).context_id == 0


# ----------------------------------------------------------------------
# per-class quarantine semantics
# ----------------------------------------------------------------------
def test_caller_mismatch_unwinds_missed_returns(rdriver):
    engine = rdriver.engine
    rdriver.call(B)
    rdriver.call(C)
    # The instrumentation "missed" C's and B's returns: the next call
    # claims A as caller while the engine believes it is inside C.
    engine.on_event(CallEvent(thread=0, callsite=77, caller=A, callee=D))
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.CALLER_MISMATCH
    assert record.recovery is RecoveryAction.UNWOUND
    assert record.detail["dropped_frames"] == 2
    # The call was applied after the unwind; state decodes as A -> D.
    sample = engine.on_sample(SampleEvent(thread=0))
    context = engine.decoder().decode(sample)
    assert [s.function for s in context.steps] == [A, D]


def test_caller_mismatch_with_unknown_caller_drops_event(rdriver):
    engine = rdriver.engine
    rdriver.call(B)
    engine.on_event(
        CallEvent(thread=0, callsite=88, caller=999, callee=C)
    )
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.CALLER_MISMATCH
    assert record.recovery is RecoveryAction.DROPPED
    assert record.detail["expected_function"] == B
    # Shadow state untouched: still inside B.
    sample = engine.on_sample(SampleEvent(thread=0))
    context = engine.decoder().decode(sample)
    assert [s.function for s in context.steps] == [A, B]


def test_return_from_bottom_frame_quarantined(recover_engine):
    engine = recover_engine
    engine.on_event(ReturnEvent(thread=0))
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.RETURN_BOTTOM
    assert engine.live_threads() == [0]


def test_tail_call_from_bottom_frame_quarantined(recover_engine):
    engine = recover_engine
    engine.on_event(
        CallEvent(thread=0, callsite=5, caller=A, callee=B, kind=CallKind.TAIL)
    )
    assert engine.faults.records()[-1].kind is FaultKind.TAIL_BOTTOM
    sample = engine.on_sample(SampleEvent(thread=0))
    assert [s.function for s in engine.decoder().decode(sample).steps] == [A]


def test_duplicate_thread_start_quarantined(recover_engine):
    engine = recover_engine
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=B))
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=C))
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.DUPLICATE_THREAD
    # First start wins; thread 1 still decodes through entry B.
    sample = engine.on_sample(SampleEvent(thread=1))
    steps = engine.decoder().decode(sample).steps
    assert steps[-1].function == B


def test_thread_exit_with_live_frames_unwinds(recover_engine):
    engine = recover_engine
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=B))
    engine.on_event(CallEvent(thread=1, callsite=9, caller=B, callee=C))
    engine.on_event(ThreadExitEvent(thread=1))  # C never returned
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.THREAD_EXIT_LIVE_FRAMES
    assert record.recovery is RecoveryAction.UNWOUND
    assert 1 not in engine.live_threads()


def test_unknown_event_quarantined(recover_engine):
    recover_engine.on_event(object())
    assert recover_engine.faults.records()[-1].kind is FaultKind.UNKNOWN_EVENT


def test_strict_unknown_event_raises():
    engine = DacceEngine(root=A)
    with pytest.raises(TraceError) as info:
        engine.on_event(object())
    assert info.value.event is not None


# ----------------------------------------------------------------------
# one check per fault class, shared by both policies
# ----------------------------------------------------------------------
_SPAWN = ThreadStartEvent(thread=1, parent=0, entry=B)

#: ``id -> (setup events, faulting event, FaultKind recover records)``.
FAULT_CASES = {
    "call-unknown-thread": (
        [],
        CallEvent(thread=9, callsite=1, caller=A, callee=B),
        FaultKind.UNKNOWN_THREAD,
    ),
    "caller-mismatch-dropped": (
        [CallEvent(thread=0, callsite=1, caller=A, callee=B)],
        CallEvent(thread=0, callsite=2, caller=D, callee=C),
        FaultKind.CALLER_MISMATCH,
    ),
    "caller-mismatch-unwound": (
        [
            CallEvent(thread=0, callsite=1, caller=A, callee=B),
            CallEvent(thread=0, callsite=2, caller=B, callee=C),
        ],
        CallEvent(thread=0, callsite=3, caller=A, callee=D),
        FaultKind.CALLER_MISMATCH,
    ),
    "tail-bottom": (
        [CallEvent(thread=0, callsite=1, caller=A, callee=B),
         ReturnEvent(thread=0)],
        CallEvent(thread=0, callsite=4, caller=A, callee=C, kind=CallKind.TAIL),
        FaultKind.TAIL_BOTTOM,
    ),
    "return-unknown-thread": (
        [], ReturnEvent(thread=9), FaultKind.UNKNOWN_THREAD,
    ),
    "return-bottom": (
        [CallEvent(thread=0, callsite=1, caller=A, callee=B),
         ReturnEvent(thread=0)],
        ReturnEvent(thread=0),
        FaultKind.RETURN_BOTTOM,
    ),
    "sample-unknown-thread": (
        [_SPAWN, ThreadExitEvent(thread=1)],
        SampleEvent(thread=1),
        FaultKind.UNKNOWN_THREAD,
    ),
    "duplicate-thread": (
        [_SPAWN], ThreadStartEvent(thread=1, parent=0, entry=C),
        FaultKind.DUPLICATE_THREAD,
    ),
    "unknown-parent": (
        [], ThreadStartEvent(thread=2, parent=7, entry=C),
        FaultKind.UNKNOWN_THREAD,
    ),
    "exit-unknown-thread": (
        [], ThreadExitEvent(thread=9), FaultKind.UNKNOWN_THREAD,
    ),
    "exit-live-frames": (
        [_SPAWN, CallEvent(thread=1, callsite=5, caller=B, callee=C)],
        ThreadExitEvent(thread=1),
        FaultKind.THREAD_EXIT_LIVE_FRAMES,
    ),
    "unknown-event": ([], object(), FaultKind.UNKNOWN_EVENT),
}


def _untouched(engine):
    """Everything a faulting event must leave alone under strict."""
    return (
        dataclasses.asdict(engine.stats),
        dataclasses.asdict(engine._window),
        engine.graph.num_nodes,
        [
            (e.caller, e.callee, e.callsite, e.invocations, e.is_back)
            for e in engine.graph.edges()
        ],
        {
            thread: (
                state.id_value,
                list(state.frames),
                state.ccstack.snapshot(),
            )
            for thread, state in engine._threads.items()
        },
        sorted(engine._tail_calling_functions),
    )


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_strict_raises_structured_before_any_mutation(case):
    setup, bad, kind = FAULT_CASES[case]
    recover = DacceEngine(
        root=A, config=DacceConfig(fault_policy=FaultPolicy.RECOVER)
    )
    for event in setup + [bad]:
        recover.on_event(event)
    assert recover.faults.records()[-1].kind is kind

    strict = DacceEngine(root=A)
    for event in setup:
        strict.on_event(event)
    before = _untouched(strict)
    with pytest.raises(TraceError) as info:
        strict.on_event(bad)
    assert info.value.reason == kind.value
    assert info.value.thread == getattr(bad, "thread", None)
    assert info.value.gts == strict.timestamp
    assert info.value.event is bad
    assert _untouched(strict) == before
    assert strict.faults.total == 0


def test_tail_call_after_unwind_to_bottom_is_tail_bottom(recover_engine):
    """A caller mismatch that unwinds to the bottom frame leaves a tail
    call with no frame to replace: it is dropped as ``tail-bottom``."""
    engine = recover_engine
    engine.on_event(CallEvent(thread=0, callsite=1, caller=A, callee=B))
    calls = engine.stats.calls
    engine.on_event(
        CallEvent(thread=0, callsite=2, caller=A, callee=C, kind=CallKind.TAIL)
    )
    first, second = engine.faults.records()
    assert first.kind is FaultKind.CALLER_MISMATCH
    assert first.recovery is RecoveryAction.UNWOUND
    assert second.kind is FaultKind.TAIL_BOTTOM
    assert second.recovery is RecoveryAction.DROPPED
    assert engine.stats.calls == calls
    assert engine.stats.tail_calls == 0
    sample = engine.on_sample(SampleEvent(thread=0))
    assert [s.function for s in engine.decoder().decode(sample).steps] == [A]


def test_direct_handler_calls_follow_the_policy(recover_engine):
    """Handlers called without ``on_event`` (as tracers do) quarantine too."""
    engine = recover_engine
    assert engine.on_sample(SampleEvent(thread=5)) is None
    engine.on_return(ReturnEvent(thread=0))
    assert engine.faults.counts_by_kind() == {
        "unknown-thread": 1,
        "return-bottom": 1,
    }


# ----------------------------------------------------------------------
# fault log mechanics
# ----------------------------------------------------------------------
def test_fault_log_is_bounded_but_counts_everything():
    log = FaultLog(capacity=4)
    for index in range(10):
        log.record(
            FaultRecord(
                kind=FaultKind.RETURN_BOTTOM,
                message="fault %d" % index,
                thread=0,
                gts=0,
                at_call=index,
                event=None,
                recovery=RecoveryAction.DROPPED,
            )
        )
    assert log.total == 10
    assert log.dropped == 6
    assert len(log.records()) == 4
    assert log.records()[-1].message == "fault 9"
    assert log.counts_by_kind() == {"return-bottom": 10}


def test_faults_surface_in_stats_snapshot(recover_engine):
    engine = recover_engine
    engine.on_event(ReturnEvent(thread=0))
    snapshot = engine.stats_snapshot()
    assert snapshot["fault_policy"] == "recover"
    assert snapshot["faults"] == 1
    assert snapshot["faults_by_kind"] == {"return-bottom": 1}
    record_dict = engine.faults.to_list()[0]
    assert record_dict["kind"] == "return-bottom"
    assert record_dict["recovery"] == "dropped"


# ----------------------------------------------------------------------
# StaleDictionaryError coverage
# ----------------------------------------------------------------------
def test_stale_dictionary_error_is_structured(driver):
    engine = driver.engine
    driver.call(B)
    sample = driver.sample()
    bogus = sample.__class__(
        timestamp=sample.timestamp + 50,
        context_id=sample.context_id,
        function=sample.function,
        ccstack=sample.ccstack,
        thread=sample.thread,
    )
    with pytest.raises(StaleDictionaryError) as info:
        engine.decoder().decode(bogus)
    assert info.value.gts == sample.timestamp + 50
    assert info.value.available == engine.dictionaries.timestamps()
    assert info.value.reason == "stale-dictionary"


def test_stale_dictionary_survives_export_roundtrip(driver, tmp_path):
    from repro.core.serialize import export_decoding_state, load_decoder

    engine = driver.engine
    samples = []
    # Three encoding generations, one sample each.
    for callee in (B, C, D):
        driver.call(callee)
        samples.append(driver.sample())
        driver.ret()
        assert engine.reencode() is True
    assert len(engine.dictionaries.timestamps()) >= 4

    path = export_decoding_state(engine, str(tmp_path / "state.json"))
    offline = load_decoder(path)
    online = engine.decoder()
    for sample in samples:
        assert offline.decode(sample) == online.decode(sample)
    with pytest.raises(StaleDictionaryError) as info:
        offline.decode(
            samples[0].__class__(
                timestamp=999,
                context_id=0,
                function=A,
                ccstack=(),
                thread=0,
            )
        )
    assert info.value.gts == 999
    assert info.value.available == engine.dictionaries.timestamps()
