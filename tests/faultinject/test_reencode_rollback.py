"""Transactional re-encoding: a failed pass must roll back completely."""

import pytest

from repro.core.engine import DacceConfig, DacceEngine
from repro.core.errors import ReencodeError
from repro.core.events import SampleEvent
from repro.core.faults import FaultKind, FaultPolicy, RecoveryAction
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec

pytestmark = pytest.mark.faultinject


def _run_engine(policy=FaultPolicy.STRICT) -> DacceEngine:
    program = generate_program(
        GeneratorConfig(
            seed=13,
            functions=25,
            edges=60,
            recursive_sites=3,
            indirect_fraction=0.12,
        )
    )
    spec = WorkloadSpec(
        calls=6_000,
        seed=9,
        sample_period=41,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=700)],
    )
    engine = DacceEngine(
        root=program.main, config=DacceConfig(fault_policy=policy)
    )
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
    return engine


def _observable_state(engine):
    """Everything a rolled-back pass must leave untouched."""
    return {
        "timestamp": engine.timestamp,
        "dictionaries": engine.dictionaries.timestamps(),
        "max_id": engine.max_id,
        "edges_at_last_encode": engine._edges_at_last_encode,
        "back_edges": sorted(
            (e.callsite, e.callee) for e in engine.graph.edges() if e.is_back
        ),
        "compressed": sorted(engine.policy.compressed_edges),
        "indirect": {
            site.callsite: (site.strategy, tuple(site.order))
            for site in engine.indirect.sites()
        },
        "threads": {
            thread: (
                state.id_value,
                tuple(frame[0] for frame in state.frames),
                state.ccstack.saved_state(),
            )
            for thread, state in engine._threads.items()
        },
    }


def test_commit_gate_failure_rolls_back_strict():
    engine = _run_engine()
    before = _observable_state(engine)
    samples_before = [
        engine.on_sample(SampleEvent(thread=t)) for t in engine.live_threads()
    ]
    contexts_before = [engine.decoder().decode(s) for s in samples_before]

    engine._commit_gate = lambda dictionary: ["injected violation"]
    with pytest.raises(ReencodeError) as info:
        engine.reencode()
    assert info.value.violations == ["injected violation"]
    assert info.value.gts == before["timestamp"] + 1

    assert _observable_state(engine) == before
    # The encoding state still decodes exactly as before the abort.
    samples_after = [
        engine.on_sample(SampleEvent(thread=t)) for t in engine.live_threads()
    ]
    for a, b in zip(samples_before, samples_after):
        assert (a.timestamp, a.context_id, a.ccstack) == (
            b.timestamp, b.context_id, b.ccstack,
        )
    for context, sample in zip(contexts_before, samples_after):
        assert engine.decoder().decode(sample) == context


def test_mid_pass_exception_rolls_back_and_chains():
    engine = _run_engine()
    before = _observable_state(engine)

    def explode(dictionary):
        raise RuntimeError("disk on fire")

    engine._commit_gate = explode
    with pytest.raises(ReencodeError) as info:
        engine.reencode()
    assert isinstance(info.value.__cause__, RuntimeError)
    assert _observable_state(engine) == before


def test_recover_policy_quarantines_aborted_pass():
    engine = _run_engine(policy=FaultPolicy.RECOVER)
    before = _observable_state(engine)
    original_gate = engine._commit_gate

    engine._commit_gate = lambda dictionary: ["injected violation"]
    assert engine.reencode() is False
    assert _observable_state(engine) == before
    record = engine.faults.records()[-1]
    assert record.kind is FaultKind.REENCODE_ABORTED
    assert record.recovery is RecoveryAction.ROLLED_BACK

    # With the gate restored the next pass commits normally.
    engine._commit_gate = original_gate
    assert engine.reencode() is True
    assert engine.timestamp == before["timestamp"] + 1
    assert engine.dictionaries.timestamps()[-1] == engine.timestamp


def test_commit_gate_passes_on_healthy_graph():
    engine = _run_engine()
    before_ts = engine.timestamp
    assert engine.reencode() is True
    assert engine.timestamp == before_ts + 1
    assert engine.stats_snapshot()["faults"] == 0
