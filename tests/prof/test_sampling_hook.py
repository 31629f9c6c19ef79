"""The engine's continuous-profiling sampling hook.

The critical property: the hook observes the *identical* sample stream
on the general event path and the batched fast lane, fires after the
sampled call is applied, and charges its cost to the CLIENT ``sample``
category — never perturbing encoding state.
"""

import pytest

from repro.core.engine import DacceEngine, SampleHook
from repro.core.errors import DacceError
from repro.prof import CCTAggregator
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import (
    TraceExecutor,
    ThreadSpec,
    WorkloadSpec,
    run_workload_columnar,
)


def workload(seed=3, calls=8_000):
    program = generate_program(
        GeneratorConfig(seed=seed, recursive_sites=3, indirect_fraction=0.1)
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=seed + 1,
        sample_period=0,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=calls // 8)],
    )
    return program, spec


def collect_with_hook(every, batched, seed=3, calls=8_000):
    program, spec = workload(seed, calls)
    engine = DacceEngine(root=program.main)
    collected = []
    engine.install_sample_hook(
        every, lambda sample, weight: collected.append((sample, weight))
    )
    if batched:
        run_workload_columnar(program, spec, engine)
    else:
        for event in TraceExecutor(program, spec).events():
            engine.on_event(event)
    return engine, collected


def test_hook_period_validation():
    with pytest.raises(DacceError):
        SampleHook(every=0, callback=lambda s, w: None)


def test_install_twice_rejected():
    engine = DacceEngine()
    engine.install_sample_hook(8, lambda s, w: None)
    with pytest.raises(DacceError):
        engine.install_sample_hook(8, lambda s, w: None)
    assert engine.remove_sample_hook() is not None
    assert engine.remove_sample_hook() is None
    engine.install_sample_hook(8, lambda s, w: None)


def test_fires_every_nth_call_with_period_weight():
    engine, collected = collect_with_hook(64, batched=False)
    assert len(collected) == engine.stats.calls // 64
    assert engine.stats.profile_samples == len(collected)
    assert all(weight == 64.0 for _, weight in collected)
    # Total weight tracks total calls (up to the unsampled remainder).
    total = sum(weight for _, weight in collected)
    assert engine.stats.calls - total < 64


def test_batched_and_per_event_streams_identical():
    per_event_engine, per_event = collect_with_hook(64, batched=False)
    batched_engine, batched = collect_with_hook(64, batched=True)
    assert batched_engine.stats.calls == per_event_engine.stats.calls
    assert [s for s, _ in batched] == [s for s, _ in per_event]
    assert [w for _, w in batched] == [w for _, w in per_event]


def test_hook_samples_decode_against_live_engine():
    engine, collected = collect_with_hook(32, batched=True)
    assert engine.stats.reencodings >= 1
    aggregator = CCTAggregator.from_engine(engine)
    for sample, weight in collected:
        aggregator.add_sample(sample, weight)
    stats = aggregator.stats()
    assert stats["samples"] == len(collected)
    assert stats["samples_partial"] == 0
    assert stats["epochs"] >= 2


def test_hook_charges_sample_category():
    engine, collected = collect_with_hook(64, batched=True)
    charges = dict(engine.cost.report.charges)
    assert charges.get("sample", 0.0) > 0.0
    baseline, _ = collect_with_hook(64, batched=True)
    # The hook is CLIENT cost: encoding state is unaffected by sampling.
    assert baseline.max_id == engine.max_id
    assert baseline.stats.reencodings == engine.stats.reencodings


def test_disabled_hook_costs_nothing():
    program, spec = workload()
    engine = DacceEngine(root=program.main)
    run_workload_columnar(program, spec, engine)
    assert engine.stats.profile_samples == 0
    assert dict(engine.cost.report.charges).get("sample", 0.0) == 0.0


def test_weigher_overrides_weight():
    program, spec = workload(calls=4_000)
    engine = DacceEngine(root=program.main)
    weights = []
    ticks = iter(range(1, 10_000))
    engine.install_sample_hook(
        64,
        lambda sample, weight: weights.append(weight),
        weigher=lambda: float(next(ticks)),
    )
    run_workload_columnar(program, spec, engine)
    assert weights == [float(index + 1) for index in range(len(weights))]


def test_hook_samples_not_appended_to_engine_samples():
    engine, collected = collect_with_hook(64, batched=True)
    assert collected
    assert engine.samples == []


def test_stats_snapshot_reports_profile_samples():
    engine, collected = collect_with_hook(64, batched=True)
    assert engine.stats_snapshot()["profile_samples"] == len(collected)
