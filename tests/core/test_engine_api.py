"""Public convenience API tests: summary(), current_context(), decoder()."""

import copy

from repro.core.decoder import Decoder
from repro.core.engine import DacceEngine
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, WorkloadSpec, run_workload
from tests.conftest import A, B, C


def test_current_context_matches_oracle(driver):
    driver.call(B, callsite=1)
    driver.call(C, callsite=2)
    decoded = driver.engine.current_context(0)
    expected = driver.engine.expected_context(0)
    assert [s.function for s in decoded.steps] == [
        s.function for s in expected.steps
    ]


def test_current_context_does_not_retain_samples(driver):
    driver.call(B, callsite=1)
    driver.engine.current_context(0)
    assert driver.engine.samples == []
    assert driver.engine.stats.samples == 0


def test_summary_fields(driver):
    driver.call(B, callsite=1)
    driver.ret()
    driver.engine.reencode()
    summary = driver.engine.summary()
    assert summary["calls"] == 1
    assert summary["returns"] == 1
    assert summary["nodes"] == 2
    assert summary["edges"] == 1
    assert summary["encoded_edges"] == 1
    assert summary["gts"] == 1
    assert summary["reencodings"] == 1
    assert summary["live_threads"] == 1
    assert summary["overflowed"] is False
    assert isinstance(summary["ccstack"], dict)


def test_summary_after_fresh_start():
    engine = DacceEngine(root=A)
    summary = engine.summary()
    assert summary["calls"] == 0
    assert summary["nodes"] == 1
    assert summary["max_id"] == 0


def test_decoder_is_one_object():
    engine = DacceEngine()
    assert engine.decoder() is engine.decoder()


def test_early_decoder_sees_later_threads_and_edges():
    """A decoder obtained before any thread start or runtime-handler
    edge decodes the later samples exactly as a decoder built afterwards
    over copies of the engine's decoding state."""
    program = generate_program(
        GeneratorConfig(seed=3, recursive_sites=3, indirect_fraction=0.1)
    )
    spec = WorkloadSpec(
        calls=4_000,
        seed=4,
        sample_period=37,
        recursion_affinity=0.4,
        threads=[
            ThreadSpec(thread=1, entry=2, spawn_at_call=500),
            ThreadSpec(thread=2, entry=3, spawn_at_call=1_500),
        ],
    )
    engine = DacceEngine(root=program.main)
    early = engine.decoder()
    assert engine.graph.num_edges == 0 and not engine.thread_parents
    run_workload(program, spec, engine)
    assert engine.stats.handler_invocations > 0
    assert engine.stats.reencodings > 0
    assert set(engine.thread_parents) == {1, 2}
    assert {sample.thread for sample in engine.samples} >= {1, 2}
    fresh = Decoder(
        copy.deepcopy(engine.dictionaries),
        dict(engine.thread_parents),
        callsite_owners={
            edge.callsite: edge.caller for edge in engine.graph.edges()
        },
    )
    for sample in engine.samples:
        assert early.decode(sample) == fresh.decode(sample)
        assert early.decode_best_effort(sample) == fresh.decode_best_effort(
            sample
        )
