"""Warm-start seeding: plan construction, engine behaviour, soundness."""

import pytest

from repro.core.dictionary import EncodingDictionary
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.errors import DacceError
from repro.core.events import CallKind
from repro.core.invariants import check_dictionary
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import WorkloadSpec, run_workload
from repro.static.graph import (
    Confidence,
    StaticCallGraph,
    StaticEdge,
    StaticFunction,
)
from repro.static.synthetic import extract_program
from repro.static.warmstart import WarmStartError, build_warmstart


def _program(seed=7, **overrides):
    defaults = dict(
        seed=seed,
        recursive_sites=3,
        indirect_fraction=0.1,
        tail_fraction=0.05,
        library_functions=6,
    )
    defaults.update(overrides)
    return generate_program(GeneratorConfig(**defaults))


@pytest.fixture
def program():
    return _program()


@pytest.fixture
def plan(program):
    return build_warmstart(extract_program(program))


def test_plan_dictionary_is_sound_at_timestamp_zero(plan):
    assert plan.dictionary.timestamp == 0
    assert check_dictionary(plan.dictionary) == []
    assert plan.seeded_edges == plan.graph.num_edges
    for edge in plan.graph.edges():
        assert edge.seeded


def test_confidence_gate_skips_speculative_edges(program):
    static_graph = extract_program(program, include_pointsto=True)
    high_only = build_warmstart(static_graph)
    everything = build_warmstart(
        static_graph, min_confidence=Confidence.LOW
    )
    assert high_only.seeded_edges < everything.seeded_edges
    assert sum(high_only.skipped.values()) == (
        everything.seeded_edges - high_only.seeded_edges
    )
    assert not everything.skipped


def test_recursive_seed_edges_become_back_edges():
    graph = StaticCallGraph(root=0)
    for fid in (0, 1, 2):
        graph.add_function(StaticFunction(id=fid, qualname="f%d" % fid,
                                          module="m"))
    graph.add_edge(StaticEdge(caller=0, callee=1, callsite=1))
    graph.add_edge(StaticEdge(caller=1, callee=2, callsite=2))
    graph.add_edge(StaticEdge(caller=2, callee=1, callsite=3))  # cycle
    plan = build_warmstart(graph)
    assert check_dictionary(plan.dictionary) == []
    back = [e for e in plan.graph.edges() if e.is_back]
    assert len(back) == 1
    # The cycle-closing edge is unencoded (ccStack-handled), like any
    # dynamically discovered recursion.
    assert plan.dictionary.encoding(back[0].callsite, back[0].callee) is None


def test_missing_root_raises():
    graph = StaticCallGraph()
    with pytest.raises(WarmStartError):
        build_warmstart(graph)


def test_engine_rejects_graph_plus_warm_start(plan):
    with pytest.raises(DacceError):
        DacceEngine(graph=plan.graph, warm_start=plan)


def test_engine_rejects_nonzero_timestamp_plan(plan):
    plan.dictionary = EncodingDictionary(
        timestamp=3,
        numcc={plan.graph.root: 1},
        edges={},
        max_id=0,
        root=plan.graph.root,
    )
    with pytest.raises(DacceError):
        DacceEngine(warm_start=plan)


def test_indirect_sites_and_tail_callers_are_primed(program):
    plan = build_warmstart(
        extract_program(program), min_confidence=Confidence.MEDIUM
    )
    engine = DacceEngine(warm_start=plan)
    for callsite, targets in plan.indirect_sites().items():
        site = engine.indirect.site(callsite)
        for target in targets:
            assert site.dispatch(target).hit
    assert plan.tail_callers() <= engine._tail_calling_functions
    tail_edges = [
        e for e in plan.graph.edges() if e.kind is CallKind.TAIL
    ]
    assert len({e.caller for e in tail_edges}) == len(plan.tail_callers())


def test_warm_start_reduces_discovery_costs(program):
    spec = WorkloadSpec(calls=15_000, seed=5, sample_period=101,
                        recursion_affinity=0.3)
    cold = DacceEngine(root=program.main)
    run_workload(program, spec, cold)

    plan = build_warmstart(extract_program(program))
    warm = DacceEngine(warm_start=plan)
    run_workload(program, spec, warm)

    assert warm.stats.static_seeded_edges == plan.seeded_edges
    assert warm.stats.warmstart_handler_hits_avoided > 0
    assert warm.stats.handler_invocations < cold.stats.handler_invocations
    assert warm.stats.unencoded_calls < cold.stats.unencoded_calls
    assert (
        warm.stats.discovery_ccstack_ops < cold.stats.discovery_ccstack_ops
    )
    # Every avoided hit corresponds to a seeded edge that actually ran.
    exercised = sum(
        1
        for e in warm.graph.edges()
        if e.seeded and e.invocations > 0
    )
    assert warm.stats.warmstart_handler_hits_avoided == exercised


def test_warm_start_decodes_identically_to_oracle(program):
    config = DacceConfig(self_validate=True)
    plan = build_warmstart(extract_program(program))
    warm = DacceEngine(config=config, warm_start=plan)
    spec = WorkloadSpec(calls=12_000, seed=9, sample_period=53,
                        recursion_affinity=0.4)
    run_workload(program, spec, warm)
    assert warm.stats.samples > 0
    assert warm.stats.validation_failures == 0


def test_warm_start_summary_and_snapshot_expose_counters(plan):
    engine = DacceEngine(warm_start=plan)
    summary = engine.summary()
    assert summary["static_seeded_edges"] == plan.seeded_edges
    assert summary["warmstart_handler_hits_avoided"] == 0
    snapshot = engine.stats_snapshot()
    assert snapshot["static_seeded_edges"] == plan.seeded_edges


def test_seeded_flag_survives_graph_copy(plan):
    clone = plan.graph.copy()
    assert all(edge.seeded for edge in clone.edges())


def test_cold_engine_has_zero_warmstart_counters(program):
    engine = DacceEngine(root=program.main)
    spec = WorkloadSpec(calls=3_000, seed=2)
    run_workload(program, spec, engine)
    assert engine.stats.static_seeded_edges == 0
    assert engine.stats.warmstart_handler_hits_avoided == 0


def test_engines_from_one_plan_match_engines_from_fresh_plans(program):
    """An engine runs on a copy of its plan's graph: runtime edges,
    invocation counts and back-edge flags never reach the next engine
    built from the same plan."""
    spec = WorkloadSpec(calls=3_000, seed=2, recursion_affinity=0.4)

    def run(plan):
        engine = DacceEngine(warm_start=plan)
        run_workload(program, spec, engine)
        return engine.stats, engine.max_id, engine.cost.report

    shared = build_warmstart(extract_program(program))
    reused = [run(shared) for _ in range(2)]
    fresh = [run(build_warmstart(extract_program(program))) for _ in range(2)]
    assert reused == fresh
    assert reused[0][0].warmstart_handler_hits_avoided > 0
    assert all(edge.invocations == 0 for edge in shared.graph.edges())
