"""Targeted tracing of real Python reaches a steady state.

Under ``PythonDacceTracer`` in targeted mode every boundary crossing
(a departure from the plan and a runtime-only re-entry into it) used to
leave the compiled kernel for the general path, and its ccStack push
and pop counted towards trigger (c), which re-encoded a graph that
never changed.  Boundary crossings now run inside the kernel, and their
traffic stays out of the trigger window, because no encoding can remove
it.  This pins the result over 20 iterations of a targeted program, and
checks every sample against the interpreter's own stack, projected onto
the plan.
"""

import gc

import pytest

from repro.pytrace import PythonDacceTracer, walk_stack
from repro.pytrace.tracer import ROOT_FUNCTION

from . import targeted_program
from .hit_paths import available, forced

ITERATIONS = 20
WARMUP = 2
ROUNDS = 6


@pytest.fixture
def traced(tmp_path):
    """One traced run per available hit path, each from a fresh load."""
    runs = []
    for path in available():
        with forced(path):
            root = tmp_path / path
            root.mkdir()
            runs.append(_traced(str(root)))
    return runs


def _traced(root):
    records = []
    tracer = None

    def probe():
        records.append((tracer.sample(), walk_stack(tracer)))

    module, graph = targeted_program.load(root, probe)
    plan = targeted_program.plan_for(graph)
    tracer = PythonDacceTracer(targeted=plan, source_root=root)
    engine = tracer.engine
    # One row per iteration: (passes, kernel hits, general-path events,
    # boundary crossings), read after a drain.
    rows = []

    def iterate():
        # This loop is out of the plan, so each iteration starts with a
        # re-entry into run_iteration: there is no root edge to discover.
        for _ in range(ITERATIONS):
            module.run_iteration(ROUNDS)
            tracer.flush()
            rows.append(
                (
                    len(engine.reencode_passes),
                    engine.fastpath.hits,
                    engine.fastpath.misses,
                    engine.stats.boundary_crossings,
                )
            )

    # A finalizer run by the collector mid-trace would be traced as one
    # more boundary crossing in whichever iteration it lands.
    gc.collect()
    gc.disable()
    try:
        tracer.run(iterate)
    finally:
        gc.enable()
    return tracer, plan, rows, records


def _deltas(rows, column):
    return [b[column] - a[column] for a, b in zip(rows, rows[1:])]


def test_targeted_program_reaches_a_steady_state(traced):
    for run in traced:
        _check_steady_state(*run)


def _check_steady_state(tracer, _plan, rows, _records):
    steady = rows[WARMUP - 1:]
    assert steady[-1][0] - steady[0][0] <= 1  # re-encoding passes
    hits = steady[-1][1] - steady[0][1]
    misses = steady[-1][2] - steady[0][2]
    assert hits / (hits + misses) >= 0.95
    assert _deltas(steady, 2) == [0] * (len(steady) - 1)
    # The crossings were handled, not skipped: every iteration makes the
    # same ones, and they are boundary crossings, not back edges.
    crossings = _deltas(steady, 3)
    assert crossings[0] > 0 and set(crossings) == {crossings[0]}
    assert tracer.engine.stats.back_edge_calls == 0


def test_targeted_samples_match_projected_stack_walks(traced):
    for run in traced:
        _check_samples(*run)


def _check_samples(tracer, plan, _rows, records):
    tracked = set(plan.functions) | {ROOT_FUNCTION}
    decoder = tracer.engine.decoder()
    assert len(records) >= ITERATIONS
    for sample, walked in records:
        decoded = decoder.decode(sample).functions()
        assert decoded == targeted_program.project(walked, tracked)


def test_hit_paths_fold_equal_edge_counts(tmp_path):
    # The engine is warm-started from the plan: the first hit of a seeded
    # edge credits ``warmstart_handler_hits_avoided``.  The compiled path
    # counts hits in C and folds them into the edges once per stay,
    # crediting there.  With a probe that takes no sample, no stay ends
    # inside an iteration, so each seeded edge is hit several times in
    # its first stay.
    counts = []
    for path in available():
        with forced(path):
            root = tmp_path / path
            root.mkdir()
            module, graph = targeted_program.load(str(root), lambda: None)
            tracer = PythonDacceTracer(
                targeted=targeted_program.plan_for(graph), source_root=str(root)
            )
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                tracer.run(module.run_iteration, ROUNDS)
        finally:
            gc.enable()
        engine = tracer.engine
        edges = list(engine.graph.edges())
        avoided = engine.stats.warmstart_handler_hits_avoided
        # Each seeded edge is credited once, on its first hit.
        assert avoided == sum(1 for edge in edges if edge.seeded and edge.invocations) > 0
        assert engine.faults.total == 0
        counts.append(
            (avoided, {(edge.callsite, edge.callee): edge.invocations for edge in edges})
        )
    assert all(other == counts[0] for other in counts[1:]), counts
