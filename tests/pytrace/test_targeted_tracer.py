"""Targeted tracing of real Python: skip out-of-plan code, smaller ids."""

import importlib.util
import textwrap

import pytest

from repro.core.ccstack import UNTRACKED_FUNCTION
from repro.core.errors import TraceError
from repro.pytrace import PythonDacceTracer
from repro.pytrace.tracer import ROOT_FUNCTION
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.targeted import build_targeted

SOURCE = """
def sink_op(x):
    return x + 1


def prepare(x):
    return sink_op(x)


def churn(x):
    total = 0
    for i in range(x):
        total += shuffle(i)
    return total


def shuffle(i):
    if i % 2:
        return helper_a(i) + helper_a(i + 1)
    return helper_b(i)


def helper_a(i):
    return helper_b(i) + helper_b(i + 1)


def helper_b(i):
    return i * 2


def main():
    churn(20)
    value = prepare(1)
    churn(20)
    return value + prepare(2)
"""


@pytest.fixture
def project(tmp_path):
    (tmp_path / "app.py").write_text(textwrap.dedent(SOURCE))
    graph = extract_package(str(tmp_path), index=FunctionIndex(first_id=1))
    spec = importlib.util.spec_from_file_location("app", tmp_path / "app.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return str(tmp_path), graph, module


def _targeted_tracer(root, graph):
    plan = build_targeted(graph, ["sink_op"], root=ROOT_FUNCTION)
    return plan, PythonDacceTracer(targeted=plan, source_root=root)


def test_plan_keeps_sink_chain_drops_churn(project):
    root, graph, _ = project
    plan, _tracer = _targeted_tracer(root, graph)
    names = {fn.id: fn.qualname for fn in graph.functions()}
    kept = {names[f] for f in plan.functions if f in names}
    assert {"main", "prepare", "sink_op"} <= kept
    assert "churn" not in kept and "shuffle" not in kept


def test_untracked_code_is_skipped_and_suppressed(project):
    root, graph, module = project
    _plan, tracer = _targeted_tracer(root, graph)
    tracer.run(module.main)
    # churn/shuffle were classified out once (disposition cache) and
    # their interior call events never reached the engine.
    assert tracer.skipped_code_objects >= 2
    assert tracer.suppressed_events > 0
    assert tracer.engine.stats.boundary_crossings > 0


def test_decoded_context_renders_untracked_pseudo_frame(project):
    root, graph, module = project
    _plan, tracer = _targeted_tracer(root, graph)

    captured = []

    def main_with_probe():
        module.main()
        # Sample while inside untracked code via a tracked wrapper is
        # not possible from here; sample at top level instead and probe
        # the sink path through the engine's own samples below.
        captured.append(tracer.decode(tracer.sample()))

    tracer.run(main_with_probe)
    assert captured
    assert tracer.name_of(UNTRACKED_FUNCTION) == "<untracked>"

    # Sampling from inside an untracked region must decode to a context
    # ending in the pseudo-frame.
    tracer2_plan, tracer2 = _targeted_tracer(root, graph)
    probes = []

    def churn_probe(i):
        probes.append(tracer2.decode(tracer2.sample()))
        return i

    def run():
        module.churn(3)
        probes.append(tracer2.decode(tracer2.sample()))
        return sum(churn_probe(i) for i in range(2))

    tracer2.run(run)
    inner = [
        ctx for ctx in probes
        if any(s.function == UNTRACKED_FUNCTION for s in ctx.steps)
    ]
    assert inner, "no sample decoded through an untracked region"
    rendered = tracer2.format_context(inner[0])
    assert "<untracked>" in rendered


def test_targeted_id_space_smaller_than_full_trace(project):
    root, graph, module = project
    _plan, targeted = _targeted_tracer(root, graph)
    targeted.run(module.main)
    full = PythonDacceTracer(static_graph=graph, source_root=root)
    full.run(module.main)
    # The full tracer defers id assignment until a re-encoding pass
    # folds the discovered structure into the dictionary; force one on
    # both so the comparison is dictionary-vs-dictionary.
    targeted.engine.reencode()
    full.engine.reencode()
    assert targeted.engine.max_id < full.engine.max_id
    assert targeted.engine.max_id <= _plan.report.proof.max_id


def test_tracked_calls_reuse_seeded_static_sites(project):
    root, graph, module = project
    plan, tracer = _targeted_tracer(root, graph)
    seeded_max = max(
        edge.callsite for edge in plan.static_graph.edges()
    )
    tracer.run(module.main)
    # Every tracked->tracked pair must land on its seeded static site:
    # no dynamically allocated callsite above the static range may name
    # a pair the plan already knows.
    tracked = set(plan.functions)
    static_pairs = {
        (edge.caller, edge.callee)
        for edge in plan.static_graph.edges()
        if edge.caller in tracked and edge.callee in tracked
    }
    reached = [
        edge
        for edge in tracer.engine.graph.edges()
        if (edge.caller, edge.callee) in static_pairs and edge.invocations
    ]
    assert reached
    for edge in reached:
        assert edge.callsite <= seeded_max, edge


def test_targeted_requires_tracer_root_and_source_root(project):
    root, graph, _ = project
    main_id = next(
        fn.id for fn in graph.functions() if fn.qualname == "main"
    )
    # Built against a static root instead of the tracer's pseudo-root 0.
    bad_plan = build_targeted(graph, ["sink_op"], root=main_id)
    with pytest.raises(TraceError):
        PythonDacceTracer(targeted=bad_plan, source_root=root)
    good_plan = build_targeted(graph, ["sink_op"], root=ROOT_FUNCTION)
    with pytest.raises(TraceError):
        PythonDacceTracer(targeted=good_plan)
