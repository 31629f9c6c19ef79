"""Count-based front-end and targeted fast-path gates.

Both gates count work instead of timing it, so they hold on any host:

* the profile hook classifies each code object (package filter, plan
  disposition, function id) once, on its first call, and finds it by
  identity after that — a regression back to per-call code hashing
  fails the classification gate;
* in targeted mode at steady state, boundary crossings (departures from
  the plan and runtime-only re-entries into it) run in the kernel and
  their ccStack traffic never triggers a pass;
* once the edges are encoded, a traced run is encoded wholly in the
  profile hook: no column batch and no general-path event;
* recursion stays in the hook too: a recursive back-edge call the hook
  handles costs a shadow-stack record and a ccStack entry, and at most
  one event in ten back-edge calls reaches the general path;
* calls the tracer never traces cost no slow path: once warm, a program
  whose leaves take samples and walk the stack (the validation oracle,
  all of it skipped code) runs ``resolve`` zero times.

Each gate runs on both hit paths (compiled and Python).
"""

import importlib.util
import random
from collections import Counter

from repro.core.adaptive import AdaptiveConfig
from repro.core.engine import DacceConfig
from repro.pytrace import PythonDacceTracer, walk_stack
from repro.pytrace.tracer import ROOT_FUNCTION
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.targeted import build_targeted

from .hit_paths import collector_off, each


def _flat_dag():
    """A generated DAG: f<i> calls f<2i+1> and f<2i+2>; main walks it 5
    times (201 calls per run)."""
    lines = ["def main():\n    for _ in range(5):\n        f0(1)\n"]
    for i in range(40):
        callees = ["f%d(x)" % j for j in (2 * i + 1, 2 * i + 2) if j < 40]
        lines.append("def f%d(x):\n    return %s\n" % (i, " + ".join(callees) or "x"))
    namespace = {}
    exec(compile("\n".join(lines), "<generated>", "exec"), namespace)
    return namespace


@each
def test_front_end_classifies_each_code_object_once(monkeypatch):
    namespace = _flat_dag()

    classified = Counter()
    assigned = Counter()
    classify = PythonDacceTracer._classify
    function_id = PythonDacceTracer._function_id

    def counting_classify(self, code, *args):
        classified[id(code)] += 1
        return classify(self, code, *args)

    def counting_function_id(self, code):
        assigned[id(code)] += 1
        return function_id(self, code)

    monkeypatch.setattr(PythonDacceTracer, "_classify", counting_classify)
    monkeypatch.setattr(PythonDacceTracer, "_function_id", counting_function_id)
    tracer = PythonDacceTracer()
    with collector_off():
        for _ in range(2):
            tracer.run(namespace["main"])
    calls = tracer.engine.stats.calls
    assert calls == 2 * (1 + 5 * 40), calls
    assert set(classified.values()) == {1}, classified
    assert set(assigned.values()) == {1}, assigned
    assert len(assigned) == 41 == tracer.num_functions, (assigned, tracer.num_functions)
    assert sum(1 for e in tracer._code_cache.values() if e[1] > 0) == 41


@each
def test_steady_state_runs_are_encoded_in_the_hook(monkeypatch):
    # The check interval outlasts the runs, so no trigger check leaves
    # the hook mid-run.  One explicit pass encodes what run 1 found.
    namespace = _flat_dag()
    tracer = PythonDacceTracer(
        config=DacceConfig(adaptive=AdaptiveConfig(check_interval=10**9))
    )
    tracer.run(namespace["main"])
    engine = tracer.engine
    assert engine.reencode()
    work = Counter()
    process_columns = engine.process_columns
    on_event = engine.on_event

    def counting_process_columns(cols):
        work["process_columns"] += 1
        process_columns(cols)

    def counting_on_event(event):
        work["on_event"] += 1
        on_event(event)

    monkeypatch.setattr(engine, "process_columns", counting_process_columns)
    monkeypatch.setattr(engine, "on_event", counting_on_event)
    hits = engine.fastpath.hits
    with collector_off():
        for _ in range(3):
            tracer.run(namespace["main"])
    assert work == Counter(), work
    assert engine.fastpath.hits - hits == 3 * 2 * 201
    assert engine.stats.calls == engine.stats.returns == 4 * 201


@each
def test_targeted_boundary_crossings_stay_on_the_fast_path(tmp_path):
    # Tracked t<i> reach the sink; untracked u<i> never do statically,
    # but u<i> for even i re-enter t<i % 4> through HANDLERS, which the
    # extractor cannot resolve.
    lines = ["def sink(x):\n    return x & 255\n"]
    for i in range(4):
        lines.append("def t%d(x):\n    return sink(x + %d) + sink(x ^ %d)\n" % (i, i, i))
    for i in range(8):
        body = "HANDLERS[%d](x)" % (i % 4) if i % 2 == 0 else "x * %d" % i
        lines.append("def u%d(x):\n    return %s\n" % (i, body))
    lines.append("HANDLERS = (t0, t1, t2, t3)\n")
    lines.append(
        "def run(rounds):\n    total = 0\n    for i in range(rounds):\n"
        + "".join("        total += t%d(i) + u%d(i)\n" % (i % 4, i) for i in range(8))
        + "    return total\n"
    )
    root = str(tmp_path)
    path = tmp_path / "app.py"
    path.write_text("\n".join(lines))
    spec = importlib.util.spec_from_file_location("app", str(path))
    app = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(app)
    graph = extract_package(root, index=FunctionIndex(first_id=1))
    plan = build_targeted(graph, ["sink"], root=ROOT_FUNCTION)
    tracer = PythonDacceTracer(targeted=plan, source_root=root)
    engine = tracer.engine

    rows = []

    def iterate():  # out of the plan: each iteration is a re-entry
        for _ in range(10):
            app.run(20)
            tracer.flush()
            fp = engine.fastpath
            rows.append((len(engine.reencode_passes), fp.hits, fp.misses))

    tracer.run(iterate)
    passes = rows[-1][0] - rows[0][0]
    hits = rows[-1][1] - rows[0][1]
    misses = rows[-1][2] - rows[0][2]
    rate = hits / (hits + misses)
    assert engine.stats.boundary_crossings > 0, engine.stats
    assert rate >= 0.95, rows
    assert passes <= 1, rows


@each
def test_back_edge_calls_stay_in_the_hook(monkeypatch):
    def fib(n):
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    def is_even(n):
        return True if n == 0 else is_odd(n - 1)

    def is_odd(n):
        return False if n == 0 else is_even(n - 1)

    rng = random.Random(3)
    children = [[] for _ in range(60)]
    for node in range(1, 60):
        children[rng.randrange(max(0, node - 3), node)].append(node)

    def tree_sum(node):
        return node + sum(tree_sum(child) for child in children[node])

    def workload():
        return fib(16), is_even(150), tree_sum(0)

    tracer = PythonDacceTracer()
    general = Counter()
    on_event = tracer.engine.on_event

    def counting_on_event(event):
        general["on_event"] += 1
        on_event(event)

    monkeypatch.setattr(tracer.engine, "on_event", counting_on_event)
    for _ in range(5):
        assert tracer.run(workload) == (987, True, sum(range(60)))
    engine = tracer.engine
    back_edge_calls = engine.stats.back_edge_calls
    assert back_edge_calls > 10_000, engine.stats
    assert general["on_event"] <= back_edge_calls / 10, (general, back_edge_calls)
    assert engine.fastpath.hit_rate >= 0.95, engine.fastpath_stats()


@each
def test_calls_inside_skipped_code_run_no_resolve():
    # The leaves of the flat DAG probe, as the pipeline benchmark's
    # oracle does: a sample and a stack walk, whose own calls (and the
    # dataclass constructors they make) are the tracer package's.
    # The check interval outlasts the runs; one explicit pass encodes
    # what run 1 found, and run 2 patches the new table's call sites.
    namespace = _flat_dag()
    tracer = PythonDacceTracer(
        config=DacceConfig(adaptive=AdaptiveConfig(check_interval=10**9))
    )
    walks = []

    def leaf(x):
        walks.append((tracer.sample(), walk_stack(tracer)))
        return x

    for i in range(20, 40):
        namespace["f%d" % i] = leaf
    tracer.run(namespace["main"])
    assert tracer.engine.reencode()
    tracer.run(namespace["main"])
    resolved = tracer.resolve_calls
    walked = len(walks)
    with collector_off():
        for _ in range(3):
            tracer.run(namespace["main"])
    assert len(walks) - walked == 3 * 5 * 20
    assert tracer.resolve_calls == resolved, tracer.resolve_calls - resolved
    decoder = tracer.engine.decoder()
    for sample, walked_context in walks[walked:]:
        assert decoder.decode(sample).functions() == walked_context.functions()
