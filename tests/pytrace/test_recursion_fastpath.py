"""Real recursion under the tracer stays on the fast path.

Under ``PythonDacceTracer`` recursive programs used to leave the
compiled kernel on every back-edge call and return, and trigger (c)
re-encoded over a graph that never changed, recompiling the kernel each
time.  Back-edge calls now run inside the kernel, and a triggered pass
that would change nothing commits nothing and backs off.  This pins the
result on fib, mutual and tree recursion, and checks every sample taken
at a recursion leaf against the interpreter's own stack.
"""

import random

import repro.core.fastpath as fastpath
from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack


def _tree(nodes, seed=7):
    rng = random.Random(seed)
    children = [[] for _ in range(nodes)]
    for node in range(1, nodes):
        # Attaching to a recent node makes deep chains likely.
        children[rng.randrange(max(0, node - 3), node)].append(node)

    def build(node):
        return (node, tuple(build(child) for child in children[node]))

    return build(0)


def _run_recursion():
    tracer = PythonDacceTracer()
    records = []
    # Leaf counts per function: the first leaf of each probes, so every
    # edge is discovered inside the first adaptive window.
    leaves = {"fib": 0, "tree": 0}

    def probe():
        records.append((tracer.sample(), walk_stack(tracer)))

    # Leaves count inline and call the probe every 37th time, so the
    # probe adds few calls of its own.
    def fib(n):
        if n < 2:
            leaves["fib"] += 1
            if leaves["fib"] % 37 == 1:
                probe()
            return n
        return fib(n - 1) + fib(n - 2)

    def is_even(n):
        if n == 0:
            probe()
            return True
        return is_odd(n - 1)

    def is_odd(n):
        if n == 0:
            probe()
            return False
        return is_even(n - 1)

    def tree_sum(node):
        value, children = node
        if not children:
            leaves["tree"] += 1
            if leaves["tree"] % 37 == 1:
                probe()
            return value
        total = value
        for child in children:
            total += tree_sum(child)
        return total

    tree = _tree(60)

    def workload():
        return is_even(200), tree_sum(tree), fib(20)

    result = tracer.run(workload)
    assert result == (True, sum(range(60)), 6765)
    return tracer, records


def test_recursion_stays_on_the_fast_path(monkeypatch):
    monkeypatch.setattr(fastpath, "_KERNELS", {})
    tracer, records = _run_recursion()
    engine = tracer.engine
    stats = engine.stats
    assert stats.back_edge_calls > 20_000
    # Triggered passes: the commits for the discovered graph plus a
    # backed-off handful of no-op passes (it was one pass per window).
    assert stats.reencodings + stats.reencode_noops <= 8
    assert stats.reencode_noops >= 1
    assert engine.fastpath.hit_rate >= 0.95
    # One generated kernel, and one table per committed dictionary: the
    # gTimeStamp-0 one, the first pass and a pass for the edges that
    # the stack-walk oracle's own traced calls add at depth 200.
    assert len(fastpath._KERNELS) == 1
    assert engine.fastpath.compiles == stats.reencodings + 1 <= 3
    assert records


def test_recursion_samples_match_stack_walks():
    tracer, records = _run_recursion()
    decoder = tracer.engine.decoder()
    for sample, walked in records:
        assert contexts_agree(decoder.decode(sample), walked)
