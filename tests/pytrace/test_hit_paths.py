"""Differential suite: the compiled hit path equals its Python reference.

Hypothesis draws small Python programs, compiles each with ``exec`` and
traces it under a fresh :class:`PythonDacceTracer` on every available
hit path (see :mod:`tests.pytrace.hit_paths`).  A program is a chain of
functions ``f0 .. fN``, each calling some later ones, each drawn from a
shape:

* ``plain``: calls, nothing else;
* ``deep``: self-recursion up to 40 frames deep;
* ``mutual``: ``f`` and ``g`` recursing into each other;
* ``generator``: ``yield from`` a generator that calls and yields;
* ``raises``: an exception raised two frames down and caught here;
* ``callback``: calls from C, through ``sorted(key=)`` and ``map``;
* ``decorated``: a call through a decorator's wrapper.

A function may probe: ``tracer.sample()`` plus the interpreter's own
stack (``walk_stack``).  Two checks, in full mode and with a pass
forced by ``engine.reencode()`` at some probes:

* both hit paths leave equal engine state: ``stats_snapshot()``, the
  statistics, cost report and ccStack counters, the fast-path hits and
  misses, ``same_encoding`` dictionaries per gTimeStamp, the thread
  state, the samples, every edge's ``invocations`` and the back-edge
  policy's push counters;
* every probe decodes to its stack walk (Section 6.1).
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveConfig
from repro.core.engine import DacceConfig
from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack

from .hit_paths import available, forced

SHAPES = ("plain", "deep", "mutual", "generator", "raises", "callback", "decorated")

PRELUDE = '''
def deco(fn):
    def wrapper(*args):
        return fn(*args)
    return wrapper
'''

TEMPLATES = {
    "plain": '''
def f{i}():
    {probe}
    return 1 + {calls}
''',
    "deep": '''
def f{i}(n={depth}):
    if n:
        return f{i}(n - 1) + 1
    {probe}
    return {calls}
''',
    "mutual": '''
def f{i}(n={depth}):
    if n:
        return g{i}(n - 1)
    {probe}
    return {calls}

def g{i}(n):
    return f{i}(n) + 1
''',
    "generator": '''
def gen{i}():
    yield {calls}
    {probe}
    yield 1

def outer{i}():
    yield from gen{i}()

def f{i}():
    return sum(outer{i}())
''',
    "raises": '''
def r{i}b():
    raise KeyError({i})

def r{i}a():
    return r{i}b() + 1

def f{i}():
    try:
        return r{i}a()
    except LookupError:
        {probe}
        return {calls}
''',
    "callback": '''
def k{i}(x):
    if x:
        {probe}
        return {calls}
    return 0

def m{i}(x):
    return x + 1

def f{i}():
    return sum(sorted(range(2), key=k{i})) + sum(map(m{i}, range(2)))
''',
    "decorated": '''
@deco
def f{i}():
    {probe}
    return {calls}
''',
}


@st.composite
def programs(draw: Any) -> str:
    count = draw(st.integers(2, 5))
    parts = [PRELUDE]
    for i in range(count):
        shape = draw(st.sampled_from(SHAPES))
        later = list(range(i + 1, count))
        callees = draw(st.lists(st.sampled_from(later), max_size=2)) if later else []
        probe = "probe()" if draw(st.booleans()) else "pass"
        parts.append(
            TEMPLATES[shape].format(
                i=i,
                depth=draw(st.integers(1, 40)),
                probe=probe,
                calls=" + ".join("f%d()" % j for j in callees) or "0",
            )
        )
    parts.append("def main():\n    return f0() + f%d()\n" % (count - 1))
    return "\n".join(parts)


def _trace(source: str, path: str, reencode_every: int) -> Tuple[PythonDacceTracer, List[Any]]:
    """Run ``main`` three times on ``path``; returns the tracer and its
    ``(sample, walk)`` probes.  With ``reencode_every``, every such
    probe also forces a re-encoding pass."""
    with forced(path):
        tracer = PythonDacceTracer(
            config=DacceConfig(adaptive=AdaptiveConfig(check_interval=64))
        )
    assert tracer.hit_path == path
    records: List[Any] = []

    def probe() -> None:
        records.append((tracer.sample(), walk_stack(tracer)))
        if reencode_every and len(records) % reencode_every == 0:
            tracer._detached(tracer.engine.reencode)

    namespace: Dict[str, Any] = {"probe": probe}
    exec(compile(source, "<drawn>", "exec"), namespace)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            tracer.run(namespace["main"])
    finally:
        gc.enable()
    return tracer, records


def _state(tracer: PythonDacceTracer) -> Dict[str, Any]:
    engine = tracer.engine
    snapshot = engine.stats_snapshot()
    fastpath = dict(snapshot.pop("fastpath"))
    del fastpath["hit_path"]
    thread = engine._threads[0]
    return {
        "snapshot": snapshot,
        "stats": engine.stats,
        "cost": engine.cost.report,
        "ccstack": engine.ccstack_stats(),
        "fastpath": fastpath,
        "timestamps": engine.dictionaries.timestamps(),
        "thread": (thread.id_value, list(thread.frames), thread.ccstack.entries()),
        "samples": tracer.samples,
        "suppressed": tracer.suppressed_events,
        # The compiled path folds these once per stay (``Hook.fold``).
        "invocations": {
            (edge.callsite, edge.callee): edge.invocations for edge in engine.graph.edges()
        },
        "recursion_pushes": engine.policy.recursion_pushes,
    }


@given(source=programs(), reencode_every=st.sampled_from([0, 1, 3]))
@settings(max_examples=30, deadline=None)
def test_hit_paths_leave_equal_engine_state(source, reencode_every):
    traced = {path: _trace(source, path, reencode_every) for path in available()}
    reference = traced["python"][0]
    expected = _state(reference)
    for path, (tracer, records) in traced.items():
        assert _state(tracer) == expected, path
        engine = tracer.engine
        for timestamp in expected["timestamps"]:
            assert engine.dictionaries.get(timestamp).same_encoding(
                reference.engine.dictionaries.get(timestamp)
            ), (path, timestamp)
        decoder = engine.decoder()
        for sample, walked in records:
            assert contexts_agree(decoder.decode(sample), walked), (path, sample)
        assert engine.faults.total == 0, path
