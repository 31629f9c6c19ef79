"""Golden differential test: the Python front end is pinned per program.

A fixed corpus of small Python programs runs under
:class:`PythonDacceTracer`, twice each (two start/stop runs on one
tracer):

* ``flat`` — a generated call DAG;
* ``recursive`` — fib, mutual and deep recursion;
* ``generators`` — generators, ``yield from`` and resumption from
  different frames;
* ``exceptions`` — exceptions caught inside the trace and one that
  escapes above the base frame;
* ``callbacks`` — calls from C (``sorted(key=)``, ``map``) and from
  frozen stdlib code whose frame the tracer never sees;
* ``sampled`` — the flat DAG with ``sample_every > 0``;
* ``static`` — a static-graph warm start over an on-disk package;
* ``targeted`` — targeted mode over an on-disk package, with
  automatic sampling.

For each program the fixture stores, per traced run, the SHA-256 of
the miss stream (the compact form of every event the profile hook hands
the engine's general path), the collected samples, the call-site map,
the function names and the front-end counters (``static_hits``,
``skipped_code_objects``, ``suppressed_events``).  Any change to what
the profile hook encodes inline and what it leaves to the general path,
or to how it names functions and call sites, shows up as a mismatch.
The corpus runs on both hit paths (compiled and Python), and each must
match the one fixture.

Regenerate the fixture (only for a deliberate behaviour change, named in
the change log) with::

    PYTHONPATH=src python -m tests.pytrace.test_frontend_golden
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import tempfile
import textwrap
from typing import Any, Callable, Dict, List, Optional

import pytest

from repro.core.events import compact
from repro.pytrace import PythonDacceTracer
from repro.pytrace.tracer import ROOT_FUNCTION
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.targeted import build_targeted

from .hit_paths import available, forced

FIXTURE = pathlib.Path(__file__).with_name("frontend_golden.json")
RUNS = 2


def _flat_source(functions: int = 24, seed: int = 7) -> str:
    """A call DAG: ``f<i>`` calls only higher-numbered functions."""
    rng = random.Random(seed)
    lines = []
    for i in range(functions):
        lines.append("def f%d(x):" % i)
        callees = sorted(
            rng.sample(range(i + 1, functions), min(3, functions - i - 1))
        )
        if not callees:
            lines.append("    return x + %d" % i)
        for callee in callees:
            lines.append("    x = f%d(x) %% 1000" % callee)
        lines.append("    return x")
        lines.append("")
    lines.append("def main():")
    lines.append("    total = 0")
    lines.append("    for i in range(3):")
    for entry in range(4):
        lines.append("        total += f%d(i)" % entry)
    lines.append("    probe()")
    lines.append("    return total")
    return "\n".join(lines) + "\n"


RECURSIVE = """
def fib(n):
    return n if n < 2 else fib(n - 1) + fib(n - 2)


def is_even(n):
    if n == 0:
        probe()
        return True
    return is_odd(n - 1)


def is_odd(n):
    return False if n == 0 else is_even(n - 1)


def deep(n):
    if n == 0:
        probe()
        return 0
    return deep(n - 1) + 1


def main():
    fib(12)
    is_even(40)
    deep(150)
    fib(8)
    return is_odd(31)
"""

GENERATORS = """
def leaf(i):
    return i * 2


def numbers(n):
    for i in range(n):
        yield leaf(i)


def chained(n):
    yield from numbers(n)
    yield from numbers(n // 2)


def pipeline(n):
    total = 0
    for value in chained(n):
        total += value
        if value == 8:
            probe()
    return total


def main():
    gen = chained(5)
    next(gen)
    total = pipeline(10) + sum(numbers(6))
    for value in gen:
        total += value
    return total
"""

EXCEPTIONS = """
def thrower(n):
    if n == 0:
        raise ValueError("boom")
    return thrower(n - 1)


def catcher():
    try:
        thrower(5)
    except ValueError:
        probe()
    return 1


def escape(n):
    if n == 0:
        probe()
        raise RuntimeError("escapes the traced call")
    return escape(n - 1)


def main():
    for _ in range(3):
        catcher()
    escape(4)
"""

CALLBACKS = """
from collections.abc import MutableMapping


def key(x):
    return -x


def double(x):
    return x * 2


class Store(MutableMapping):
    def __init__(self):
        self.data = {}

    def __getitem__(self, k):
        return self.data[k]

    def __setitem__(self, k, v):
        self.data[k] = v

    def __delitem__(self, k):
        del self.data[k]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def main():
    ordered = sorted(range(20), key=key)
    doubled = list(map(double, ordered))
    store = Store()
    store.update({i: i for i in range(5)})
    probe()
    return len(store) + sum(doubled) + store.get(3, 0)
"""

PACKAGE = """
def sink_op(x):
    probe()
    return x + 1


def prepare(x):
    return sink_op(x)


def churn(x):
    total = 0
    for i in range(x):
        total += shuffle(i)
    return total


def shuffle(i):
    if i % 3 == 0:
        return sink_op(i)
    if i % 2:
        return helper_a(i) + helper_a(i + 1)
    return helper_b(i)


def helper_a(i):
    return helper_b(i) + helper_b(i + 1)


def helper_b(i):
    return i * 2


def main():
    churn(12)
    value = prepare(1)
    churn(12)
    return value + prepare(2)
"""

OUTSIDE = """
def outside(x):
    return main() + x
"""


def _namespace(source: str, name: str) -> Dict[str, Any]:
    namespace: Dict[str, Any] = {"__name__": "golden_" + name}
    exec(compile(source, "<golden:%s>" % name, "exec"), namespace)
    return namespace


def _package(root: str) -> Any:
    path = os.path.join(root, "app.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent(PACKAGE))
    spec = importlib.util.spec_from_file_location("golden_app", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(
    tracer: PythonDacceTracer,
    entry: Callable[[], Any],
    probe_globals: List[Dict[str, Any]],
    expect: Optional[type] = None,
) -> Dict[str, Any]:
    """Run ``entry`` ``RUNS`` times under ``tracer``; the fixture record."""
    for namespace in probe_globals:
        namespace["probe"] = tracer.sample
    misses: List[Any] = []
    on_event = tracer.engine.on_event

    def recording(event):
        misses.append(compact(event))
        on_event(event)

    tracer.engine.on_event = recording
    streams: List[str] = []
    for _ in range(RUNS):
        if expect is None:
            tracer.run(entry)
        else:
            with pytest.raises(expect):
                tracer.run(entry)
        canonical = json.dumps(misses, separators=(",", ":"))
        streams.append(hashlib.sha256(canonical.encode()).hexdigest())
        misses.clear()
    return {
        "flush_sha256": streams,
        "samples": json.loads(json.dumps(tracer.samples)),
        "callsites": sorted(
            [caller, lasti, site]
            for caller, sites in tracer._caller_sites.items()
            for lasti, site in sites.items()
        ),
        "functions": sorted(
            [fid, info.name, os.path.basename(info.filename), info.firstlineno]
            for fid, info in tracer._function_names.items()
        ),
        "static_hits": tracer.static_hits,
        "skipped_code_objects": tracer.skipped_code_objects,
        "suppressed_events": tracer.suppressed_events,
    }


def _plain(source: str, name: str, **kwargs: Any) -> Dict[str, Any]:
    namespace = _namespace(source, name)
    return _trace(PythonDacceTracer(**kwargs), namespace["main"], [namespace])


def _static() -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as root:
        module = _package(root)
        graph = extract_package(root, index=FunctionIndex(first_id=1))
        outside = _namespace(OUTSIDE, "outside")
        outside["main"] = module.main
        tracer = PythonDacceTracer(static_graph=graph, source_root=root)
        return _trace(
            tracer, functools.partial(outside["outside"], 3), [vars(module)]
        )


def _targeted() -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as root:
        module = _package(root)
        graph = extract_package(root, index=FunctionIndex(first_id=1))
        plan = build_targeted(graph, ["sink_op"], root=ROOT_FUNCTION)
        tracer = PythonDacceTracer(
            targeted=plan, source_root=root, sample_every=5
        )
        return _trace(tracer, module.main, [vars(module)])


def _corpus() -> Dict[str, Dict[str, Any]]:
    # Garbage left by earlier code (unfinished generators, finalizers)
    # would otherwise be collected mid-trace, and its finalizer frames
    # traced as calls of the corpus programs.
    gc.collect()
    gc.disable()
    try:
        return _traced_corpus()
    finally:
        gc.enable()


def _traced_corpus() -> Dict[str, Dict[str, Any]]:
    exceptions = _namespace(EXCEPTIONS, "exceptions")
    return {
        "flat": _plain(_flat_source(), "flat"),
        "recursive": _plain(RECURSIVE, "recursive"),
        "generators": _plain(GENERATORS, "generators"),
        "exceptions": _trace(
            PythonDacceTracer(), exceptions["main"], [exceptions], RuntimeError
        ),
        "callbacks": _plain(CALLBACKS, "callbacks"),
        "sampled": _plain(_flat_source(), "flat", sample_every=41),
        "static": _static(),
        "targeted": _targeted(),
    }


PROGRAMS = [
    "flat",
    "recursive",
    "generators",
    "exceptions",
    "callbacks",
    "sampled",
    "static",
    "targeted",
]


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def corpus() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """The traced corpus on each available hit path."""
    traced = {}
    for path in available():
        with forced(path):
            traced[path] = _corpus()
    return traced


def test_fixture_covers_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("program", PROGRAMS)
def test_front_end_matches_golden(golden, corpus, program):
    for path, traced in corpus.items():
        assert traced[program] == golden[program], path


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_corpus(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % FIXTURE)
