"""A small on-disk package for targeted-mode tests.

Two sinks with a tracked call DAG above them, and an untracked forest
next to it.  Some untracked leaves re-enter tracked code through
``HANDLERS``, a subscript call the static extractor cannot resolve, so
every re-entry is a runtime-only boundary crossing.  ``probe()`` runs
at a tracked sink (a departure into the caller's probe) and inside the
untracked forest (a suppressed region).  This is the shape of the
pipeline benchmark's ``py_targeted`` workload, at a size a test can
trace in well under a second.
"""

from __future__ import annotations

import importlib.util
import os
import textwrap
from types import ModuleType
from typing import Callable, Set, Tuple

from repro.core.ccstack import UNTRACKED_FUNCTION
from repro.core.context import CallingContext
from repro.pytrace.tracer import ROOT_FUNCTION
from repro.static.graph import StaticCallGraph
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.targeted import TargetedPlan, build_targeted

SINKS = ("sink_0", "sink_1")

SOURCE = textwrap.dedent(
    """
    def sink_0(x):
        probe()
        return (x * 3 + 1) & 1023


    def sink_1(x):
        return (x * 5 + 2) & 1023


    def t1_0(x):
        return sink_0(x + 1) + sink_1(x ^ 3)


    def t1_1(x):
        return sink_1(x + 1) + sink_0(x ^ 3)


    def t0_0(x):
        return t1_0(x + 1) + t1_1(x ^ 3)


    def u2_0(x):
        return HANDLERS[x % 2](x)


    def u2_1(x):
        probe()
        return (x * 7) & 511


    def u2_2(x):
        return (x * 9) & 511


    def u1_0(x):
        return u2_0(x + 2) + u2_1(x ^ 5)


    def u1_1(x):
        return u2_1(x + 2) + u2_2(x ^ 5)


    def u0_0(x):
        return u1_0(x + 2) + u1_1(x ^ 5)


    HANDLERS = (t1_0, t1_1)


    def run_iteration(rounds):
        total = 0
        for i in range(rounds):
            total += t0_0(i) + u0_0(i)
        return total
    """
)


def load(
    directory: str, probe: Callable[[], None]
) -> Tuple[ModuleType, StaticCallGraph]:
    """Write the package into ``directory``; import it and extract it."""
    path = os.path.join(directory, "app.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(SOURCE)
    graph = extract_package(directory, index=FunctionIndex(first_id=1))
    spec = importlib.util.spec_from_file_location("targeted_app", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.probe = probe  # type: ignore[attr-defined]
    return module, graph


def plan_for(graph: StaticCallGraph) -> TargetedPlan:
    """A fresh plan (each engine needs its own warm-start edges)."""
    return build_targeted(graph, list(SINKS), root=ROOT_FUNCTION)


def project(walked: CallingContext, tracked: Set[int]) -> Tuple[int, ...]:
    """A stack walk as a targeted decode names it: each maximal run of
    out-of-plan functions becomes one ``<untracked>`` step."""
    out = []
    for function in walked.functions():
        if function in tracked:
            out.append(function)
        elif not out or out[-1] != UNTRACKED_FUNCTION:
            out.append(UNTRACKED_FUNCTION)
    return tuple(out)
