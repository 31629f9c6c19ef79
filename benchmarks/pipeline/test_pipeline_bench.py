"""Self-test of the pipeline benchmark harness, at tiny sizes.

Run with ``pytest benchmarks/pipeline``; the tier-1 ``testpaths`` do not
include this directory.
"""

import functools
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.pytrace import walk_stack  # noqa: E402

SPEC = run.load_spec()
NAMES = [workload["name"] for workload in SPEC["workloads"]]
PYTHON = [name for name in NAMES if name.startswith("py_")]
TINY = dict(seconds=0, size=0.05, min_iters=4)


@pytest.fixture(scope="module")
def traced_reports():
    return {name: harness.measure(name, 3, trace=True, **TINY) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted(name):
    report = harness.measure(name, 3, trace=False, **TINY)
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in report.metrics.items()} == expected
    assert all(v["value"] > 0 for v in report.metrics.values())
    result = report.to_json()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_is_emitted(traced_reports, name):
    metrics = traced_reports[name].metrics
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["errors.rate"]["value"] == 0


def test_wrong_stack_walk_raises_error_rate():
    # A partial adds no Python frame, so skip=2 drops the probe itself:
    # every walk misses its innermost function.
    walk = functools.partial(walk_stack, skip=2)
    report = harness.measure("py_flat", 3, trace=True, walk=walk, **TINY)
    assert report.metrics["errors.rate"]["value"] > 0
    assert not report.to_json()["correct"]


@pytest.mark.parametrize("name", PYTHON)
def test_warm_event_count_repeats(name):
    workload = workloads.build(name, 3, TINY["size"])
    try:
        session = workload.open_session()
        session.run(workload.program)
        first = harness.count_events(workload)
        assert first > 0
        assert harness.count_events(workload) == first
        assert harness.warm_event_count(workload) == first
    finally:
        workload.cleanup()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reproduces_deterministic_counts(traced_reports, name):
    again = harness.measure(name, 3, trace=True, **TINY).metrics
    first = traced_reports[name].metrics
    for metric in ("max_id", "ccstack_depth.mean", "adaptive.reencode.passes"):
        assert again[metric]["value"] == first[metric]["value"], metric


def test_shadow_stack_baseline_keeps_the_calling_context():
    # The synthetic workload's reference must do the work it stands for:
    # at every sample its stack is the oracle's context within the thread.
    workload = workloads.build("synthetic_x264", 3, TINY["size"])
    engine = workload.new_engine()
    oracle = []
    on_sample = engine.on_sample

    def recorded(event):
        oracle.append(engine.expected_context(event.thread).functions())
        return on_sample(event)

    engine.on_sample = recorded
    stacks, contexts = workload.new_stacks(), []
    for slab in workload.slabs:
        engine.process_columns(slab)
        workloads.shadow_stack(slab, stacks, contexts)
    assert len(contexts) == len(oracle) > 0
    for shadow, expected in zip(contexts, oracle):
        assert expected[len(expected) - len(shadow):] == shadow


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_changes_inputs(name):
    prints = []
    for seed in (3, 3, 4):
        workload = workloads.build(name, seed, TINY["size"])
        workload.cleanup()
        prints.append(workload.fingerprint)
    assert prints[0] == prints[1] != prints[2]


def _summary(values):
    return dict(runs=values, **run.quartiles(values))


def test_compare_verdicts():
    base = _summary([100.0, 101.0, 99.0, 100.0])
    assert run.compare_metric(base, _summary([120.0, 121.0, 119.0, 120.0]), "lower", 0.1)[
        "status"] == "REGRESSION"
    assert run.compare_metric(base, _summary([80.0, 81.0, 79.0, 80.0]), "lower", 0.1)[
        "status"] == "better"
    assert run.compare_metric(base, _summary([102.0, 101.0, 99.0, 100.0]), "lower", 0.1)[
        "status"] == "unchanged"
    noisy = _summary([60.0, 140.0, 100.0, 120.0])
    assert run.compare_metric(base, noisy, "lower", 0.1)["status"] == "unresolved"
    assert run.compare_metric(base, _summary([90.0, 90.5, 89.5, 90.0]), "higher", 0.05)[
        "status"] == "REGRESSION"


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "py_flat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
