"""CLI profiling surfaces: ``dacce profile {record,report,flame,diff,serve}``
plus the structured-error conventions the observability verbs share."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from dataclasses import replace

import pytest

from repro.cli import _live_profile, _telemetry_workload, main
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.samplelog import SampleLog
from repro.prof import CCTAggregator, names_from_program, parse_folded
from repro.program.trace import WorkloadSpec, run_workload_columnar


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One CLI recording shared by the read-side verb tests."""
    prefix = str(tmp_path_factory.mktemp("profile") / "run")
    assert main([
        "profile", "record", "--prefix", prefix,
        "--calls", "30000", "--seed", "3", "--sample-every", "64",
    ]) == 0
    return prefix


def test_record_writes_log_state_and_names(recorded, capsys):
    for suffix in (".log", ".state.json", ".names.json"):
        assert os.path.exists(recorded + suffix)
    names = json.load(open(recorded + ".names.json"))
    assert names[min(names, key=int)]  # ids -> non-empty display names
    log = SampleLog.from_bytes(open(recorded + ".log", "rb").read())
    assert len(log) > 0


def test_record_reports_self_overhead(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    assert main([
        "profile", "record", "--prefix", prefix, "--calls", "8000",
    ]) == 0
    out = capsys.readouterr().out
    assert "self-overhead account" in out
    assert "profiler sampling" in out


def test_report_prints_summary_and_table(recorded, capsys):
    assert main([
        "profile", "report", "--state", recorded + ".state.json",
        "--log", recorded + ".log", "--names", recorded + ".names.json",
        "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out and "epoch(s)" in out
    assert "calling context" in out
    assert " -> " in out


def test_flame_total_weight_equals_sample_count(recorded, tmp_path, capsys):
    output = str(tmp_path / "run.folded")
    assert main([
        "profile", "flame", "--state", recorded + ".state.json",
        "--log", recorded + ".log", "--output", output,
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    log = SampleLog.from_bytes(open(recorded + ".log", "rb").read())
    parsed = parse_folded(open(output).read())
    assert sum(parsed.values()) == len(log)
    assert not any(stack[0] == "<partial>" for stack in parsed)


def test_flame_128k_sample_log(recorded, tmp_path, capsys):
    """The acceptance check at scale: a 128k-sample DCL2 log folds to
    stacks whose total weight equals the sample count, partials under
    ``<partial>`` (zero of them on this clean log)."""
    base = SampleLog.from_bytes(open(recorded + ".log", "rb").read())
    samples = base.samples()
    big = SampleLog()
    index = 0
    while len(big) < 128_000:
        big.append(samples[index % len(samples)])
        index += 1
    big_path = str(tmp_path / "big.log")
    with open(big_path, "wb") as handle:
        handle.write(big.to_bytes())

    output = str(tmp_path / "big.folded")
    assert main([
        "profile", "flame", "--state", recorded + ".state.json",
        "--log", big_path, "--output", output, "--jobs", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "<partial> weight 0" in out
    parsed = parse_folded(open(output).read())
    assert sum(parsed.values()) == 128_000
    assert not any(stack[0] == "<partial>" for stack in parsed)


def test_diff_recorded_profiles(recorded, tmp_path, capsys):
    other = str(tmp_path / "other")
    assert main([
        "profile", "record", "--prefix", other,
        "--calls", "30000", "--seed", "9", "--sample-every", "64",
    ]) == 0
    capsys.readouterr()
    assert main([
        "profile", "diff",
        "--state-a", recorded + ".state.json", "--log-a", recorded + ".log",
        "--names-a", recorded + ".names.json",
        "--state-b", other + ".state.json", "--log-b", other + ".log",
        "--names-b", other + ".names.json",
        "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["before_total"] > 0 and doc["after_total"] > 0
    assert doc["new"] or doc["regressed"] or doc["vanished"]


def test_diff_folded_identity(recorded, tmp_path, capsys):
    folded = str(tmp_path / "self.folded")
    assert main([
        "profile", "flame", "--state", recorded + ".state.json",
        "--log", recorded + ".log", "--output", folded,
    ]) == 0
    capsys.readouterr()
    assert main([
        "profile", "diff", "--folded-a", folded, "--folded-b", folded,
    ]) == 0
    out = capsys.readouterr().out
    assert "new: 0  vanished: 0  regressed: 0  improved: 0" in out


def test_serve_subprocess_end_to_end(tmp_path):
    trace_path = str(tmp_path / "serve-trace.jsonl")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "profile", "serve",
            "--port", "0", "--calls", "4000", "--duration", "6",
            "--sample-every", "32", "--trace-output", trace_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on" in banner, banner
        url = banner.rsplit(" ", 1)[-1].strip()
        health = None
        for _ in range(50):
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2) as r:
                    health = json.loads(r.read())
                if health["samples"] > 0:
                    break
            except OSError:
                pass
            time.sleep(0.1)
        assert health is not None and health["samples"] > 0
        with urllib.request.urlopen(url + "/flame", timeout=5) as response:
            folded = response.read().decode()
        assert parse_folded(folded)
        with urllib.request.urlopen(url + "/metrics", timeout=5) as response:
            metrics = response.read().decode()
        assert "dacce_prof_samples_total" in metrics
        assert (
            'dacce_ingest_frames_total{kind="profile.samples",outcome="folded"}'
            in metrics
        )
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        assert "served" in out
        # The self-overhead account is printed at exit, and the
        # sampling hook's own cost is a non-zero row of it.
        assert "self-overhead account" in out
        profiler_row = re.search(r"profiler \(sample\):\s+(\d+)", out)
        assert profiler_row is not None, out
        assert int(profiler_row.group(1)) > 0
        assert os.path.exists(trace_path)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def test_serve_pipeline_matches_per_sample_reference():
    """``profile serve``'s in-process ingest plane builds the same CCT
    document as decoding every sample on arrival with a fresh decoder."""
    program, _ = _telemetry_workload(argparse.Namespace(seed=1, calls=20_000))
    spec = WorkloadSpec(
        calls=20_000, seed=2, sample_period=0, recursion_affinity=0.4
    )

    def run_passes(engine, after_pass):
        for index in range(6):
            run_workload_columnar(
                program, replace(spec, seed=spec.seed + index), engine
            )
            after_pass()

    config = DacceConfig(retain_samples=False)
    reference_engine = DacceEngine(root=program.main, config=config)
    aggregator = CCTAggregator(names=names_from_program(program))

    def deliver(sample, weight):
        aggregator.decoder = reference_engine.decoder()
        aggregator.add_sample(sample, weight)

    reference_engine.install_sample_hook(64, deliver)
    run_passes(reference_engine, lambda: None)

    engine = DacceEngine(root=program.main, config=config)
    emitter, service, fold = _live_profile(engine, program, 64)
    run_passes(engine, fold)
    emitter.complete()
    fold()

    stats = aggregator.stats()
    assert stats["samples"] > 1000 and stats["epochs"] > 1, stats
    assert service.cct_json() == json.dumps(aggregator.to_dict(), indent=2) + "\n"


# ----------------------------------------------------------------------
# structured errors (shared observability CLI convention)
# ----------------------------------------------------------------------
def fault_output(capsys):
    captured = capsys.readouterr()
    assert captured.out.startswith("FAULT:"), captured
    return captured.out


def test_profile_report_missing_state_is_structured(tmp_path, capsys):
    assert main([
        "profile", "report", "--state", str(tmp_path / "no.state.json"),
        "--log", str(tmp_path / "no.log"),
    ]) == 1
    assert "state file unreadable" in fault_output(capsys)


def test_profile_flame_missing_log_is_structured(recorded, tmp_path, capsys):
    assert main([
        "profile", "flame", "--state", recorded + ".state.json",
        "--log", str(tmp_path / "gone.log"),
    ]) == 1
    assert "log file unreadable" in fault_output(capsys)


def test_profile_diff_incomplete_side_is_structured(capsys):
    assert main(["profile", "diff", "--folded-a", "/nonexistent"]) == 1
    assert "folded file (a) unreadable" in fault_output(capsys)
    assert main(["profile", "diff", "--log-a", "x.log"]) == 1
    assert "side a needs" in fault_output(capsys)


def test_profile_record_unwritable_prefix_is_structured(tmp_path, capsys):
    assert main([
        "profile", "record",
        "--prefix", str(tmp_path / "missing-dir" / "run"),
        "--calls", "2000",
    ]) == 1
    assert "profile output unwritable" in fault_output(capsys)


def test_metrics_unwritable_output_is_structured(tmp_path, capsys):
    assert main([
        "metrics", "--calls", "2000",
        "--output", str(tmp_path / "missing-dir" / "m.prom"),
    ]) == 1
    assert "metrics output unwritable" in fault_output(capsys)


def test_trace_unwritable_output_is_structured(tmp_path, capsys):
    assert main([
        "trace", "--calls", "2000",
        "--output", str(tmp_path / "missing-dir" / "t.jsonl"),
    ]) == 1
    assert "trace output unwritable" in fault_output(capsys)


def test_decode_missing_inputs_are_structured(tmp_path, capsys):
    assert main([
        "decode", "--state", str(tmp_path / "no.state.json"),
        "--log", str(tmp_path / "no.log"),
    ]) == 1
    assert "state file unreadable" in fault_output(capsys)
