"""CLI telemetry surfaces: ``dacce metrics`` and ``dacce trace``."""

import json
import re

from repro.cli import main


def test_metrics_prometheus_output(capsys):
    assert main(["metrics", "--calls", "6000"]) == 0
    out = capsys.readouterr().out
    # Acceptance surface: depth histogram, indirect hit/miss counters,
    # and a pass report with its trigger reason and gTimeStamp.
    assert "dacce_ccstack_depth_bucket{le=" in out
    assert 'dacce_indirect_dispatch_total{result="hit"}' in out
    assert 'dacce_indirect_dispatch_total{result="miss"}' in out
    assert "dacce_reencode_pass_duration_seconds{" in out
    assert 'gts="1"' in out
    assert 'reasons="' in out
    assert "# TYPE dacce_events_total counter" in out
    # The workload runs through the columnar kernel, not per event.
    hits = re.search(r'^dacce_fastpath_total\{result="hit"\} (\d+)', out, re.M)
    assert hits is not None and int(hits.group(1)) > 0


def test_metrics_json_output(capsys):
    assert main(["metrics", "--calls", "6000", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["format"] == 1
    assert document["reencode_passes"]
    first = document["reencode_passes"][0]
    assert first["timestamp"] == 1
    assert first["reasons"]
    assert "dacce_ccstack_depth" in document["metrics"]


def test_metrics_output_file(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    assert main(["metrics", "--calls", "6000", "--output", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "dacce_ccstack_depth_bucket" in path.read_text()


def test_trace_stdout_jsonl(capsys):
    assert main(["trace", "--calls", "6000", "--limit", "5"]) == 0
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    assert lines
    records = [json.loads(line) for line in lines]
    assert any(record["name"] == "engine.reencode" for record in records)
    assert any(record["name"] == "engine.thread_start" for record in records)


def test_trace_output_file(tmp_path, capsys):
    from repro.obs.spans import is_span_record

    path = tmp_path / "trace.jsonl"
    assert main(["trace", "--calls", "6000", "--output", str(path)]) == 0
    assert "span records" in capsys.readouterr().out
    records = [
        json.loads(line) for line in path.read_text().splitlines() if line
    ]
    assert any(record["name"] == "engine.reencode" for record in records)
    assert all(is_span_record(record) for record in records)
    assert all(record["stage"] == "engine" for record in records)
