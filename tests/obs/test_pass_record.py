"""One record per re-encoding pass, exported many ways.

The engine keeps each pass once, as a ``ReencodePassReport`` in
``engine.reencode_passes``.  ``reencode_log``, the ``engine.reencode``
span, the ``reencode.pass`` frame, the pass metrics and both JSON
snapshots are all derived from that one object.
"""

import json

import pytest

from repro.core.adaptive import AdaptiveConfig
from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.ingest import FrameEmitter, MemorySink
from repro.obs import SpanRecorder, Telemetry, parse_json_snapshot


def recursion_columns(rounds=200, depth=5):
    """root -> f, then ``rounds`` descents of ``depth`` self-recursive calls."""
    cols = EventColumns()
    cols.push_call(0, 1, 0, 1)
    for _ in range(rounds):
        for _ in range(depth):
            cols.push_call(0, 2, 1, 1)
        for _ in range(depth):
            cols.push_return(0)
    cols.push_return(0)
    return cols


@pytest.fixture
def observed():
    """An engine with every exporter attached, after committed and no-op
    passes (the recursion keeps trigger (c) firing on a settled graph)."""
    telemetry = Telemetry()
    spans = SpanRecorder("engine")
    engine = DacceEngine(
        root=0,
        config=DacceConfig(adaptive=AdaptiveConfig(check_interval=16)),
        telemetry=telemetry,
        spans=spans,
    )
    sink = MemorySink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=7)
    engine.process_columns(recursion_columns())
    engine.reencode()
    emitter.complete()
    frames = [json.loads(line) for line in sink.lines]
    return engine, telemetry, spans, frames


def test_passes_include_both_outcomes(observed):
    engine, _telemetry, _spans, _frames = observed
    outcomes = [report.outcome for report in engine.reencode_passes]
    assert outcomes.count("committed") == engine.stats.reencodings == 3
    assert outcomes.count("no-op") == engine.stats.reencode_noops >= 3
    assert outcomes[-1] == "committed"  # the explicit pass
    assert engine.reencode_passes[-1].reasons == ("manual",)


def test_each_pass_is_one_object_held_by_the_engine(observed):
    engine, telemetry, _spans, _frames = observed
    passes = engine.reencode_passes
    assert len({id(report) for report in passes}) == len(passes)
    assert telemetry.passes is passes


def test_reencode_log_is_the_committed_subset(observed):
    engine, _telemetry, _spans, _frames = observed
    committed = [r for r in engine.reencode_passes if r.outcome == "committed"]
    log = engine.reencode_log
    assert len(log) == len(committed)
    assert all(a is b for a, b in zip(log, committed))
    assert [r.timestamp for r in log] == [1, 2, 3]
    # A view, not storage: mutating the returned list changes nothing.
    log.clear()
    assert len(engine.reencode_log) == len(committed)


def test_one_span_per_pass_carrying_the_report(observed):
    engine, _telemetry, spans, _frames = observed
    records = spans.spans(name="engine.reencode")
    assert [record["attrs"] for record in records] == [
        report.to_dict() for report in engine.reencode_passes
    ]
    assert all(record["stage"] == "engine" for record in records)


def test_one_frame_per_committed_pass_with_unchanged_payload(observed):
    engine, _telemetry, _spans, frames = observed
    payloads = [f["payload"] for f in frames if f["type"] == "reencode.pass"]
    assert payloads == [
        {
            "gts": report.timestamp,
            "at_call": report.at_call,
            "nodes": report.nodes,
            "edges": report.edges,
            "max_id": report.max_id,
            "reasons": list(report.reasons),
            "cost_cycles": report.cost_cycles,
        }
        for report in engine.reencode_log
    ]


def test_metrics_count_every_reason_of_every_pass(observed):
    engine, telemetry, _spans, _frames = observed
    snapshot = telemetry.snapshot()
    by_reason = {
        series["labels"]["reason"]: series["value"]
        for series in snapshot["dacce_reencode_passes_total"]["series"]
    }
    assert sum(by_reason.values()) == sum(
        len(report.reasons) for report in engine.reencode_passes
    )
    durations = snapshot["dacce_reencode_duration_seconds"]["series"][0]
    assert durations["count"] == len(engine.reencode_passes)
    text = telemetry.to_prometheus()
    assert text.count("dacce_reencode_pass_duration_seconds{") == len(
        engine.reencode_passes
    )


def test_json_snapshots_are_the_reports(observed):
    engine, telemetry, _spans, _frames = observed
    expected = [report.to_dict() for report in engine.reencode_passes]
    assert parse_json_snapshot(telemetry.to_json())["reencode_passes"] == expected
    assert engine.stats_snapshot()["reencode_passes"] == expected
