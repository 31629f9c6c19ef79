"""IngestService: envelope stamping, folding, persistence, streaming."""

import json

import pytest

from repro.core.context import CallingContext
from repro.core.faults import PartialDecode
from repro.ingest import (
    ENVELOPE_SCHEMA,
    FRAME_SCHEMA,
    IngestError,
    IngestService,
    frame_line,
    make_frame,
    parse_envelope,
    sample_entry,
    samples_payload,
)
from repro.prof import CCTAggregator


def make_sample_line(paths, weight=1.0, gts=0, seq=0):
    payload = samples_payload(
        [sample_entry(path, weight, gts) for path in paths]
    )
    return frame_line(make_frame("profile.samples", payload, 100.0, seq))


def test_fold_counts_and_aggregation(recorded_frames):
    service = IngestService()
    summary = service.ingest_lines("r1", recorded_frames)
    assert summary["rejected"] == 0
    assert summary["folded"] == len(recorded_frames)
    assert summary["last_sequence"] == len(recorded_frames)
    stats = service.aggregator.stats()
    assert stats["samples"] > 0
    assert stats["weight"] == pytest.approx(stats["samples"] * 4)  # every=4
    # names from the run.start frame resolve in the rendered tree
    tree = json.loads(service.cct_json())
    (main,) = tree["root"]["children"]
    assert main["name"] == "main"
    assert {child["name"] for child in main["children"]} == {"a"}


def test_fold_samples_matches_the_add_decoded_route():
    """Ingest folds shipped paths directly; the tree and the aggregator
    counters equal folding the same entries as decode results."""
    entries = [
        sample_entry([0, 1, 2], 2.0, 0),
        sample_entry([0, 1], 1.0, 1),
        sample_entry([2, 3], 3.0, 1, partial=True, reason="stuck"),
        sample_entry([0, 1, 2], 1.5, 1),
        sample_entry([3], 0.5, 2, thread=1, partial=True),
    ]
    service = IngestService()
    service.ingest_lines(
        "r1",
        [frame_line(make_frame(
            "profile.samples", samples_payload(entries), 100.0, 0
        ))],
    )
    reference = CCTAggregator()
    for entry in entries:
        context = CallingContext.from_functions(entry["path"])
        result = (
            PartialDecode(context=context, complete=False)
            if entry.get("partial")
            else context
        )
        reference.add_decoded(result, entry["weight"], timestamp=entry["gts"])
    assert service.aggregator.to_dict() == reference.to_dict()
    assert service.aggregator.stats() == reference.stats()
    assert reference.stats()["samples_partial"] == 2


def test_sequence_is_strictly_monotonic_across_batches():
    service = IngestService()
    service.ingest_lines("r1", [make_sample_line([[0, 2]])])
    service.ingest_lines("r1", ["garbage", make_sample_line([[0, 2]], seq=1)])
    summary = service.ingest_lines("r1", [make_sample_line([[0, 3]], seq=2)])
    assert summary["last_sequence"] == 4  # rejects consume sequence too


def test_runs_are_isolated_sequences():
    service = IngestService()
    service.ingest_lines("a", [make_sample_line([[0, 2]])])
    summary = service.ingest_lines("b", [make_sample_line([[0, 2]])])
    assert summary["last_sequence"] == 1


def test_invalid_run_id_raises():
    service = IngestService()
    with pytest.raises(IngestError):
        service.ingest_lines("../escape", ["{}"])
    with pytest.raises(IngestError):
        service.ingest_lines("", ["{}"])


def test_rejects_are_persisted_as_envelopes(tmp_path):
    service = IngestService(data_dir=str(tmp_path))
    service.ingest_lines("r1", ["not json", make_sample_line([[0, 2]])])
    service.close()
    lines = (tmp_path / "r1" / "events.ndjson").read_text().splitlines()
    assert len(lines) == 2
    reject = parse_envelope(lines[0])
    assert reject.type == "ingest.rejected"
    assert reject.source == "api"
    assert reject.payload["reason"] == "bad-json"
    assert reject.payload["raw"] == "not json"
    accepted = parse_envelope(lines[1])
    assert accepted.type == "profile.samples"
    assert accepted.sequence == 2


def test_unknown_type_is_skipped_not_rejected():
    service = IngestService()
    line = frame_line(make_frame("future.type", {"x": 1}, 1.0, 0))
    summary = service.ingest_lines("r1", [line])
    assert summary["skipped"] == 1 and summary["rejected"] == 0
    metrics = service.metrics_text()
    assert (
        'dacce_ingest_frames_total{kind="future.type",outcome="skipped"} 1'
        in metrics
    )


def test_ingest_metrics_series():
    service = IngestService()
    service.ingest_lines(
        "r1",
        [make_sample_line([[0, 2]]), "broken", make_sample_line([[0, 2]], seq=1)],
    )
    metrics = service.metrics_text()
    assert (
        'dacce_ingest_frames_total{kind="profile.samples",outcome="folded"} 2'
        in metrics
    )
    assert (
        'dacce_ingest_frames_total{kind="invalid",outcome="rejected"} 1'
        in metrics
    )
    assert "dacce_ingest_lag_seconds_bucket{" in metrics
    assert "dacce_ingest_runs 1" in metrics


def test_producer_stats_fold_as_set_total():
    service = IngestService()
    stats_frame = frame_line(
        make_frame(
            "stats.delta",
            {"stats": {"calls": 500, "fastpath_hits": 400},
             "delta": {"calls": 500, "fastpath_hits": 400}},
            1.0,
            0,
        )
    )
    service.ingest_lines("r1", [stats_frame])
    metrics = service.metrics_text()
    assert (
        'dacce_ingest_producer_stats_total{run="r1",stat="calls"} 500'
        in metrics
    )


def test_fault_frames_count_by_kind():
    service = IngestService()
    faults = [
        frame_line(
            make_frame("fault", {"kind": "unknown-thread", "message": "x"}, 1.0, seq)
        )
        for seq in (0, 1)
    ]
    service.ingest_lines("r1", faults)
    assert (
        'dacce_ingest_producer_faults_total{kind="unknown-thread"} 2'
        in service.metrics_text()
    )


def test_partial_samples_fold_into_partial_bucket():
    payload = samples_payload(
        [sample_entry([3], 2.0, 1, partial=True, reason="unknown-context")]
    )
    line = frame_line(make_frame("profile.samples", payload, 1.0, 0))
    service = IngestService()
    service.ingest_lines("r1", [line])
    stats = service.aggregator.stats()
    assert stats["samples_partial"] == 1
    assert stats["weight_partial"] == 2.0


def test_envelope_preserves_origin_seq_and_lag():
    service = IngestService(clock=lambda: 60.0)
    line = frame_line(make_frame("heartbeat", {}, 59.5, seq=7))
    service.ingest_lines("r1", [line])
    envelope = list(service._recent)[-1]
    assert envelope.origin_seq == 7
    assert envelope.created_at == 59.5
    assert envelope.received_at == 60.0
    assert envelope.lag_seconds == pytest.approx(0.5)


def test_subscribers_get_live_envelopes():
    service = IngestService()
    subscriber = service.subscribe()
    service.ingest_lines("r1", [make_sample_line([[0, 2]])])
    envelope = subscriber.get_nowait()
    assert envelope.type == "profile.samples"
    assert envelope.run == "r1"
    service.unsubscribe(subscriber)
    service.ingest_lines("r1", [make_sample_line([[0, 2]])])
    assert subscriber.empty()


def test_subscriber_run_filter_and_backlog():
    service = IngestService()
    service.ingest_lines("a", [make_sample_line([[0, 2]])])
    service.ingest_lines("b", [make_sample_line([[0, 2]])])
    subscriber = service.subscribe(run="a", backlog=10)
    assert subscriber.get_nowait().run == "a"
    assert subscriber.empty()


def test_run_summaries():
    service = IngestService()
    service.ingest_lines("r1", [make_sample_line([[0, 2]], weight=3.0)])
    (summary,) = service.runs()
    assert summary["run"] == "r1"
    assert summary["samples"] == 1
    assert summary["weight"] == 3.0
    assert not summary["complete"]
    complete = frame_line(make_frame("run.complete", {}, 2.0, 1))
    service.ingest_lines("r1", [complete])
    assert service.runs()[0]["complete"]


def test_envelope_schema_on_the_wire(tmp_path):
    service = IngestService(data_dir=str(tmp_path))
    service.ingest_lines("r1", [make_sample_line([[0, 2]])])
    service.close()
    raw = json.loads((tmp_path / "r1" / "events.ndjson").read_text())
    assert raw["schema"] == ENVELOPE_SCHEMA
    assert raw["schema"] != FRAME_SCHEMA
    assert raw["sequence"] == 1
    assert raw["source"] == "engine"
