"""Fleet acceptance: concurrent producer processes, zero frame loss.

Four producer *processes* POST sample frames at one IngestService
concurrently; afterwards the merged state must show every sample (zero
loss), a strictly monotonic per-run sequence, and exact weight
conservation in the merged CCT.
"""

import json
import multiprocessing
import urllib.request

import pytest

from repro.ingest import (
    HTTPFrameSink,
    frame_line,
    make_frame,
    replay_file,
    sample_entry,
    samples_payload,
    serve_ingest,
)

PRODUCERS = 4
FRAMES_PER_PRODUCER = 25
SAMPLES_PER_FRAME = 1000
SAMPLES_PER_PRODUCER = FRAMES_PER_PRODUCER * SAMPLES_PER_FRAME
TOTAL_SAMPLES = PRODUCERS * SAMPLES_PER_PRODUCER  # 100_000


def produce(url: str, producer_index: int) -> None:
    """One producer process: POST its frames through an HTTPFrameSink."""
    sink = HTTPFrameSink(url, run="producer-%d" % producer_index,
                         batch_bytes=256 * 1024)
    path = [0, 2, 10 + producer_index]  # distinct leaf per producer
    seq = 0
    sink.emit(frame_line(make_frame(
        "run.start", {"producer": "proc-%d" % producer_index}, 0.0, seq)))
    for _ in range(FRAMES_PER_PRODUCER):
        seq += 1
        payload = samples_payload(
            [sample_entry(path, 1.0, 0) for _ in range(SAMPLES_PER_FRAME)]
        )
        sink.emit(frame_line(make_frame("profile.samples", payload, 0.0, seq)))
    sink.emit(frame_line(make_frame("run.complete", {}, 0.0, seq + 1)))
    sink.flush()


@pytest.mark.slow
def test_concurrent_producers_zero_loss(tmp_path):
    server = serve_ingest(data_dir=str(tmp_path / "data"))
    try:
        workers = [
            multiprocessing.Process(target=produce, args=(server.url, index))
            for index in range(PRODUCERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        # Zero loss: every sample of every producer is in the merged CCT.
        cct = json.loads(
            urllib.request.urlopen(server.url + "/cct", timeout=10).read()
        )
        assert cct["samples"] == TOTAL_SAMPLES
        # Weight conservation, exactly (unit weights sum to the count).
        assert cct["weight"] == float(TOTAL_SAMPLES)

        runs = json.loads(
            urllib.request.urlopen(server.url + "/runs", timeout=10).read()
        )
        assert len(runs) == PRODUCERS
        for run in runs:
            assert run["samples"] == SAMPLES_PER_PRODUCER
            assert run["outcomes"] == {"folded": FRAMES_PER_PRODUCER + 2}
            assert run["complete"]

        # Strictly monotonic sequence per run, no gaps, starting at 1.
        for index in range(PRODUCERS):
            body = urllib.request.urlopen(
                "%s/runs/producer-%d/events" % (server.url, index), timeout=10
            ).read().decode()
            sequences = [
                json.loads(line)["sequence"]
                for line in body.strip().splitlines()
            ]
            assert sequences == list(range(1, FRAMES_PER_PRODUCER + 3))
    finally:
        server.shutdown()

    # And the persisted logs replay to the same totals.
    merged, _ = replay_file(str(tmp_path / "data" / "producer-0" / "events.ndjson"))
    for index in range(1, PRODUCERS):
        run_dir = tmp_path / "data" / ("producer-%d" % index)
        replay_file(str(run_dir / "events.ndjson"), service=merged)
    assert merged.aggregator.stats()["samples"] == TOTAL_SAMPLES
