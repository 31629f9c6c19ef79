"""FrameEmitter: engine hooks in, validated frames out."""

import json

from repro.core.engine import DacceEngine
from repro.core.faults import FaultKind, FaultRecord
from repro.ingest import FrameEmitter, MemorySink, parse_frame

from .conftest import run_simple_workload


def frames_of(sink):
    return [json.loads(line) for line in sink.lines]


def test_lifecycle_frames_bracket_the_run(recorded_frames):
    frames = [json.loads(line) for line in recorded_frames]
    assert frames[0]["type"] == "run.start"
    assert frames[-1]["type"] == "run.complete"
    start = frames[0]["payload"]
    assert start["producer"] == "conftest"
    assert start["sample_every"] == 4
    assert start["names"]["2"] == "a"
    complete = frames[-1]["payload"]
    assert complete["calls"] == 100
    assert complete["samples_emitted"] == complete["profile_samples"]


def test_every_emitted_line_validates(recorded_frames):
    for line in recorded_frames:
        parse_frame(line)  # raises FrameError on any contract breach


def test_producer_seq_is_monotonic(recorded_frames):
    seqs = [json.loads(line)["seq"] for line in recorded_frames]
    assert seqs == list(range(len(seqs)))


def test_samples_carry_decoded_paths():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink, sample_batch=8)
    emitter.attach(engine, every=2)
    run_simple_workload(engine, 20)
    emitter.complete()
    sample_frames = [f for f in frames_of(sink) if f["type"] == "profile.samples"]
    assert sample_frames
    paths = {
        tuple(entry["path"])
        for frame in sample_frames
        for entry in frame["payload"]["samples"]
    }
    # The workload only ever sits in main->a or main->a->b.
    assert paths <= {(0, 2), (0, 2, 3)}
    total = sum(
        frame["payload"]["count"] for frame in sample_frames
    )
    assert total == engine.stats.profile_samples


def test_sample_weight_conservation():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=4)
    run_simple_workload(engine, 50)
    emitter.complete()
    weights = [
        entry["weight"]
        for frame in frames_of(sink)
        if frame["type"] == "profile.samples"
        for entry in frame["payload"]["samples"]
    ]
    # Default weigher: each 1/N sample stands for N calls.
    assert sum(weights) == engine.stats.profile_samples * 4


def test_stats_delta_only_when_counters_move():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=64)
    run_simple_workload(engine, 10)
    assert emitter.flush_stats()
    before = len(sink.lines)
    assert not emitter.flush_stats()  # nothing moved since
    assert len(sink.lines) == before
    frame = frames_of(sink)[-1]
    assert frame["type"] == "stats.delta"
    assert frame["payload"]["stats"]["calls"] == 20
    assert frame["payload"]["delta"]["calls"] == 20
    emitter.detach()


def test_fault_frames_ride_the_fault_log():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=64)
    engine.faults.record(
        FaultRecord(kind=FaultKind.UNKNOWN_THREAD, message="synthetic", thread=9)
    )
    emitter.detach()
    fault_frames = [f for f in frames_of(sink) if f["type"] == "fault"]
    assert len(fault_frames) == 1
    assert fault_frames[0]["payload"]["kind"] == "unknown-thread"
    assert fault_frames[0]["payload"]["thread"] == 9


def test_reencode_pass_frame_follows_buffered_samples():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink, sample_batch=10_000)  # never auto-flush
    emitter.attach(engine, every=2)
    run_simple_workload(engine, 10)
    engine.reencode(("new-edges",))
    emitter.complete()
    types = [f["type"] for f in frames_of(sink)]
    pass_index = types.index("reencode.pass")
    # Samples collected before the pass ship before the pass frame, so a
    # consumer never sees epoch-N samples after the epoch-N+1 marker.
    assert "profile.samples" in types[:pass_index]
    frame = frames_of(sink)[pass_index]
    assert frame["payload"]["reasons"] == ["new-edges"]
    assert frame["payload"]["gts"] >= 1


def test_detach_removes_every_hook():
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=4)
    emitter.detach()
    emitted = len(sink.lines)
    run_simple_workload(engine, 20)
    engine.faults.record(
        FaultRecord(kind=FaultKind.UNKNOWN_THREAD, message="after detach")
    )
    engine.reencode(("new-edges",))
    assert len(sink.lines) == emitted  # fully unhooked
    # The sample-hook slot is free again for another emitter.
    FrameEmitter(MemorySink()).attach(engine, every=4)


def test_sample_frame_bytes_match_canonical_serializer():
    """The hand-assembled fast-path frame line is byte-identical to
    ``frame_line(make_frame(...))`` — the wire format has one shape."""
    from repro.ingest import frame_line, make_frame, samples_payload

    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink, sample_batch=10_000, clock=lambda: 42.5)
    emitter.attach(engine, every=2)
    run_simple_workload(engine, 30)
    seq_before = emitter._seq
    emitter.flush_samples()
    actual = sink.lines[-1]
    frame = json.loads(actual)
    expected = frame_line(
        make_frame(
            "profile.samples",
            samples_payload(frame["payload"]["samples"]),
            42.5,
            seq_before,
        )
    )
    assert actual == expected
    emitter.detach()


def test_repeated_contexts_hit_the_entry_cache():
    """Steady-state flushes reuse memoized serialized entries instead of
    re-decoding — the ingest-overhead budget depends on this."""
    engine = DacceEngine()
    sink = MemorySink()
    emitter = FrameEmitter(sink, sample_batch=10_000)
    emitter.attach(engine, every=2)
    run_simple_workload(engine, 40)
    emitter.flush_samples()
    misses_after_first = len(emitter._entry_cache)
    assert misses_after_first >= 1
    run_simple_workload(engine, 40)  # identical contexts, same epoch
    decoder_calls = []
    decoder = engine.decoder()
    decoder.decode_best_effort = lambda sample: decoder_calls.append(
        sample
    )  # would blow up if consulted
    emitter.flush_samples()
    assert decoder_calls == []  # every entry came from the cache
    # The decoder lives as long as the engine: drop the instrumentation.
    del decoder.decode_best_effort
    emitter.detach()


def test_reentrant_emit_is_dropped():
    # A sink whose write path re-enters the emitter (e.g. the write
    # itself is traced): the inner emission must be dropped, not recurse.
    class ReentrantSink(MemorySink):
        emitter = None

        def _write(self, line):
            if self.emitter is not None:
                assert not self.emitter.emit("heartbeat", {})
            super()._write(line)

    sink = ReentrantSink()
    emitter = FrameEmitter(sink)
    sink.emitter = emitter
    assert emitter.emit("heartbeat", {})
    assert emitter.frames_dropped == 1
    assert len(sink.lines) == 1


def test_sink_resilience_counters_ride_stats_delta():
    class AccountingSink(MemorySink):
        def __init__(self):
            super().__init__()
            self.spooled = 0.0

        def stats(self):
            return {"frames_spooled": self.spooled, "frames_dropped": 0.0}

    engine = DacceEngine()
    sink = AccountingSink()
    emitter = FrameEmitter(sink)
    emitter.attach(engine, every=64)
    run_simple_workload(engine, 5)
    sink.spooled = 3.0
    assert emitter.flush_stats()
    frame = frames_of(sink)[-1]
    assert frame["payload"]["stats"]["frames_spooled"] == 3.0
    assert frame["payload"]["delta"]["frames_spooled"] == 3.0
    # Unchanged sink counters must not keep re-dirtying stats.delta.
    assert not emitter.flush_stats()
    sink.spooled = 4.0
    assert emitter.flush_stats()
    frame = frames_of(sink)[-1]
    assert frame["payload"]["delta"]["frames_spooled"] == 1.0
    emitter.detach()
