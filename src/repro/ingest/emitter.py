"""The producer side of the ingestion plane: engine state → frames.

:class:`FrameEmitter` attaches to a :class:`~repro.core.engine.DacceEngine`
and turns every observable action into ``dacce.engine.events.v1`` frames
through a pluggable :class:`~repro.ingest.sinks.EventSink`:

* **Sample batches** — rides the engine's continuous-profiling hook;
  samples are buffered raw on the hot path (one list append) and decoded
  lazily at flush time through ``engine.decoder()`` (one live decoder
  per engine, memoised by its :class:`~repro.core.decoder.DecodeCache`),
  then emitted as one ``profile.samples`` frame carrying decoded paths.
* **Re-encoding passes** — via ``engine.reencode_listeners``; one
  ``reencode.pass`` frame per committed pass.
* **Faults** — via ``engine.faults.subscribe``; one ``fault`` frame per
  quarantined event (``recover`` policy).
* **Stat deltas** — at each flush, a ``stats.delta`` frame with the
  cheap cumulative counters (calls, fast-path hits, decode-cache hits …)
  plus the delta since the previous frame — the fleet dashboard's
  throughput feed.
* **Heartbeats / lifecycle** — ``heartbeat`` on request or every
  ``heartbeat_every`` seconds (checked at flush points), ``run.start``
  on attach and ``run.complete`` on :meth:`complete`.

Everything user-visible is re-entrancy guarded: if emitting a frame
somehow re-enters the emitter (a traced producer tracing its own
telemetry writes), the inner emission is dropped and counted.  The
pytrace tracer never re-enters it: it detaches its profile hook for the
duration of every engine call it makes.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.context import CollectedSample
from ..obs.spans import NULL_SPANS, SpanRecorder
from .frames import FRAME_SCHEMA, frame_line, make_frame, sample_entry
from .sinks import EventSink, SinkError

logger = logging.getLogger(__name__)

DEFAULT_SAMPLE_BATCH = 256

#: Bound on the memoized serialized-entry cache (cleared wholesale when
#: full — the hot-context working set is far smaller in practice).
ENTRY_CACHE_CAPACITY = 8192


class FrameEmitter:
    """Emit schema-versioned event frames for one engine run."""

    def __init__(
        self,
        sink: EventSink,
        run: Optional[str] = None,
        producer: Optional[str] = None,
        sample_batch: int = DEFAULT_SAMPLE_BATCH,
        heartbeat_every: float = 0.0,
        clock: Callable[[], float] = time.time,
        spans: Optional[SpanRecorder] = None,
    ):
        if sample_batch <= 0:
            raise ValueError("sample_batch must be positive")
        self.sink = sink
        # Span tracing: one root span per flush, its identity stamped
        # into every frame emitted during the flush (the additive
        # ``trace`` field) and shared with the sink so transport spans
        # nest under it.  Strictly no-op when disabled.
        self.spans = spans if spans is not None else NULL_SPANS
        if self.spans.enabled:
            sink.set_spans(self.spans)
        self.run = run
        self.producer = producer
        self.sample_batch = sample_batch
        self.heartbeat_every = heartbeat_every
        self._clock = clock
        self._seq = 0
        self._in_emit = False
        self._engine = None
        self._buffer: List[Tuple[CollectedSample, float]] = []
        self._entry_cache: Dict[Tuple[CollectedSample, float], str] = {}
        self._last_stats: Dict[str, float] = {}
        self._last_heartbeat = 0.0
        #: Trace identity of the currently open flush span, stamped
        #: into frames; ``None`` outside a flush or with spans off.
        self._flush_trace: Optional[Dict[str, str]] = None
        #: Wall-clock duration of the most recent :meth:`flush`
        #: (heartbeat delivery-health field).
        self.last_flush_seconds = 0.0
        self._fault_listener: Optional[Callable[..., None]] = None
        self._reencode_listener: Optional[Callable[..., None]] = None
        #: Frames emitted / dropped (sink failures and re-entrant calls).
        self.frames_emitted = 0
        self.frames_dropped = 0
        self.samples_emitted = 0
        self.sink_errors = 0

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------
    def emit(self, type: str, payload: Dict[str, Any]) -> bool:
        """Serialize + deliver one frame; False when dropped/re-entrant."""
        if self._in_emit:
            self.frames_dropped += 1
            return False
        frame = make_frame(
            type, payload, self._clock(), self._seq, trace=self._flush_trace
        )
        return self._deliver(frame_line(frame))

    def _deliver(self, line: str) -> bool:
        """Hand one already-serialized frame line (built against the
        current ``seq``) to the sink; the sequence number is consumed
        only when the guard admits the call."""
        if self._in_emit:
            self.frames_dropped += 1
            return False
        self._in_emit = True
        try:
            self._seq += 1
            if self.sink.emit(line):
                self.frames_emitted += 1
                return True
            self.frames_dropped += 1
            return False
        finally:
            self._in_emit = False

    def _flush_sink(self) -> None:
        try:
            self.sink.flush()
        except SinkError:
            self.sink_errors += 1
            logger.warning("frame sink flush failed", exc_info=True)

    # ------------------------------------------------------------------
    # engine attachment
    # ------------------------------------------------------------------
    def attach(
        self,
        engine,
        every: int = 64,
        weigher: Optional[Callable[[], float]] = None,
        names: Optional[Dict[int, str]] = None,
    ) -> "FrameEmitter":
        """Hook into ``engine``; emits the ``run.start`` frame.

        Installs the engine's continuous-profiling hook (one per
        engine), subscribes to the fault log and the re-encoding
        listener list.  :meth:`detach` (or :meth:`complete`) undoes all
        three.
        """
        if self._engine is not None:
            raise RuntimeError("emitter already attached to an engine")
        self._engine = engine
        engine.install_sample_hook(every, self._on_sample, weigher=weigher)
        self._fault_listener = engine.faults.subscribe(self._on_fault)
        self._reencode_listener = self._on_reencode
        engine.reencode_listeners.append(self._reencode_listener)
        start_payload: Dict[str, Any] = {
            "producer": self.producer,
            "sample_every": every,
            "root": engine.graph.root,
        }
        if self.run is not None:
            start_payload["run"] = self.run
        if names:
            start_payload["names"] = {str(k): v for k, v in names.items()}
        self.emit("run.start", start_payload)
        return self

    def detach(self) -> None:
        engine = self._engine
        if engine is None:
            return
        self.flush()
        engine.remove_sample_hook()
        if self._fault_listener is not None:
            engine.faults.unsubscribe(self._fault_listener)
            self._fault_listener = None
        if self._reencode_listener is not None:
            try:
                engine.reencode_listeners.remove(self._reencode_listener)
            except ValueError:
                pass
            self._reencode_listener = None
        self._engine = None
        self._entry_cache.clear()

    def complete(self) -> None:
        """Flush, emit ``run.complete``, flush the sink, detach."""
        engine = self._engine
        self.flush()
        payload: Dict[str, Any] = {}
        if engine is not None:
            payload = {
                "calls": engine.stats.calls,
                "returns": engine.stats.returns,
                "profile_samples": engine.stats.profile_samples,
                "reencodings": engine.stats.reencodings,
                "faults": engine.faults.total,
            }
        payload["frames_emitted"] = self.frames_emitted
        payload["samples_emitted"] = self.samples_emitted
        self.emit("run.complete", payload)
        self._flush_sink()
        self.detach()

    # ------------------------------------------------------------------
    # hot-path hooks
    # ------------------------------------------------------------------
    def _on_sample(self, sample: CollectedSample, weight: float) -> None:
        # One append per sample; decoding and serialization happen at
        # flush time, off the producer hot path.
        buffer = self._buffer
        buffer.append((sample, weight))
        if len(buffer) >= self.sample_batch:
            self.flush()

    def _on_fault(self, record) -> None:
        self.emit("fault", record.to_dict())

    def _on_reencode(self, record) -> None:
        self.flush_samples()  # samples of the old epoch ship before the pass
        self.emit(
            "reencode.pass",
            {
                "gts": record.timestamp,
                "at_call": record.at_call,
                "nodes": record.nodes,
                "edges": record.edges,
                "max_id": record.max_id,
                "reasons": list(record.reasons),
                "cost_cycles": record.cost_cycles,
            },
        )

    # ------------------------------------------------------------------
    # flush points
    # ------------------------------------------------------------------
    def flush_samples(self) -> int:
        """Decode + emit buffered samples as one ``profile.samples`` frame.

        Entries are memoized as serialized JSON fragments keyed by
        ``(sample, weight)``: steady-state workloads revisit the same
        hot contexts, so a flush is mostly dictionary lookups plus one
        join instead of per-sample decode + serialization.  Misses
        decode through the engine's one live decoder, which always sees
        the engine's current dictionaries, call sites and thread
        parents.  Only complete decodes are cached — a partial decode
        can become complete after the next re-encoding pass — mirroring
        the DecodeCache's failed-decodes-are-not-cached policy.
        """
        if not self._buffer or self._engine is None:
            return 0
        buffer, self._buffer = self._buffer, []
        decoder = self._engine.decoder()
        cache = self._entry_cache
        fragments = []
        append = fragments.append
        for key in buffer:
            fragment = cache.get(key)
            if fragment is None:
                sample, weight = key
                result = decoder.decode_best_effort(sample)
                entry = sample_entry(
                    result.context.functions(),
                    weight,
                    sample.timestamp,
                    thread=sample.thread,
                    partial=not result.complete,
                    reason=(
                        result.fault.reason
                        if result.fault is not None
                        else None
                    ),
                )
                fragment = json.dumps(
                    entry, sort_keys=True, separators=(",", ":")
                )
                if result.complete:
                    if len(cache) >= ENTRY_CACHE_CAPACITY:
                        cache.clear()
                    cache[key] = fragment
            append(fragment)
        # Hand-assembled for speed, byte-identical to what
        # frame_line(make_frame(...)) produces (sorted keys, compact
        # separators) — tests/ingest/test_emitter.py pins this.  The
        # optional ``trace`` key sorts between ``seq`` and ``type``.
        trace = self._flush_trace
        trace_fragment = (
            '"trace":{"id":"%s","span":"%s"},' % (trace["id"], trace["span"])
            if trace is not None
            else ""
        )
        line = (
            '{"created_at":%s,"payload":{"count":%d,"samples":[%s]},'
            '"schema":"%s","seq":%d,%s"type":"profile.samples"}'
            % (
                json.dumps(self._clock()),
                len(fragments),
                ",".join(fragments),
                FRAME_SCHEMA,
                self._seq,
                trace_fragment,
            )
        )
        self._deliver(line)
        self.samples_emitted += len(fragments)
        return len(fragments)

    def _stats_cumulative(self) -> Dict[str, float]:
        engine = self._engine
        assert engine is not None
        stats = engine.stats
        cache = engine._decode_cache
        cumulative: Dict[str, float] = {
            "calls": stats.calls,
            "returns": stats.returns,
            "handler_invocations": stats.handler_invocations,
            "reencodings": stats.reencodings,
            "profile_samples": stats.profile_samples,
            "fastpath_hits": engine.fastpath.hits,
            "fastpath_misses": engine.fastpath.misses,
            "decode_cache_hits": cache.hits,
            "decode_cache_misses": cache.misses,
            "faults": engine.faults.total,
        }
        # Delivery-resilience counters (spool/replay/drop accounting)
        # ride the same stats.delta surface, so the service's
        # ingest_producer_stats_total mirror exposes transport loss.
        # Sinks only report failure counters here — a counter that
        # moved on every emitted frame would make stats.delta dirty
        # itself forever.
        cumulative.update(self.sink.stats())
        return cumulative

    def flush_stats(self) -> bool:
        """Emit a ``stats.delta`` frame when any counter moved."""
        if self._engine is None:
            return False
        cumulative = self._stats_cumulative()
        if cumulative == self._last_stats:
            return False
        delta = {
            name: value - self._last_stats.get(name, 0)
            for name, value in cumulative.items()
        }
        self._last_stats = cumulative
        return self.emit(
            "stats.delta", {"stats": cumulative, "delta": delta}
        )

    def heartbeat(self) -> bool:
        """Emit one ``heartbeat`` frame (liveness + emission counters).

        The ``delivery`` block carries the sink's backlog gauges
        (:meth:`EventSink.delivery_health`) plus the last flush's
        wall-clock duration, so a stalled producer — spool growing,
        flushes slowing — is diagnosable from the service side alone.
        These are gauges that move on every frame, which is exactly why
        they ride heartbeats and not the ``stats.delta`` dirty-check.
        """
        self._last_heartbeat = self._clock()
        payload: Dict[str, Any] = {
            "frames_emitted": self.frames_emitted,
            "samples_emitted": self.samples_emitted,
            "buffered": len(self._buffer),
        }
        if self._engine is not None:
            payload["calls"] = self._engine.stats.calls
        delivery: Dict[str, float] = {
            "last_flush_seconds": self.last_flush_seconds,
        }
        delivery.update(self.sink.delivery_health())
        payload["delivery"] = delivery
        return self.emit("heartbeat", payload)

    def flush(self) -> None:
        """Ship samples + stat deltas (and a due heartbeat); flush sink.

        With span tracing on, each flush opens a fresh root trace
        (``emit.flush``) whose identity is stamped into every frame
        emitted during the flush; sink spans (send/spool/replay) nest
        under it via the recorder's implicit parenting.
        """
        started = time.perf_counter()
        if self.spans.enabled:
            with self.spans.span(
                "emit.flush", stage="emit", new_trace=True
            ) as flush_span:
                self._flush_trace = flush_span.context.to_frame_field()
                try:
                    self._flush_once()
                finally:
                    self._flush_trace = None
                flush_span.set(
                    frames=self.frames_emitted, buffered=len(self._buffer)
                )
        else:
            self._flush_once()
        self.last_flush_seconds = time.perf_counter() - started

    def _flush_once(self) -> None:
        self.flush_samples()
        self.flush_stats()
        if (
            self.heartbeat_every > 0
            and self._clock() - self._last_heartbeat >= self.heartbeat_every
        ):
            self.heartbeat()
        self._flush_sink()
