"""The ingestion service: frames in, canonical envelopes out.

:class:`IngestService` is the API side of the engine-frame → API-envelope
split: it accepts ``dacce.engine.events.v1`` NDJSON frames from any
number of producers (HTTP POST bodies, piped stdin, recorded files),
validates each line, stamps the canonical ``dacce.events.v1`` envelope
(``run``, ``event_id``, strictly monotonic per-run ``sequence``,
``received_at``), persists one append-only ``events.ndjson`` per run,
folds the payload into live state — the shared
:class:`~repro.prof.cct.CCTAggregator` for sample frames, the
:class:`~repro.obs.registry.MetricsRegistry` for everything else — and
fans the envelope out to SSE subscribers.

The ingestion plane observes itself: ``ingest_frames_total{kind,outcome}``
counts every offered line (``folded`` / ``skipped`` / ``rejected``) and
``ingest_lag_seconds`` histograms the producer-to-service latency using
the two timestamps persisted in the envelope — which is what makes
``dacce events replay`` byte-exact: every input to folding (payloads,
ordering, lag) lives inside the canonical log, so rebuilding state from
``events.ndjson`` reproduces the live ``/cct`` and ``/metrics`` payloads
identically (the CI replay-determinism gate).

Resilience (PR 7): the service additionally

* **recovers from its own log on startup** — a service constructed over
  an existing ``data_dir`` rescans every per-run ``events.ndjson``
  through the same ``_fold`` path, restoring sequence watermarks, run
  summaries and the merged CCT byte-exactly without re-ingesting; a
  torn final line (the previous process died mid-append) is truncated
  away and reported, and the producer's at-least-once retry plus dedupe
  re-covers the lost event;
* **folds exactly once** — engine frames carry the producer's ``seq``;
  a ``(run, origin_seq)`` already folded (spool replay, a retried POST
  whose first attempt was applied but timed out on the wire) becomes a
  persisted ``ingest.duplicate`` envelope instead of double-counting,
  so replay reproduces the dedupe decision deterministically;
* **sheds load explicitly** — :meth:`IngestService.admit` bounds the
  bytes of in-flight POST work (the transport answers ``429`` +
  ``Retry-After``), and SSE subscriber queues are bounded with
  per-subscriber drop accounting pushed as an ``ingest.notice`` event
  once the consumer catches up.
"""

from __future__ import annotations

import logging
import os
import queue
import re
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import time

from ..obs.exporters import to_prometheus_text
from ..obs.registry import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from ..obs.spans import NULL_SPANS, SpanContext, SpanRecorder
from ..prof.cct import CCTAggregator, default_names
from .envelope import (
    DUPLICATE_TYPE,
    ENVELOPE_SCHEMA,
    NOTICE_TYPE,
    REJECT_TYPE,
    Envelope,
    EnvelopeError,
    parse_envelope,
)
from .frames import FrameError, MAX_RAW_ECHO, is_known_type, parse_frame

logger = logging.getLogger(__name__)

#: Ingest-lag histogram bucket bounds, seconds: sub-millisecond local
#: pipes up to slow cross-host batches.
LAG_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0,
)

#: Run ids become directory names; keep them path-safe.
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

DEFAULT_RUN = "default"
DEFAULT_RECENT_CAPACITY = 1024

#: Bound on one SSE subscriber's undelivered-envelope queue.
DEFAULT_SUBSCRIBER_QUEUE = 1024

#: Bound on bytes of admitted-but-unprocessed POST work (back-pressure).
DEFAULT_MAX_PENDING_BYTES = 16 << 20

#: Validated frame outcomes (the ``outcome`` label values).
OUTCOME_FOLDED = "folded"
OUTCOME_SKIPPED = "skipped"
OUTCOME_REJECTED = "rejected"
OUTCOME_DUPLICATE = "duplicate"


class IngestError(ValueError):
    """Invalid ingest request (bad run id, closed service)."""


def new_run_id() -> str:
    return "run-%s" % uuid.uuid4().hex[:8]


def _default_id_factory() -> str:
    return "evt_%s" % uuid.uuid4().hex[:16]


@dataclass
class RunState:
    """Everything the service tracks per run."""

    run: str
    path: Optional[str] = None
    sequence: int = 0
    producer: Optional[str] = None
    started_at: Optional[float] = None
    last_received_at: Optional[float] = None
    outcomes: Dict[str, int] = field(default_factory=dict)
    samples: int = 0
    weight: float = 0.0
    complete: bool = False
    #: Highest producer ``seq`` below which every frame was folded.
    origin_watermark: int = -1
    #: Folded producer seqs above the watermark (out-of-order arrivals),
    #: compacted into the watermark as the gap below them fills.
    origin_pending: Set[int] = field(default_factory=set)
    _handle: Optional[IO[str]] = None

    def origin_seen(self, seq: int) -> bool:
        """Was producer frame ``seq`` already folded for this run?"""
        return seq <= self.origin_watermark or seq in self.origin_pending

    def mark_origin(self, seq: int) -> None:
        """Record producer frame ``seq`` as folded (watermark + sparse set)."""
        if self.origin_seen(seq):
            return
        self.origin_pending.add(seq)
        while self.origin_watermark + 1 in self.origin_pending:
            self.origin_watermark += 1
            self.origin_pending.discard(self.origin_watermark)

    def summary(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "sequence": self.sequence,
            "producer": self.producer,
            "started_at": self.started_at,
            "last_received_at": self.last_received_at,
            "outcomes": dict(self.outcomes),
            "samples": self.samples,
            "weight": self.weight,
            "complete": self.complete,
            "origin_watermark": self.origin_watermark,
        }


@dataclass
class _Subscriber:
    """One SSE consumer: a bounded queue plus its drop ledger."""

    queue: "queue.Queue[Optional[Envelope]]"
    run: Optional[str] = None
    dropped_total: int = 0
    #: Drops not yet reported to the consumer; flushed as one
    #: ``ingest.notice`` the next time its queue has room.
    dropped_pending: int = 0


class IngestService:
    """Validate, envelope, persist, fold and stream producer frames."""

    def __init__(
        self,
        data_dir: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        id_factory: Callable[[], str] = _default_id_factory,
        recent_capacity: int = DEFAULT_RECENT_CAPACITY,
        max_pending_bytes: int = DEFAULT_MAX_PENDING_BYTES,
        spans: Optional[SpanRecorder] = None,
    ):
        self.data_dir = data_dir
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
        self._clock = clock
        self._id_factory = id_factory
        self._lock = threading.RLock()
        self._runs: Dict[str, RunState] = {}
        self._names: Dict[int, str] = {}
        self.aggregator = CCTAggregator(names=self._resolve_name)
        self.registry = MetricsRegistry(enabled=True)
        self.aggregator.bind_metrics(self.registry)
        # Instruments are created eagerly and in a fixed order so a
        # replayed service renders the identical /metrics document.
        self._c_frames = self.registry.counter(
            "ingest_frames_total",
            "Frames offered to the ingestion service, by kind and outcome.",
            labelnames=("kind", "outcome"),
        )
        self._h_lag = self.registry.histogram(
            "ingest_lag_seconds",
            "Producer-to-service latency (received_at - created_at).",
            buckets=LAG_BUCKETS,
        )
        # Envelope.lag_seconds clamps negative lag (skewed producer
        # clocks) to zero; this counter makes the clamp visible.  It is
        # replay-deterministic — both timestamps are persisted in the
        # envelope — so it belongs in the folded registry.
        self._c_skew = self.registry.counter(
            "ingest_clock_skew_total",
            "Engine frames whose created_at was ahead of the service "
            "clock (negative lag clamped to zero).",
        )
        self._g_runs = self.registry.gauge(
            "ingest_runs",
            "Runs known to the ingestion service.",
        )
        self._c_producer_stats = self.registry.counter(
            "ingest_producer_stats_total",
            "Latest cumulative producer counters from stats.delta frames.",
            labelnames=("run", "stat"),
        )
        self._c_producer_faults = self.registry.counter(
            "ingest_producer_faults_total",
            "Producer fault frames ingested, by fault kind.",
            labelnames=("kind",),
        )
        # Span tracing (docs/OBSERVABILITY.md): continues the trace a
        # producer propagated in the frame's ``trace`` field.  The
        # per-stage timing registry lives BESIDE the folded registry on
        # purpose: wall-clock stage durations cannot replay
        # deterministically, and /metrics is byte-diffed live-vs-replay
        # in CI, so timing is served by /spans instead.
        self.spans = spans if spans is not None else NULL_SPANS
        self.timing = MetricsRegistry(enabled=True)
        self._h_stage = self.timing.histogram(
            "ingest_stage_seconds",
            "Per-stage ingest latency (admit/validate/fold/publish), "
            "with span-id exemplars when tracing.",
            labelnames=("stage",),
            buckets=DEFAULT_DURATION_BUCKETS,
        )
        # Live-stream plumbing (not part of replayed state).
        self._recent: Deque[Envelope] = deque(maxlen=recent_capacity)
        self._subscribers: List[_Subscriber] = []
        self.subscriber_drops = 0
        # Back-pressure accounting: its own lock, so admission control
        # answers immediately even while a fold holds the main lock.
        self._pending_lock = threading.Lock()
        self._pending_bytes = 0
        self.max_pending_bytes = max_pending_bytes
        self.overload_rejections = 0
        self.started_at = self._clock()
        # Crash recovery: adopt whatever a previous process persisted.
        self.recovery = self.recover_from_disk()

    # ------------------------------------------------------------------
    # names
    # ------------------------------------------------------------------
    def _resolve_name(self, function: int) -> str:
        name = self._names.get(function)
        return name if name is not None else default_names(function)

    # ------------------------------------------------------------------
    # run registry
    # ------------------------------------------------------------------
    def _run_state(self, run_id: str) -> RunState:
        state = self._runs.get(run_id)
        if state is None:
            path = None
            if self.data_dir is not None:
                run_dir = os.path.join(self.data_dir, run_id)
                os.makedirs(run_dir, exist_ok=True)
                path = os.path.join(run_dir, "events.ndjson")
            state = RunState(run=run_id, path=path)
            self._runs[run_id] = state
            self._g_runs.set(len(self._runs))
        return state

    def runs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                state.summary()
                for _, state in sorted(self._runs.items())
            ]

    def events_path(self, run_id: str) -> Optional[str]:
        with self._lock:
            state = self._runs.get(run_id)
            return state.path if state is not None else None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_lines(
        self,
        run_id: str,
        lines: Iterable[str],
        source: str = "engine",
        admit_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Ingest NDJSON frame lines for one run; returns a summary.

        Every non-blank line is accounted for: validated frames become
        canonical envelopes (``folded`` or, for unknown types,
        ``skipped``); invalid lines become service-sourced
        ``ingest.rejected`` envelopes.  All three are persisted and
        streamed, so the canonical log is a complete record of what the
        service was offered.

        ``admit_seconds`` is the transport's already-measured admission
        + body-read duration (the HTTP handler times it before any
        frame is parsed); with tracing on it is recorded as an
        ``ingest.admit`` span parented to the first propagated trace in
        the batch.
        """
        if not _RUN_ID_RE.match(run_id):
            raise IngestError(
                "invalid run id %r (want %s)" % (run_id, _RUN_ID_RE.pattern)
            )
        counts = {
            OUTCOME_FOLDED: 0,
            OUTCOME_SKIPPED: 0,
            OUTCOME_REJECTED: 0,
            OUTCOME_DUPLICATE: 0,
        }
        last_sequence = 0
        tracing = self.spans.enabled
        admit_pending = admit_seconds if tracing else None
        with self._lock:
            state = self._run_state(run_id)
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                if tracing:
                    t0 = time.perf_counter()
                envelope = self._envelope_line(state, line, source)
                if tracing:
                    validate_dur = time.perf_counter() - t0
                    parent = SpanContext.from_frame_field(envelope.trace)
                    if parent is not None and admit_pending is not None:
                        self._stage_span(
                            "admit", "ingest.admit", admit_pending, parent
                        )
                        admit_pending = None
                    self._stage_span(
                        "validate", "ingest.validate", validate_dur, parent
                    )
                    t1 = time.perf_counter()
                outcome = self._fold(envelope)
                if tracing:
                    self._stage_span(
                        "fold", "ingest.fold", time.perf_counter() - t1,
                        parent, outcome=outcome,
                    )
                counts[outcome] += 1
                state.outcomes[outcome] = state.outcomes.get(outcome, 0) + 1
                if tracing:
                    t2 = time.perf_counter()
                self._persist(state, envelope)
                self._publish(envelope)
                if tracing:
                    self._stage_span(
                        "publish", "ingest.publish",
                        time.perf_counter() - t2, parent,
                    )
            last_sequence = state.sequence
            if state._handle is not None:
                state._handle.flush()
        return {
            "run": run_id,
            "accepted": counts[OUTCOME_FOLDED] + counts[OUTCOME_SKIPPED],
            "folded": counts[OUTCOME_FOLDED],
            "skipped": counts[OUTCOME_SKIPPED],
            "rejected": counts[OUTCOME_REJECTED],
            "duplicates": counts[OUTCOME_DUPLICATE],
            "last_sequence": last_sequence,
        }

    def ingest_stream(
        self,
        stream: IO[str],
        run_id: str,
        source: str = "engine",
        batch: int = 256,
    ) -> Dict[str, Any]:
        """Ingest frames from a line stream (piped producer stdout)."""
        totals = {
            "run": run_id, "accepted": 0, "folded": 0, "skipped": 0,
            "rejected": 0, "duplicates": 0, "last_sequence": 0,
        }
        buffer: List[str] = []
        for line in stream:
            buffer.append(line)
            if len(buffer) >= batch:
                self._merge_summary(totals, self.ingest_lines(run_id, buffer, source))
                buffer = []
        if buffer:
            self._merge_summary(totals, self.ingest_lines(run_id, buffer, source))
        return totals

    @staticmethod
    def _merge_summary(totals: Dict[str, Any], part: Dict[str, Any]) -> None:
        for key in ("accepted", "folded", "skipped", "rejected", "duplicates"):
            totals[key] += part[key]
        totals["last_sequence"] = part["last_sequence"]

    def _stage_span(
        self,
        stage: str,
        name: str,
        duration: float,
        parent: Optional[SpanContext],
        **attrs: Any,
    ) -> None:
        """Record one service-side pipeline stage (tracing only).

        Emits a child span continuing the producer's propagated context
        (skipped for pre-span producers — nothing to parent to) and an
        ``ingest_stage_seconds`` observation whose exemplar links the
        histogram series back to the exact trace that produced it.
        """
        exemplar = None
        if parent is not None:
            record = self.spans.record(
                name,
                # ``validate`` rides the admit stage in the waterfall's
                # six-stage taxonomy; the histogram keeps it separate.
                stage="admit" if stage == "validate" else stage,
                duration=duration,
                parent=parent,
                attrs=attrs,
            )
            exemplar = {"trace": record["trace"], "span": record["span"]}
        self._h_stage.labels(stage).observe(duration, exemplar)

    def _envelope_line(
        self, state: RunState, line: str, source: str
    ) -> Envelope:
        """Validate one raw line and stamp its canonical envelope."""
        received_at = self._clock()
        state.sequence += 1
        try:
            frame = parse_frame(line)
        except FrameError as error:
            return Envelope(
                type=REJECT_TYPE,
                event_id=self._id_factory(),
                sequence=state.sequence,
                run=state.run,
                source="api",
                created_at=received_at,
                received_at=received_at,
                payload={
                    "reason": error.reason,
                    "error": str(error),
                    "raw": line[:MAX_RAW_ECHO],
                },
            )
        origin = frame.get("seq")
        if (
            source == "engine"
            and isinstance(origin, int)
            and state.origin_seen(origin)
        ):
            # At-least-once transport (spool replay, a retried POST
            # whose first attempt was applied) resent a frame we
            # already folded.  Persist the dedupe decision so replay
            # reproduces it; the sequence slot is still consumed.
            return Envelope(
                type=DUPLICATE_TYPE,
                event_id=self._id_factory(),
                sequence=state.sequence,
                run=state.run,
                source="api",
                created_at=received_at,
                received_at=received_at,
                payload={"of": frame["type"], "origin_seq": origin},
                # The resend keeps its propagated trace: a retried POST
                # or spool replay stays attributable to the flush that
                # originally produced the frame.
                trace=frame.get("trace"),
            )
        return Envelope(
            type=frame["type"],
            event_id=self._id_factory(),
            sequence=state.sequence,
            run=state.run,
            source=source,
            created_at=float(frame["created_at"]),
            received_at=received_at,
            payload=frame["payload"],
            origin_seq=frame.get("seq"),
            trace=frame.get("trace"),
        )

    # ------------------------------------------------------------------
    # folding (shared verbatim by live ingest and replay)
    # ------------------------------------------------------------------
    def _fold(self, envelope: Envelope) -> str:
        """Fold one canonical envelope into live state.

        Pure in the envelope: called with identical envelopes in
        identical order it produces identical aggregator and registry
        state — the replay-determinism contract.
        """
        state = self._run_state(envelope.run)
        state.last_received_at = envelope.received_at
        if state.started_at is None:
            state.started_at = envelope.received_at
        if envelope.type == REJECT_TYPE:
            self._c_frames.labels("invalid", OUTCOME_REJECTED).inc()
            return OUTCOME_REJECTED
        if envelope.type == DUPLICATE_TYPE:
            of = envelope.payload.get("of")
            self._c_frames.labels(
                of if isinstance(of, str) else "unknown", OUTCOME_DUPLICATE
            ).inc()
            return OUTCOME_DUPLICATE
        if envelope.source == "engine" and envelope.origin_seq is not None:
            # Folded (or skipped-but-accounted) engine frames enter the
            # dedupe ledger here — shared by live ingest, replay and
            # crash recovery, so all three agree on what counts as seen.
            state.mark_origin(envelope.origin_seq)
        if not is_known_type(envelope.type):
            self._c_frames.labels(envelope.type, OUTCOME_SKIPPED).inc()
            return OUTCOME_SKIPPED
        self._c_frames.labels(envelope.type, OUTCOME_FOLDED).inc()
        if envelope.source == "engine":
            if envelope.received_at < envelope.created_at:
                self._c_skew.inc()
            self._h_lag.observe(envelope.lag_seconds)
        payload = envelope.payload
        if envelope.type == "profile.samples":
            self._fold_samples(state, payload)
        elif envelope.type == "run.start":
            producer = payload.get("producer")
            if isinstance(producer, str):
                state.producer = producer
            names = payload.get("names")
            if isinstance(names, dict):
                for key, value in names.items():
                    try:
                        self._names[int(key)] = str(value)
                    except (TypeError, ValueError):
                        continue
        elif envelope.type == "run.complete":
            state.complete = True
        elif envelope.type == "stats.delta":
            stats = payload.get("stats")
            if isinstance(stats, dict):
                for stat, value in sorted(stats.items()):
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        self._c_producer_stats.set_total(
                            float(value), envelope.run, str(stat)
                        )
        elif envelope.type == "fault":
            kind = payload.get("kind")
            self._c_producer_faults.labels(
                kind if isinstance(kind, str) else "unknown"
            ).inc()
        # heartbeat: the frames counter above is the fold.
        return OUTCOME_FOLDED

    def _fold_samples(self, state: RunState, payload: Dict[str, Any]) -> None:
        add_path = self.aggregator.add_path
        for entry in payload.get("samples", ()):
            weight = float(entry.get("weight", 1.0))
            add_path(
                entry.get("path", ()),
                weight,
                int(entry.get("gts", 0)),
                bool(entry.get("partial")),
            )
            state.samples += 1
            state.weight += weight

    # ------------------------------------------------------------------
    # persistence + streaming
    # ------------------------------------------------------------------
    def _persist(self, state: RunState, envelope: Envelope) -> None:
        if state.path is None:
            return
        if state._handle is None:
            state._handle = open(state.path, "a")
        state._handle.write(envelope.to_json_line() + "\n")

    def _publish(self, envelope: Envelope) -> None:
        self._recent.append(envelope)
        for sub in list(self._subscribers):
            if sub.run is not None and envelope.run != sub.run:
                continue
            self._offer(sub, envelope)

    def _offer(self, sub: _Subscriber, envelope: Envelope) -> None:
        """Deliver to one bounded subscriber queue, accounting drops.

        A full queue (slow consumer) drops the envelope and counts it;
        once the consumer drains some room, the accumulated drop count
        is pushed as a single ``ingest.notice`` event ahead of the next
        delivery, so the consumer knows its view has a gap.
        """
        if sub.dropped_pending:
            notice = Envelope(
                type=NOTICE_TYPE,
                event_id=self._id_factory(),
                sequence=envelope.sequence,
                run=envelope.run,
                source="api",
                created_at=envelope.received_at,
                received_at=envelope.received_at,
                payload={
                    "kind": "subscriber.dropped",
                    "dropped": sub.dropped_pending,
                    "dropped_total": sub.dropped_total,
                },
            )
            try:
                sub.queue.put_nowait(notice)
            except queue.Full:
                pass
            else:
                sub.dropped_pending = 0
        try:
            sub.queue.put_nowait(envelope)
        except queue.Full:
            sub.dropped_pending += 1
            sub.dropped_total += 1
            self.subscriber_drops += 1

    def subscribe(
        self,
        run: Optional[str] = None,
        backlog: int = 0,
        maxsize: int = DEFAULT_SUBSCRIBER_QUEUE,
    ) -> "queue.Queue[Optional[Envelope]]":
        """A live envelope queue; ``backlog`` recent events are pre-seeded.

        The queue is bounded (``maxsize``): a consumer that cannot keep
        up loses envelopes with per-subscriber accounting instead of
        growing the server's memory without limit; the loss is reported
        to that consumer as an ``ingest.notice`` event.
        """
        sub = _Subscriber(queue=queue.Queue(maxsize=maxsize), run=run)
        with self._lock:
            if backlog:
                for envelope in list(self._recent)[-backlog:]:
                    if run is not None and envelope.run != run:
                        continue
                    try:
                        sub.queue.put_nowait(envelope)
                    except queue.Full:
                        break
            self._subscribers.append(sub)
        return sub.queue

    def unsubscribe(self, subscriber: "queue.Queue[Optional[Envelope]]") -> None:
        with self._lock:
            self._subscribers = [
                s for s in self._subscribers if s.queue is not subscriber
            ]

    # ------------------------------------------------------------------
    # back-pressure (transport admission control)
    # ------------------------------------------------------------------
    def admit(self, nbytes: int) -> Tuple[bool, Optional[float]]:
        """Admission gate for ``nbytes`` of transport work.

        Returns ``(True, None)`` and reserves the bytes (pair with
        :meth:`release` when the work is done), or ``(False,
        retry_after_seconds)`` when the pending backlog would exceed
        ``max_pending_bytes`` — the transport layer turns that into
        ``429`` + ``Retry-After`` without reading the request body.
        """
        with self._pending_lock:
            if self._pending_bytes + nbytes > self.max_pending_bytes:
                self.overload_rejections += 1
                backlog = self._pending_bytes + nbytes
                retry_after = min(
                    30.0, max(1.0, backlog / float(max(1, self.max_pending_bytes)))
                )
                return False, retry_after
            self._pending_bytes += nbytes
            return True, None

    def release(self, nbytes: int) -> None:
        with self._pending_lock:
            self._pending_bytes = max(0, self._pending_bytes - nbytes)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover_from_disk(self) -> Dict[str, Any]:
        """Rebuild live state from persisted per-run event logs.

        Every ``<data_dir>/<run>/events.ndjson`` is rescanned through
        the same :meth:`_fold` path live ingest uses, restoring
        sequence watermarks, origin-dedupe ledgers, run summaries and
        the merged CCT byte-exactly — without re-ingesting anything
        (recovered envelopes are neither re-persisted nor published).
        A torn final line is truncated off the file (and reported) so
        later appends cannot concatenate into garbage; unparseable
        lines are skipped and counted, recover-never-raises style.
        """
        report = {"runs": 0, "events": 0, "torn_lines": 0, "bad_lines": 0}
        if self.data_dir is None or not os.path.isdir(self.data_dir):
            return report
        with self._lock:
            for run_id in sorted(os.listdir(self.data_dir)):
                if not _RUN_ID_RE.match(run_id):
                    continue
                path = os.path.join(self.data_dir, run_id, "events.ndjson")
                if not os.path.isfile(path):
                    continue
                report["runs"] += 1
                report["events"] += self._recover_run(run_id, path, report)
        if report["events"] or report["torn_lines"]:
            logger.info(
                "recovered %d event(s) across %d run(s) "
                "(%d torn line(s) truncated, %d bad line(s) skipped)",
                report["events"], report["runs"],
                report["torn_lines"], report["bad_lines"],
            )
        return report

    def _recover_run(
        self, run_id: str, path: str, report: Dict[str, Any]
    ) -> int:
        with open(path, "rb") as handle:
            raw = handle.read()
        if raw and not raw.endswith(b"\n"):
            # The previous process died mid-append.  Drop the torn tail
            # on disk too: a later append would otherwise concatenate
            # with it into one garbage line.  The producer's
            # at-least-once retry + (run, origin_seq) dedupe re-covers
            # the lost event without double-counting the rest.
            cut = raw.rfind(b"\n") + 1
            os.truncate(path, cut)
            raw = raw[:cut]
            report["torn_lines"] += 1
        state = self._run_state(run_id)
        events = 0
        for line in raw.decode("utf-8", errors="replace").splitlines():
            if not line.strip():
                continue
            try:
                envelope = parse_envelope(line)
            except EnvelopeError:
                report["bad_lines"] += 1
                continue
            if envelope.sequence <= state.sequence:
                report["bad_lines"] += 1
                continue
            state.sequence = envelope.sequence
            outcome = self._fold(envelope)
            state.outcomes[outcome] = state.outcomes.get(outcome, 0) + 1
            events += 1
        return events

    def close(self) -> None:
        with self._lock:
            for state in self._runs.values():
                if state._handle is not None:
                    state._handle.close()
                    state._handle = None
            for sub in self._subscribers:
                try:
                    sub.queue.put_nowait(None)
                except queue.Full:
                    # Make room for the shutdown sentinel: the consumer
                    # is gone or stalled, one more dropped envelope is
                    # already accounted-for behaviour.
                    try:
                        sub.queue.get_nowait()
                        sub.queue.put_nowait(None)
                    except (queue.Empty, queue.Full):
                        pass
            self._subscribers = []

    # ------------------------------------------------------------------
    # read-side documents (the server's and replay-diff's shared source)
    # ------------------------------------------------------------------
    def cct_json(self) -> str:
        import json as _json

        return _json.dumps(self.aggregator.to_dict(), indent=2) + "\n"

    def metrics_text(self) -> str:
        return to_prometheus_text(self.registry.snapshot())

    def spans_json(self, limit: int = 512) -> str:
        """The ``/spans`` document: recent service spans + stage timing.

        Timing histograms (with their span-id exemplars) are served
        here and never via ``/metrics``: wall-clock stage durations are
        not replay-deterministic and would break the live-vs-replay
        byte diff CI runs over the folded registry.
        """
        import json as _json

        spans = self.spans.spans()
        document = {
            "enabled": bool(self.spans.enabled),
            "service": getattr(self.spans, "service", ""),
            "emitted": self.spans.emitted,
            "dropped": self.spans.dropped,
            "spans": spans[-max(0, limit):],
            "stages": self.timing.snapshot(),
        }
        return _json.dumps(document, indent=2, sort_keys=True) + "\n"

    def flame_text(self) -> str:
        from ..prof.export import to_folded

        return to_folded(self.aggregator) + "\n"

    def top_rows(self, n: int = 10, by: str = "self") -> List[Dict[str, Any]]:
        from ..prof.export import top_contexts

        return top_contexts(self.aggregator, n=n, by=by)

    def healthz(self) -> Dict[str, Any]:
        stats = self.aggregator.stats()
        with self._pending_lock:
            pending_bytes = self._pending_bytes
            overload_rejections = self.overload_rejections
        with self._lock:
            return {
                "runs": len(self._runs),
                "subscribers": len(self._subscribers),
                "subscriber_drops": self.subscriber_drops,
                "pending_bytes": pending_bytes,
                "max_pending_bytes": self.max_pending_bytes,
                "overload_rejections": overload_rejections,
                "clock_skew_total": int(self._c_skew.value()),
                "recovery": dict(self.recovery),
                "samples": stats["samples"],
                "weight": stats["weight"],
                "uptime_seconds": self._clock() - self.started_at,
                "schema": ENVELOPE_SCHEMA,
            }
