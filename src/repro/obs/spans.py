"""Span tracing and latency attribution for the engine → ingest pipeline.

A *span* is one timed unit of work: a name, a stage (the pipeline phase
it belongs to — ``emit``, ``spool``, ``send``, ``admit``, ``fold``,
``publish``, ``engine``), a wall-clock start timestamp, a monotonic
duration, and a ``trace_id``/``span_id``/``parent_id`` triple that
stitches spans into cross-process trees.  The producer opens one trace
per emitter flush and stamps its ids into the frame's additive
``trace`` field; the ingest service continues the same trace on its own
recorder, so a single ``trace_id`` covers emit → spool/send → admit →
fold → publish even though the halves run in different processes and
write different span logs.

Design rules:

- **Strictly no-op when disabled.**  Call sites guard on one boolean
  (``spans.enabled``) and the shared :data:`NULL_SPANS` singleton makes
  every method a constant-time no-op, so the hot path pays a single
  attribute load when tracing is off.
- **Bounded by construction.**  Finished spans land in a bounded
  in-memory ring and are optionally mirrored as JSON Lines to any
  ``write``/``flush`` stream — including
  :class:`repro.obs.trace.RotatingTraceStream`, which also bounds the
  on-disk log.
- **No decoding on the emission path.**  Records carry compact ids,
  timestamps and counts; reconstruction (``dacce spans waterfall``) is
  a consumer concern.

One span record is one flat JSON object::

    {"trace": <32 hex>, "span": <16 hex>, "parent": <16 hex, optional>,
     "name": "emit.flush", "stage": "emit", "svc": "producer",
     "ts": <unix seconds>, "dur": <seconds>, "attrs": {...}, "schema":
     "dacce.spans.v1"}
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

logger = logging.getLogger(__name__)

SPAN_SCHEMA = "dacce.spans.v1"

DEFAULT_SPAN_CAPACITY = 4096

#: The pipeline stages a full producer → service waterfall covers.
PIPELINE_STAGES = ("emit", "spool", "send", "admit", "fold", "publish")

SpanRecord = Dict[str, Any]


def _random_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def default_id_source() -> Tuple[str, str]:
    """(trace_id, span_id) — 128-bit and 64-bit random hex."""
    return _random_hex(16), _random_hex(8)


class SpanContext:
    """The propagatable identity of a span: trace id + span id."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_frame_field(self) -> Dict[str, str]:
        """The additive ``trace`` field stamped into engine frames."""
        return {"id": self.trace_id, "span": self.span_id}

    @classmethod
    def from_frame_field(cls, field: Any) -> Optional["SpanContext"]:
        """Parse a frame ``trace`` field; ``None`` when absent/malformed."""
        if not isinstance(field, dict):
            return None
        trace_id = field.get("id")
        span_id = field.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SpanContext(trace=%s, span=%s)" % (self.trace_id, self.span_id)


class Span:
    """One in-flight unit of work.  Created by :meth:`SpanRecorder.span`."""

    __slots__ = (
        "name",
        "stage",
        "context",
        "parent_id",
        "attrs",
        "_recorder",
        "_ts",
        "_t0",
        "finished",
    )

    def __init__(
        self,
        recorder: "SpanRecorder",
        name: str,
        stage: str,
        context: SpanContext,
        parent_id: Optional[str],
        attrs: Optional[Dict[str, Any]],
    ):
        self.name = name
        self.stage = stage
        self.context = context
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self._recorder = recorder
        self._ts = recorder._clock()
        self._t0 = recorder._monotonic()
        self.finished = False

    # ------------------------------------------------------------------
    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (merged into ``attrs``)."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> SpanRecord:
        """Close the span and hand the record to the recorder."""
        if self.finished:
            raise ValueError("span %r finished twice" % self.name)
        self.finished = True
        duration = self._recorder._monotonic() - self._t0
        return self._recorder._finish(self, self._ts, duration)

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder._pop(self)
        self.finish()


class _NullSpan:
    """Shared do-nothing span handed out by :data:`NULL_SPANS`."""

    __slots__ = ()

    name = ""
    stage = ""
    parent_id = None
    finished = True
    context = SpanContext("", "")
    trace_id = ""
    span_id = ""
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> SpanRecord:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Bounded ring of finished spans with optional JSONL mirroring.

    ``svc`` names the process-level component (``producer``,
    ``ingest``, ``engine``); it is stamped into every record so a
    cross-process waterfall can attribute each span to its side of the
    wire.  ``stream`` may be any object with ``write``/``flush`` —
    a plain file or a :class:`repro.obs.trace.RotatingTraceStream`.

    Nested ``span()`` calls on the same thread auto-parent: the
    innermost open span is the default parent and supplies the trace
    id, so call sites only pass explicit context at process boundaries
    (continuing a trace propagated in a frame).
    """

    enabled = True

    def __init__(
        self,
        service: str,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        stream: Optional[Any] = None,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.perf_counter,
        id_source: Callable[[], Tuple[str, str]] = default_id_source,
    ):
        if capacity <= 0:
            raise ValueError("span capacity must be positive")
        self.service = service
        self.capacity = capacity
        self.stream = stream
        self._clock = clock
        self._monotonic = monotonic
        self._id_source = id_source
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.emitted = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[SpanContext]:
        """Context of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1].context if stack else None

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        stage: str = "",
        parent: Optional[SpanContext] = None,
        new_trace: bool = False,
        **attrs: Any,
    ) -> Span:
        """Open a span; use as a context manager or call ``finish()``.

        Parent resolution: an explicit ``parent`` wins (its trace is
        continued); otherwise the innermost open span on this thread;
        otherwise a fresh root trace.  ``new_trace=True`` forces a root
        even when a span is open (the emitter's one-trace-per-flush
        discipline).
        """
        trace_id, span_id = self._id_source()
        parent_id: Optional[str] = None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif not new_trace:
            current = self.current()
            if current is not None:
                trace_id = current.trace_id
                parent_id = current.span_id
        span = Span(
            self,
            name,
            stage,
            SpanContext(trace_id, span_id),
            parent_id,
            attrs or None,
        )
        self._stack().append(span)
        return span

    def record(
        self,
        name: str,
        stage: str = "",
        duration: float = 0.0,
        ts: Optional[float] = None,
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> SpanRecord:
        """Record an already-measured span after the fact.

        For work timed outside the recorder (the HTTP handler measures
        admission before it knows which trace the body continues) and
        for instantaneous events (the engine's zero-duration records).
        ``attrs`` is a mapping, so its keys never collide with this
        method's own parameters.
        """
        own_trace, span_id = self._id_source()
        parent_id: Optional[str] = None
        if parent is not None:
            own_trace = parent.trace_id
            parent_id = parent.span_id
        if trace_id is not None:
            own_trace = trace_id
        record: SpanRecord = {
            "schema": SPAN_SCHEMA,
            "trace": own_trace,
            "span": span_id,
            "name": name,
            "stage": stage,
            "svc": self.service,
            "ts": self._clock() if ts is None else ts,
            "dur": duration,
        }
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = dict(attrs)
        self._append(record)
        return record

    # ------------------------------------------------------------------
    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order exit; drop it and warn once
            stack.remove(span)
            logger.warning("span %r exited out of order", span.name)

    def _finish(self, span: Span, ts: float, duration: float) -> SpanRecord:
        record: SpanRecord = {
            "schema": SPAN_SCHEMA,
            "trace": span.context.trace_id,
            "span": span.context.span_id,
            "name": span.name,
            "stage": span.stage,
            "svc": self.service,
            "ts": ts,
            "dur": duration,
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if span.attrs:
            record["attrs"] = span.attrs
        self._append(record)
        return record

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self.emitted += 1
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
            if self.stream is not None:
                try:
                    self.stream.write(json.dumps(record, sort_keys=True) + "\n")
                except (OSError, ValueError):
                    logger.warning("span stream write failed; detaching stream")
                    self.stream = None

    # ------------------------------------------------------------------
    def spans(
        self, stage: Optional[str] = None, name: Optional[str] = None
    ) -> List[SpanRecord]:
        """Retained records, oldest first, optionally filtered."""
        with self._lock:
            records = list(self._ring)
        if stage is not None:
            records = [r for r in records if r.get("stage") == stage]
        if name is not None:
            records = [r for r in records if r.get("name") == name]
        return records

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def flush(self) -> None:
        if self.stream is not None:
            try:
                self.stream.flush()
            except (OSError, ValueError):
                self.stream = None


class _NullSpanRecorder:
    """Disabled recorder: every operation is a constant-time no-op.

    Shared singleton — never attach state to it.
    """

    enabled = False
    service = ""
    capacity = 0
    emitted = 0
    dropped = 0

    def span(self, name: str, stage: str = "", **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, stage: str = "", **kwargs: Any) -> SpanRecord:
        return {}

    def current(self) -> Optional[SpanContext]:
        return None

    def spans(self, stage: Optional[str] = None, name: Optional[str] = None) -> List[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def flush(self) -> None:
        return None


NULL_SPANS = _NullSpanRecorder()


# ----------------------------------------------------------------------
# Consumer-side reconstruction (``dacce spans {report,waterfall}``).


def is_span_record(record: Dict[str, Any]) -> bool:
    """True when a JSONL record looks like a ``dacce.spans.v1`` span."""
    if record.get("schema") != SPAN_SCHEMA:
        return False
    return (
        isinstance(record.get("trace"), str)
        and isinstance(record.get("span"), str)
        and isinstance(record.get("ts"), (int, float))
        and isinstance(record.get("dur"), (int, float))
    )


def group_traces(
    records: Iterable[Dict[str, Any]]
) -> Dict[str, List[SpanRecord]]:
    """Group span records by trace id; spans sorted by start timestamp.

    Non-span records (other JSONL lines sharing the log) are skipped, so
    span and event streams may share a rotated file.
    """
    traces: Dict[str, List[SpanRecord]] = {}
    for record in records:
        if not is_span_record(record):
            continue
        traces.setdefault(record["trace"], []).append(record)
    for spans in traces.values():
        spans.sort(key=lambda r: (r["ts"], r.get("dur", 0.0)))
    return traces


def stage_summary(
    records: Iterable[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-(stage, name) aggregates: count / total / p50 / p95 / max."""
    buckets: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if not is_span_record(record):
            continue
        key = (record.get("stage") or "?", record.get("name") or "?")
        buckets.setdefault(key, []).append(float(record["dur"]))
    out: Dict[str, Dict[str, Any]] = {}
    for (stage, name), durations in sorted(buckets.items()):
        durations.sort()
        out["%s/%s" % (stage, name)] = {
            "stage": stage,
            "name": name,
            "count": len(durations),
            "total": sum(durations),
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "max": durations[-1],
        }
    return out


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def build_waterfall(spans: List[SpanRecord]) -> List[Tuple[int, SpanRecord]]:
    """One trace's spans as (depth, record) rows in tree order.

    Roots (no ``parent``, or a parent missing from this trace — its
    span log may have rotated away) come first by start time; children
    nest under their parent, also by start time.
    """
    by_id = {record["span"]: record for record in spans}
    children: Dict[Optional[str], List[SpanRecord]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r["ts"], r.get("dur", 0.0)))

    rows: List[Tuple[int, SpanRecord]] = []
    seen: set = set()

    def visit(record: SpanRecord, depth: int) -> None:
        if record["span"] in seen:  # defensive: malformed cycles
            return
        seen.add(record["span"])
        rows.append((depth, record))
        for child in children.get(record["span"], []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    return rows


def load_span_records(
    paths: Iterable[str], backups: Optional[int] = None
) -> Iterator[SpanRecord]:
    """Yield span records from one or more rotated span logs.

    Each ``path`` is read via
    :func:`repro.obs.trace.read_rotated_jsonl`, so backups produced by
    :class:`RotatingTraceStream` are folded in chronologically.
    """
    from .trace import DEFAULT_ROTATE_BACKUPS, read_rotated_jsonl

    scan = DEFAULT_ROTATE_BACKUPS if backups is None else backups
    for path in paths:
        for record in read_rotated_jsonl(path, backups=scan):
            if is_span_record(record):
                yield record
