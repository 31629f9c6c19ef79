"""Pluggable frame sinks: where a producer's NDJSON frames go.

A sink transports already-serialized frame lines; it never inspects
them.  All sinks share one re-entrancy guard: a write that re-enters
the sink — possible when the producer itself runs under instrumentation
and the write syscall is traced — is dropped and counted instead of
recursing.  Sinks therefore never raise into the engine hot path; the
only raising methods are :meth:`EventSink.flush` and
:meth:`EventSink.send`, which the emitter calls from safe points and
wraps.

* :class:`StdoutFrameSink` — the default producer contract: stdout is
  reserved for frames, one per line, flushed per frame so a piped
  consumer stays live.
* :class:`FileFrameSink` — frames to a file (tests, ``dacce events
  record``, offline hand-off to ``dacce serve --from``).
* :class:`MemorySink` — frames to a list (tests).
* :class:`HTTPFrameSink` — frames POSTed in batches to an
  :class:`~repro.ingest.server.IngestServer`'s ``/ingest`` endpoint.
  The batch buffer is byte-bounded: a producer facing a long outage
  degrades by dropping its *oldest* buffered frames with accounting
  instead of growing without bound.
* :class:`SpoolingSink` — a resilience decorator around any sink.  A
  failed flush spills the undelivered batch into CRC-framed on-disk
  spool segments (the ``DCL2`` framing discipline of
  :mod:`repro.core.samplelog`: varint length + payload + checksum
  byte); delivery retries with capped exponential backoff plus
  deterministic jitter and honours a server ``Retry-After``.  Spool
  bytes are bounded by oldest-segment eviction, and every dropped
  frame is accounted: counters (``frames_spooled`` /
  ``frames_replayed`` / ``frames_dropped``) ride ``stats.delta``
  frames via :meth:`EventSink.stats`, and each eviction emits an
  explicit ``fault`` frame into the stream itself.  Segments left on
  disk by a crashed producer are picked up on construction, so
  delivery is durable across producer restarts (at-least-once; the
  service's ``(run, origin_seq)`` dedupe makes the fold exactly-once).
"""

from __future__ import annotations

import logging
import os
import re
import sys
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Callable, Deque, Dict, IO, List, Optional, Tuple

from ..core.samplelog import SampleLogError, _record_checksum, read_varint, write_varint
from ..obs.spans import NULL_SPANS
from .frames import frame_line, make_frame

logger = logging.getLogger(__name__)

#: Default byte bound on the HTTP sink's in-memory batch buffer.
DEFAULT_MAX_BUFFER_BYTES = 32 << 20

#: Default byte bound on a spool directory (oldest segments evicted).
DEFAULT_MAX_SPOOL_BYTES = 64 << 20

#: Spool segment magic (the framing inside mirrors ``DCL2``).
SPOOL_MAGIC = b"DSP1"

_SEGMENT_RE = re.compile(r"^spool-(\d{8})-(\d+)\.seg$")


class SinkError(OSError):
    """A sink failed to deliver frames (flush/send-time only).

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds when the rejection was an HTTP 429/503; ``status`` the HTTP
    status code when one was received.  Both are ``None`` for plain
    transport failures (connection refused, timeout).
    """

    def __init__(
        self,
        message: str,
        retry_after: Optional[float] = None,
        status: Optional[int] = None,
    ):
        super().__init__(message)
        self.retry_after = retry_after
        self.status = status


class EventSink:
    """Base sink: re-entrancy guard + drop accounting around ``_write``."""

    def __init__(self) -> None:
        self.emitted = 0
        self.dropped = 0
        self._in_write = False
        # Span tracing (docs/OBSERVABILITY.md): the shared no-op
        # recorder unless the emitter propagates a live one via
        # :meth:`set_spans`; guarded by one boolean at each site.
        self.spans = NULL_SPANS

    def set_spans(self, spans) -> None:
        """Install a span recorder (decorators propagate to the inner sink)."""
        self.spans = spans

    # -- subclass surface ----------------------------------------------
    def _write(self, line: str) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Deliver anything buffered; may raise :class:`SinkError`."""

    def close(self) -> None:
        self.flush()

    def send(self, lines: List[str]) -> None:
        """Deliver ``lines`` immediately, bypassing batching.

        Used by :class:`SpoolingSink` to replay spooled segments without
        mixing them into the live batch buffer.  Raises
        :class:`SinkError` when delivery fails (the caller keeps the
        segment).
        """
        for line in lines:
            if not self.emit(line):
                raise SinkError("sink dropped a replayed frame")
        self.flush()

    def take_pending(self) -> List[str]:
        """Remove and return frames buffered but not yet delivered."""
        return []

    def pending(self) -> int:
        """Frames buffered but not yet delivered."""
        return 0

    def stats(self) -> Dict[str, float]:
        """Delivery-resilience counters, merged into ``stats.delta``.

        Only counters that move on *failures* belong here (spool,
        replay and drop accounting).  Per-frame counters such as
        ``emitted`` must stay out: every ``stats.delta`` emission would
        dirty the next comparison and the emitter would emit stats
        frames forever.
        """
        return {}

    def delivery_health(self) -> Dict[str, float]:
        """Point-in-time backlog gauges for ``heartbeat`` enrichment.

        Unlike :meth:`stats` these are *gauges* (buffered bytes, spool
        backlog) that move on every frame, so they must not ride the
        ``stats.delta`` dirty-check — heartbeats carry them instead,
        making a stalled producer diagnosable from the service side.
        """
        return {}

    # -- the emitter-facing call ---------------------------------------
    def emit(self, line: str) -> bool:
        """Write one frame line; returns False when dropped."""
        if self._in_write:
            self.dropped += 1
            return False
        self._in_write = True
        try:
            self._write(line)
        except Exception:
            self.dropped += 1
            logger.warning("frame sink %r write failed", self, exc_info=True)
            return False
        finally:
            self._in_write = False
        self.emitted += 1
        return True


class StdoutFrameSink(EventSink):
    """Frames to stdout, one NDJSON line per frame, flushed per line.

    Producers running under this sink must keep stdout clean: frames are
    the process's machine-readable contract, human output belongs on
    stderr (the CLI's ``dacce events record --frames -`` honours this).
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        super().__init__()
        self.stream = stream if stream is not None else sys.stdout

    def _write(self, line: str) -> None:
        self.stream.write(line + "\n")
        self.stream.flush()


class FileFrameSink(EventSink):
    """Frames appended to a file path (or an open text stream)."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "a")

    def _write(self, line: str) -> None:
        if self._handle is None:
            raise ValueError("file frame sink is closed")
        self._handle.write(line + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemorySink(EventSink):
    """Frames retained in memory (tests and the emitter's unit surface)."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: List[str] = []

    def _write(self, line: str) -> None:
        self.lines.append(line)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Numeric ``Retry-After`` header seconds (HTTP-dates unsupported)."""
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return max(0.0, seconds)


class HTTPFrameSink(EventSink):
    """Frames POSTed in NDJSON batches to an ingestion service.

    ``emit`` only buffers (hot-path safe); :meth:`flush` performs the
    POST and raises :class:`SinkError` on transport failure, leaving the
    batch buffered so a later flush retries it.  The emitter flushes at
    sample-batch boundaries, so one POST carries many frames.

    The buffer is bounded by ``max_buffer_bytes`` independently of any
    spool: when a producer without spooling cannot deliver, the oldest
    buffered frames are dropped with accounting (``buffer_evicted``,
    surfaced as ``frames_dropped`` through :meth:`stats`) instead of
    growing until the process OOMs.  A 429/503 response's
    ``Retry-After`` is surfaced on the raised :class:`SinkError` so a
    wrapping :class:`SpoolingSink` can honour the server's pacing.
    """

    def __init__(
        self,
        url: str,
        run: str,
        batch_bytes: int = 1 << 20,
        timeout: float = 10.0,
        max_buffer_bytes: int = DEFAULT_MAX_BUFFER_BYTES,
    ):
        super().__init__()
        self.url = url.rstrip("/")
        self.run = run
        self.batch_bytes = batch_bytes
        self.timeout = timeout
        self.max_buffer_bytes = max_buffer_bytes
        self.posts = 0
        self.buffer_evicted = 0
        self._buffer: Deque[str] = deque()
        self._buffered_bytes = 0

    def _write(self, line: str) -> None:
        self._buffer.append(line)
        self._buffered_bytes += len(line) + 1
        # Byte bound: degrade by shedding the oldest frames (accounted)
        # rather than buffering without limit while the service is down.
        while self._buffered_bytes > self.max_buffer_bytes and len(self._buffer) > 1:
            oldest = self._buffer.popleft()
            self._buffered_bytes -= len(oldest) + 1
            self.buffer_evicted += 1

    def emit(self, line: str) -> bool:
        ok = super().emit(line)
        if ok and self._buffered_bytes >= self.batch_bytes:
            # Opportunistic flush; a transport failure keeps the batch
            # buffered (retried at the next flush point) rather than
            # raising into the caller's hot path.
            try:
                self.flush()
            except SinkError:
                logger.warning("ingest POST failed; batch retained",
                               exc_info=True)
        return ok

    def take_pending(self) -> List[str]:
        lines = list(self._buffer)
        self._buffer.clear()
        self._buffered_bytes = 0
        return lines

    def pending(self) -> int:
        return len(self._buffer)

    def stats(self) -> Dict[str, float]:
        return {"frames_dropped": float(self.buffer_evicted)}

    def delivery_health(self) -> Dict[str, float]:
        return {
            "buffered_bytes": float(self._buffered_bytes),
            "buffered_frames": float(len(self._buffer)),
        }

    def send(self, lines: List[str]) -> None:
        if not lines:
            return
        self._post(lines)
        self.posts += 1

    def flush(self) -> None:
        if not self._buffer:
            return
        self._post(list(self._buffer))
        self.posts += 1
        self._buffer.clear()
        self._buffered_bytes = 0

    def _post(self, lines: List[str]) -> None:
        body = ("\n".join(lines) + "\n").encode("utf-8")
        request = urllib.request.Request(
            "%s/ingest?run=%s" % (self.url, self.run),
            data=body,
            headers={"Content-Type": "application/x-ndjson"},
            method="POST",
        )
        span = (
            self.spans.span(
                "sink.send", stage="send", frames=len(lines), bytes=len(body)
            )
            if self.spans.enabled
            else None
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                resp.read()
        except urllib.error.HTTPError as error:
            if span is not None:
                span.set(error="http", status=error.code)
            raise SinkError(
                "ingest POST to %s failed: HTTP %d %s"
                % (self.url, error.code, error.reason),
                retry_after=_parse_retry_after(error.headers.get("Retry-After")),
                status=error.code,
            ) from error
        except (urllib.error.URLError, OSError) as error:
            if span is not None:
                span.set(error="transport")
            raise SinkError(
                "ingest POST to %s failed: %s" % (self.url, error)
            ) from error
        finally:
            if span is not None:
                span.__exit__(None, None, None)


# ----------------------------------------------------------------------
# durable spool
# ----------------------------------------------------------------------
def write_spool_segment(path: str, lines: List[str]) -> int:
    """Write one CRC-framed spool segment atomically; returns its size.

    Framing mirrors ``DCL2`` (:mod:`repro.core.samplelog`): per record,
    ``varint(payload_length) | payload | checksum_byte``.  The segment
    is published with an ``os.replace`` of a fully-fsynced temp file, so
    a producer crash mid-spill never leaves a half-written segment
    visible under the canonical name.
    """
    buffer = bytearray(SPOOL_MAGIC)
    for line in lines:
        payload = line.encode("utf-8")
        write_varint(buffer, len(payload))
        buffer += payload
        buffer.append(_record_checksum(bytes(payload)))
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(buffer)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(buffer)


def read_spool_segment(path: str) -> Tuple[List[str], int]:
    """Best-effort read of one spool segment.

    Returns ``(recovered_lines, damaged_records)``: a record whose
    checksum fails is skipped (the framing resynchronises on the next
    length prefix); a truncated tail ends the scan.  Externally damaged
    segments therefore cost only the damaged records, mirroring the
    ``DCL2`` skip-and-report discipline.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[: len(SPOOL_MAGIC)] != SPOOL_MAGIC:
        return [], 1
    lines: List[str] = []
    damaged = 0
    offset = len(SPOOL_MAGIC)
    while offset < len(data):
        try:
            length, offset = read_varint(data, offset)
        except SampleLogError:
            damaged += 1
            break
        if length < 0 or offset + length + 1 > len(data):
            damaged += 1
            break
        payload = bytes(data[offset : offset + length])
        stored = data[offset + length]
        offset += length + 1
        if _record_checksum(payload) != stored:
            damaged += 1
            continue
        lines.append(payload.decode("utf-8", errors="replace"))
    return lines, damaged


def _jitter_fraction(attempt: int) -> float:
    """Deterministic jitter in [0, 1): same attempt, same jitter."""
    return ((attempt * 2654435761) & 0xFFFF) / 65535.0


class SpoolingSink(EventSink):
    """Durable-delivery decorator: spill to disk, retry with backoff.

    Wraps any :class:`EventSink` (in practice :class:`HTTPFrameSink`).
    ``emit`` delegates straight to the inner sink — the hot path is
    unchanged; all resilience work happens at flush points:

    * a failed inner flush moves the undelivered batch into an on-disk
      spool segment (``frames_spooled``) and schedules a retry with
      capped exponential backoff + deterministic jitter, honouring the
      server's ``Retry-After`` when one was sent;
    * a due retry replays the oldest segments first (``frames_replayed``)
      so frame order is preserved, then ships the live batch;
    * spool bytes are bounded: spilling past ``max_spool_bytes`` evicts
      the oldest segment, counts its frames in ``frames_dropped`` and
      emits an accounted ``fault`` frame (kind ``spool.evicted``) into
      the stream itself, so the service's weight-conservation ledger
      sees every loss;
    * segments found in ``spool_dir`` at construction (a previous
      producer crashed or exited while the service was down) are
      replayed on the first flush — durable at-least-once delivery,
      made exactly-once by the service's ``(run, origin_seq)`` dedupe.

    ``flush`` never raises for transport failures (the batch is durable
    on disk); only spool I/O errors propagate.
    """

    def __init__(
        self,
        inner: EventSink,
        spool_dir: str,
        max_spool_bytes: int = DEFAULT_MAX_SPOOL_BYTES,
        base_delay: float = 0.5,
        max_delay: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__()
        self.inner = inner
        self.spool_dir = spool_dir
        self.max_spool_bytes = max_spool_bytes
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._clock = clock
        self._sleep = sleep
        self.frames_spooled = 0
        self.frames_replayed = 0
        self.frames_dropped = 0
        self.retries = 0
        self.attempts = 0  # consecutive failed delivery attempts
        self.next_retry = 0.0  # clock() time before which we stay quiet
        #: (path, frame count, byte size), oldest first.
        self._segments: List[Tuple[str, int, int]] = []
        self._next_index = 1
        os.makedirs(spool_dir, exist_ok=True)
        self._rescan()

    # -- introspection -------------------------------------------------
    @property
    def spool_bytes(self) -> int:
        return sum(size for _, _, size in self._segments)

    @property
    def pending_frames(self) -> int:
        """Frames sitting in spool segments awaiting delivery."""
        return sum(count for _, count, _ in self._segments)

    def segments(self) -> List[str]:
        return [path for path, _, _ in self._segments]

    def pending(self) -> int:
        return self.pending_frames + self.inner.pending()

    def stats(self) -> Dict[str, float]:
        stats = dict(self.inner.stats())
        stats["frames_dropped"] = (
            stats.get("frames_dropped", 0.0) + float(self.frames_dropped)
        )
        stats["frames_spooled"] = float(self.frames_spooled)
        stats["frames_replayed"] = float(self.frames_replayed)
        stats["delivery_retries"] = float(self.retries)
        return stats

    def delivery_health(self) -> Dict[str, float]:
        health = dict(self.inner.delivery_health())
        health["spool_bytes"] = float(self.spool_bytes)
        health["spool_segments"] = float(len(self._segments))
        health["spool_frames"] = float(self.pending_frames)
        return health

    def set_spans(self, spans) -> None:
        self.spans = spans
        self.inner.set_spans(spans)

    # -- hot path ------------------------------------------------------
    def emit(self, line: str) -> bool:
        return self.inner.emit(line)

    # -- flush points --------------------------------------------------
    def flush(self) -> None:
        now = self._clock()
        if self._segments and now < self.next_retry:
            # Still backing off: make the live batch durable too (it
            # must not overtake the spooled backlog, and the inner
            # buffer must not shed it) and come back later.
            self._spill(self.inner.take_pending())
            return
        if self._segments and not self._replay_segments():
            self._spill(self.inner.take_pending())
            return
        try:
            self.inner.flush()
        except SinkError as error:
            self._spill(self.inner.take_pending())
            self._schedule_retry(error)
            return
        self.attempts = 0
        self.next_retry = 0.0

    def drain(self, timeout: float = 30.0) -> bool:
        """Retry (sleeping through backoff) until everything delivered.

        Returns True when both the spool and the inner buffer are
        empty; False when the timeout expired first (the backlog stays
        durable on disk for a later drain or the next producer run).
        """
        deadline = self._clock() + timeout
        while True:
            self.flush()
            if not self._segments and self.inner.pending() == 0:
                return True
            now = self._clock()
            if now >= deadline:
                return False
            wait = max(0.05, min(self.next_retry, deadline) - now)
            if self.spans.enabled:
                with self.spans.span(
                    "sink.backoff_wait",
                    stage="spool",
                    attempt=self.attempts,
                    wait=wait,
                ):
                    self._sleep(wait)
            else:
                self._sleep(wait)

    def close(self) -> None:
        self.flush()
        try:
            self.inner.close()
        except SinkError as error:
            self._spill(self.inner.take_pending())
            self._schedule_retry(error)

    # -- internals -----------------------------------------------------
    def _rescan(self) -> None:
        """Adopt segments a previous producer left behind."""
        for name in sorted(os.listdir(self.spool_dir)):
            match = _SEGMENT_RE.match(name)
            if match is None:
                continue
            path = os.path.join(self.spool_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            self._segments.append((path, int(match.group(2)), size))
            self._next_index = max(self._next_index, int(match.group(1)) + 1)
        if self._segments:
            logger.info(
                "spool %s: adopted %d segment(s), %d frame(s) pending",
                self.spool_dir, len(self._segments), self.pending_frames,
            )

    def _replay_segments(self) -> bool:
        """Deliver spooled segments oldest-first; False while still down."""
        while self._segments:
            path, count, _size = self._segments[0]
            try:
                lines, damaged = read_spool_segment(path)
            except OSError:
                lines, damaged = [], count
            if damaged:
                self._account_drop(
                    max(damaged, count - len(lines)), "spool.corrupt", path
                )
            if lines:
                replay_span = (
                    self.spans.span(
                        "sink.spool_replay",
                        stage="spool",
                        frames=len(lines),
                        segment=os.path.basename(path),
                    )
                    if self.spans.enabled
                    else None
                )
                try:
                    self.inner.send(lines)
                except SinkError as error:
                    if replay_span is not None:
                        replay_span.set(error="send")
                        replay_span.__exit__(None, None, None)
                    self._schedule_retry(error)
                    return False
                if replay_span is not None:
                    replay_span.__exit__(None, None, None)
                self.frames_replayed += len(lines)
            self._segments.pop(0)
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - already gone
                pass
        self.attempts = 0
        self.next_retry = 0.0
        return True

    def _spill(self, lines: List[str]) -> None:
        if not lines:
            return
        estimated = len(SPOOL_MAGIC) + sum(len(line) + 6 for line in lines)
        if estimated > self.max_spool_bytes:
            self._account_drop(len(lines), "spool.overflow", None)
            return
        while self._segments and self.spool_bytes + estimated > self.max_spool_bytes:
            oldest, count, size = self._segments.pop(0)
            try:
                os.remove(oldest)
            except OSError:  # pragma: no cover - already gone
                pass
            self._account_drop(count, "spool.evicted", oldest)
        path = os.path.join(
            self.spool_dir,
            "spool-%08d-%d.seg" % (self._next_index, len(lines)),
        )
        self._next_index += 1
        if self.spans.enabled:
            with self.spans.span(
                "sink.spool_write", stage="spool", frames=len(lines)
            ) as spill_span:
                size = write_spool_segment(path, lines)
                spill_span.set(bytes=size)
        else:
            size = write_spool_segment(path, lines)
        self._segments.append((path, len(lines), size))
        self.frames_spooled += len(lines)

    def _account_drop(self, count: int, kind: str, detail: Optional[str]) -> None:
        """Count a loss and put an explicit fault frame on the wire.

        The fault frame carries the drop so the service's conservation
        ledger balances: folded weight + accounted drops == produced
        weight.  It enters through the inner sink's buffer, so it is
        itself spooled/retried like any other frame.
        """
        if count <= 0:
            return
        self.frames_dropped += count
        payload: Dict[str, object] = {
            "kind": kind,
            "frames": count,
            "frames_dropped": self.frames_dropped,
            "spool_bytes": self.spool_bytes,
        }
        if detail is not None:
            payload["segment"] = os.path.basename(detail)
        self.inner.emit(frame_line(make_frame("fault", payload, time.time())))
        logger.warning(
            "spool %s: dropped %d frame(s) (%s)", self.spool_dir, count, kind
        )

    def _schedule_retry(self, error: SinkError) -> None:
        self.attempts += 1
        self.retries += 1
        if error.retry_after is not None:
            delay = error.retry_after
        else:
            delay = min(
                self.max_delay, self.base_delay * (2 ** (self.attempts - 1))
            )
            delay *= 1.0 + 0.25 * _jitter_fraction(self.attempts)
        self.next_retry = self._clock() + delay
        logger.warning(
            "frame delivery failed (attempt %d): %s; retry in %.2fs",
            self.attempts, error, delay,
        )
