"""HTTP front-end for the ingestion service: POST frames, stream events.

Stdlib-only (``http.server``) and the repository's one HTTP surface: a
transport-free :class:`IngestService` does all the work and the handler
just maps routes.  ``dacce serve`` feeds the service from remote
producers; ``dacce profile serve`` feeds it in-process.  Endpoints:

* ``POST /ingest?run=<id>`` — NDJSON frame lines in the body; responds
  with the per-batch ingest summary as JSON.
* ``GET /events`` — live canonical envelopes as Server-Sent Events
  (``Content-Type: text/event-stream``); ``?run=<id>`` filters to one
  run, ``?backlog=N`` pre-seeds up to N recent events, ``?limit=N``
  closes the stream after N events (what tests and the CI smoke job use
  to make SSE finite).
* ``GET /runs`` — run registry summaries.
* ``GET /runs/<id>/events`` — the canonical ``events.ndjson`` log as an
  NDJSON download.
* ``GET /cct`` / ``/flame`` / ``/top`` / ``/metrics`` / ``/healthz`` —
  the merged view of every run the service has folded.
* ``GET /spans`` — recent service-side spans plus per-stage timing
  histograms (span-id exemplars included); see docs/OBSERVABILITY.md.

Every response carries an explicit ``Content-Type`` and
``Cache-Control: no-store``; unknown routes return a structured JSON
404, malformed integer parameters (query values, ``Content-Length``) a
JSON 400, and a GET route that raises a logged JSON 500 (an SSE stream
whose headers are already sent just closes).
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .envelope import Envelope
from .service import IngestError, IngestService

logger = logging.getLogger(__name__)

#: Seconds between SSE keep-alive comments when no events arrive.
SSE_KEEPALIVE_SECONDS = 15.0


class _BadRequest(ValueError):
    """A malformed request parameter, answered with a JSON 400."""


def _query_int(query: Dict[str, Any], name: str, default: int) -> int:
    raw = query.get(name, [str(default)])[0]
    try:
        return int(raw)
    except ValueError:
        raise _BadRequest(
            "%s must be an integer, got %r" % (name, raw)
        ) from None


def _bad_request(detail: str) -> Tuple[int, str, str]:
    return 400, *_json_body({"error": "bad-request", "detail": detail})


def _json_body(obj: Any) -> Tuple[str, str]:
    return "application/json", json.dumps(obj, indent=2) + "\n"


def _not_found(path: str) -> Tuple[int, str, str]:
    content_type, body = _json_body(
        {
            "error": "not-found",
            "path": path,
            "routes": [
                "/", "/ingest", "/events", "/runs", "/runs/<id>/events",
                "/cct", "/flame", "/top", "/metrics", "/spans", "/healthz",
            ],
        }
    )
    return 404, content_type, body


class _IngestHandler(BaseHTTPRequestHandler):
    """Routes bound to a service via ``type(...)`` subclassing."""

    service: IngestService
    protocol_version = "HTTP/1.1"
    #: Set once an SSE stream's headers are on the wire; an error after
    #: that point can no longer be answered with a status line.
    _streaming = False

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # requests are observable via /metrics, not stderr noise

    def _send(
        self,
        status: int,
        content_type: str,
        body: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Content-Length", str(len(payload)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    # -- ingestion -----------------------------------------------------
    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path != "/ingest":
            self._send(*_not_found(parsed.path))
            return
        query = parse_qs(parsed.query)
        run_id = query.get("run", ["default"])[0]
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self._send(
                *_bad_request("Content-Length must be a non-negative integer"),
                extra_headers={"Connection": "close"},
            )
            return
        admitted, retry_after = self.service.admit(length)
        if not admitted:
            # Overload: shed the request before reading its body.  The
            # producer's spool honours Retry-After, so the backlog
            # drains at the pace the service asks for.
            self._send(
                429,
                *_json_body(
                    {
                        "error": "overloaded",
                        "detail": "ingest backlog over %d bytes"
                        % self.service.max_pending_bytes,
                        "retry_after": retry_after,
                    }
                ),
                extra_headers={
                    "Retry-After": "%g" % (retry_after or 1.0),
                    "Connection": "close",
                },
            )
            return
        try:
            # Admission + body read are timed here — before any frame
            # is parsed — and handed to the service, which attributes
            # them to the batch's propagated trace when tracing is on.
            admit_started = time.perf_counter()
            body = self.rfile.read(length).decode("utf-8", errors="replace")
            admit_seconds = time.perf_counter() - admit_started
            try:
                summary = self.service.ingest_lines(
                    run_id,
                    body.splitlines(),
                    source="engine",
                    admit_seconds=admit_seconds,
                )
            except IngestError as error:
                self._send(*_bad_request(str(error)))
                return
            self._send(200, *_json_body(summary))
        finally:
            self.service.release(length)

    # -- reads ---------------------------------------------------------
    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path
        try:
            self._route_get(path, parse_qs(parsed.query))
        except _BadRequest as error:
            self._send(*_bad_request(str(error)))
        except Exception:
            logger.exception("ingest route %s failed", path)
            if not self._streaming:
                self._send(
                    500,
                    *_json_body(
                        {"error": "internal", "detail": "see the server log"}
                    ),
                )

    def _route_get(self, path: str, query: Dict[str, Any]) -> None:
        if path == "/events":
            self._stream_events(query)
            return
        if path.startswith("/runs/") and path.endswith("/events"):
            self._download_run(path[len("/runs/"):-len("/events")])
            return
        self._send(*self._document(path, query))

    def _document(
        self, path: str, query: Dict[str, Any]
    ) -> Tuple[int, str, str]:
        service = self.service
        if path == "/":
            return (
                200,
                *_json_body(
                    {
                        "service": "dacce-ingest",
                        "endpoints": [
                            "/ingest (POST)", "/events", "/runs",
                            "/runs/<id>/events", "/cct", "/flame", "/top",
                            "/metrics", "/spans", "/healthz",
                        ],
                    }
                ),
            )
        if path == "/cct":
            return 200, "application/json", service.cct_json()
        if path == "/flame":
            return 200, "text/plain; charset=utf-8", service.flame_text()
        if path == "/top":
            n = _query_int(query, "n", 10)
            by = query.get("by", ["self"])[0]
            try:
                rows = service.top_rows(n=n, by=by)
            except ValueError as error:
                return _bad_request(str(error))
            return 200, *_json_body(rows)
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                service.metrics_text(),
            )
        if path == "/spans":
            limit = _query_int(query, "limit", 512)
            return 200, "application/json", service.spans_json(limit=limit)
        if path == "/runs":
            return 200, *_json_body(service.runs())
        if path == "/healthz":
            return 200, *_json_body(service.healthz())
        return _not_found(path)

    def _download_run(self, run_id: str) -> None:
        events_path = self.service.events_path(run_id)
        if events_path is None:
            self._send(
                404,
                *_json_body(
                    {"error": "not-found", "detail": "unknown run %r" % run_id}
                ),
            )
            return
        try:
            with open(events_path) as handle:
                body = handle.read()
        except OSError:
            body = ""
        self._send(200, "application/x-ndjson", body)

    def _stream_events(self, query: Dict[str, Any]) -> None:
        run = query.get("run", [None])[0]
        limit = _query_int(query, "limit", 0)
        backlog = _query_int(query, "backlog", 0)
        subscriber = self.service.subscribe(run=run, backlog=backlog)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self._streaming = True
        sent = 0
        try:
            while True:
                try:
                    envelope = subscriber.get(timeout=SSE_KEEPALIVE_SECONDS)
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                if envelope is None:  # service shutdown sentinel
                    break
                self.wfile.write(self._sse_event(envelope))
                self.wfile.flush()
                sent += 1
                if limit and sent >= limit:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self.service.unsubscribe(subscriber)

    @staticmethod
    def _sse_event(envelope: Envelope) -> bytes:
        return (
            "id: %d\nevent: %s\ndata: %s\n\n"
            % (envelope.sequence, envelope.type, envelope.to_json_line())
        ).encode("utf-8")


class IngestServer:
    """Threaded ingestion HTTP server around one :class:`IngestService`."""

    def __init__(
        self,
        service: IngestService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        handler = type("BoundIngestHandler", (_IngestHandler,), {"service": service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "IngestServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("ingest server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="dacce-ingest-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self.service.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def abort(self) -> None:
        """Kill the HTTP listener *without* closing the service.

        Simulates a crash for the chaos harness: file handles stay
        unflushed-as-they-were and no shutdown sentinel reaches
        subscribers, exactly as if the process died.  A fresh service
        pointed at the same data dir must then recover from disk.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve_ingest(
    service: Optional[IngestService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: Optional[str] = None,
) -> IngestServer:
    """Start a background ingestion server (tests + CLI convenience)."""
    if service is None:
        service = IngestService(data_dir=data_dir)
    return IngestServer(service, host=host, port=port).start()
