"""IngestServer HTTP surface: POST ingest, documents, SSE, downloads."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.ingest import (
    IngestServer,
    IngestService,
    frame_line,
    make_frame,
    sample_entry,
    samples_payload,
    serve_ingest,
)


@pytest.fixture
def server(tmp_path):
    server = serve_ingest(data_dir=str(tmp_path / "data"))
    yield server
    server.shutdown()


def post_frames(server, run, lines):
    body = ("\n".join(lines) + "\n").encode()
    request = urllib.request.Request(
        "%s/ingest?run=%s" % (server.url, run),
        data=body,
        headers={"Content-Type": "application/x-ndjson"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def sample_line(paths, weight=1.0, seq=0):
    payload = samples_payload([sample_entry(p, weight, 0) for p in paths])
    return frame_line(make_frame("profile.samples", payload, 1.0, seq))


def get(server, path):
    return urllib.request.urlopen(server.url + path, timeout=10)


def test_post_ingest_and_read_documents(server, recorded_frames):
    summary = post_frames(server, "r1", recorded_frames)
    assert summary["folded"] == len(recorded_frames)
    assert summary["rejected"] == 0

    cct = json.loads(get(server, "/cct").read())
    assert cct["samples"] > 0
    runs = json.loads(get(server, "/runs").read())
    assert runs[0]["run"] == "r1"
    metrics = get(server, "/metrics").read().decode()
    assert "dacce_ingest_frames_total" in metrics
    health = json.loads(get(server, "/healthz").read())
    assert health["runs"] == 1


def test_every_response_is_no_store_with_content_type(server):
    for path in ("/", "/cct", "/flame", "/top", "/metrics", "/runs", "/healthz"):
        response = get(server, path)
        assert response.headers["Cache-Control"] == "no-store", path
        assert response.headers["Content-Type"], path


def test_unknown_route_is_structured_json_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(server, "/definitely-not-a-route")
    error = excinfo.value
    assert error.code == 404
    assert error.headers["Content-Type"] == "application/json"
    assert error.headers["Cache-Control"] == "no-store"
    document = json.loads(error.read())
    assert document["error"] == "not-found"
    assert "/cct" in document["routes"]


def assert_json_400(error):
    assert error.code == 400
    assert error.headers["Content-Type"] == "application/json"
    assert error.headers["Cache-Control"] == "no-store"
    assert json.loads(error.read())["error"] == "bad-request"


@pytest.mark.parametrize(
    "path",
    [
        "/top?n=nope", "/top?by=bogus", "/spans?limit=x",
        "/events?limit=x", "/events?backlog=x",
    ],
)
def test_bad_query_value_is_json_400(server, path):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(server, path)
    assert_json_400(excinfo.value)


@pytest.mark.parametrize("length", ["nope", "-5"])
def test_bad_content_length_is_json_400(server, length):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.putrequest("POST", "/ingest?run=r1")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert response.headers["Content-Type"] == "application/json"
        assert response.headers["Cache-Control"] == "no-store"
        assert json.loads(response.read())["error"] == "bad-request"
    finally:
        connection.close()


def test_handler_error_returns_500():
    class Broken(IngestService):
        def cct_json(self):
            raise RuntimeError("boom")

    server = IngestServer(Broken()).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as caught:
            get(server, "/cct")
        assert caught.value.code == 500
        assert caught.value.headers["Content-Type"] == "application/json"
        assert caught.value.headers["Cache-Control"] == "no-store"
        assert json.loads(caught.value.read())["error"] == "internal"
        # The server keeps serving after a failed route.
        with get(server, "/healthz") as response:
            assert response.status == 200
    finally:
        server.shutdown()


def test_server_start_twice_rejected():
    server = IngestServer(IngestService()).start()
    try:
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.shutdown()


def test_bad_run_id_is_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        post_frames(server, "..%2Fescape", [sample_line([[0, 2]])])
    assert excinfo.value.code == 400


def test_run_events_download_is_canonical_ndjson(server):
    post_frames(server, "dl", [sample_line([[0, 2]]), "broken"])
    response = get(server, "/runs/dl/events")
    assert response.headers["Content-Type"] == "application/x-ndjson"
    lines = response.read().decode().strip().splitlines()
    assert len(lines) == 2
    events = [json.loads(line) for line in lines]
    assert [event["sequence"] for event in events] == [1, 2]
    assert all(event["schema"] == "dacce.events.v1" for event in events)
    assert events[1]["type"] == "ingest.rejected"


def test_unknown_run_download_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get(server, "/runs/ghost/events")
    assert excinfo.value.code == 404


def test_sse_streams_live_envelopes(server):
    result = {}

    def listen():
        response = get(server, "/events?limit=3")
        result["content_type"] = response.headers["Content-Type"]
        result["body"] = response.read().decode()

    thread = threading.Thread(target=listen)
    thread.start()
    # Give the subscriber a moment to register, then produce.
    import time

    time.sleep(0.3)
    post_frames(server, "sse", [sample_line([[0, 2]], seq=i) for i in range(3)])
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["content_type"] == "text/event-stream"
    events = [
        block for block in result["body"].split("\n\n")
        if block.startswith("id:")
    ]
    assert len(events) == 3
    first = events[0].splitlines()
    assert first[0] == "id: 1"
    assert first[1] == "event: profile.samples"
    data = json.loads(first[2][len("data: "):])
    assert data["schema"] == "dacce.events.v1"


def test_sse_backlog_replays_recent_events(server):
    post_frames(server, "bk", [sample_line([[0, 2]], seq=i) for i in range(2)])
    response = get(server, "/events?limit=2&backlog=10")
    body = response.read().decode()
    assert body.count("event: profile.samples") == 2


def test_sse_run_filter(server):
    post_frames(server, "wanted", [sample_line([[0, 2]])])
    post_frames(server, "other", [sample_line([[0, 2]])])
    response = get(server, "/events?limit=1&backlog=10&run=wanted")
    body = response.read().decode()
    data = json.loads(
        [l for l in body.splitlines() if l.startswith("data: ")][0][6:]
    )
    assert data["run"] == "wanted"


def test_http_matches_direct_service_state(server, recorded_frames):
    """The HTTP façade adds nothing: documents come from the service."""
    post_frames(server, "r1", recorded_frames)
    direct = IngestService()
    direct.ingest_lines("r1", recorded_frames)
    assert json.loads(get(server, "/cct").read()) == json.loads(
        direct.cct_json()
    )


def test_spans_endpoint_serves_ring_and_stage_timings(tmp_path):
    from repro.ingest import IngestServer
    from repro.obs import SpanRecorder

    from tests.ingest.test_span_propagation import ingest_traced_run

    service = IngestService(spans=SpanRecorder("ingest"))
    ingest_traced_run(service=service)
    server = IngestServer(service).start()
    try:
        with get(server, "/spans") as response:
            assert response.headers["Content-Type"] == "application/json"
            document = json.loads(response.read())
        assert document["enabled"] is True
        assert document["spans"]
        assert "dacce_ingest_stage_seconds" in document["stages"]
        with get(server, "/spans?limit=2") as response:
            limited = json.loads(response.read())
        assert len(limited["spans"]) <= 2
        # /spans is listed on the index and in 404 routing.
        with get(server, "/") as response:
            assert "/spans" in json.loads(response.read())["endpoints"]
    finally:
        server.shutdown()


def test_traced_post_measures_admission(tmp_path):
    """A traced POST attributes body-read time to the batch's trace:
    the service records an ingest.admit span parented by the first
    traced frame."""
    from repro.ingest import IngestServer
    from repro.obs import SpanRecorder

    service = IngestService(spans=SpanRecorder("ingest"))
    server = IngestServer(service).start()
    try:
        trace = {"id": "ab" * 16, "span": "cd" * 8}
        line = frame_line(
            make_frame(
                "profile.samples",
                samples_payload([sample_entry([0, 2], 1.0, 0)]),
                1.0,
                1,
                trace=trace,
            )
        )
        post_frames(server, "traced", [line])
        admits = service.spans.spans(name="ingest.admit")
        assert admits
        assert admits[0]["trace"] == trace["id"]
        assert admits[0]["parent"] == trace["span"]
        assert admits[0]["dur"] > 0.0
    finally:
        server.shutdown()
