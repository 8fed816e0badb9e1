"""HTTP control-plane contract tests over real sockets.

Covers the endpoint contract (status codes, SSE framing, validation,
malformed heads), the 429 shed path with ``Retry-After``, mid-stream
cancellation, the write path (wire bytes, one write per step and
connection, client hang-ups, no helper thread), health flipping once a
worker fault domain is exhausted, drain-on-stop, and a subprocess
``repro serve --http`` run that must drain cleanly on SIGTERM.
Everything goes through the unified Engine protocol — the same server
code is exercised against :class:`ServingEngine` and
:class:`ClusterEngine`.
"""

import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import LoadSheddingAdmission
from repro.serving import cluster as cluster_module
from repro.serving import server as server_module
from repro.serving.cluster import ClusterEngine
from repro.serving.engine import ServingEngine
from repro.serving.server import (
    ServerThread,
    ServingHTTPServer,
    start_http_server,
)


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=128, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    return build_butterfly_decoder(config).eval()


@pytest.fixture
def served(model):
    engine = ServingEngine(model, max_batch_size=4, seed=0)
    server = start_http_server(engine)
    yield server, engine
    server.stop()
    engine.close()


def _request(server, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, headers-dict, body-bytes)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    payload = json.dumps(body) if isinstance(body, dict) else body
    conn.request(method, path, body=payload, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    head = {k.lower(): v for k, v in response.getheaders()}
    conn.close()
    return response.status, head, data


def _generate(server, prompt=(1, 2, 3), **fields):
    body = {"prompt": list(prompt), **fields}
    return _request(server, "POST", "/v1/generate", body=body)


def _parse_sse(raw):
    """SSE payload -> (request_id, tokens, finish_reason, saw_done)."""
    request_id = None
    tokens = []
    finish_reason = None
    saw_done = False
    event = None
    for line in raw.split(b"\n"):
        line = line.strip()
        if line.startswith(b"event: "):
            event = line.split(b"event: ", 1)[1]
        elif line == b"data: [DONE]":
            saw_done = True
        elif line.startswith(b"data: "):
            data = json.loads(line.split(b"data: ", 1)[1])
            if "token" in data:
                tokens.append(data["token"])
            elif event == b"start":
                request_id = data["request_id"]
            elif event == b"end":
                finish_reason = data["finish_reason"]
            event = None
    return request_id, tokens, finish_reason, saw_done


def _raw_exchange(server, data):
    """Send ``data`` on a fresh socket; every byte until the server closes."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(data)
        received = []
        while True:
            piece = sock.recv(65536)
            if not piece:
                return b"".join(received)
            received.append(piece)


def _generate_bytes(**fields):
    body = json.dumps({"prompt": [1, 2, 3], **fields}).encode()
    return (
        b"POST /v1/generate HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


def _requests_counted(engine, endpoint, status):
    return engine.metrics.registry.counter(
        "http_requests_total", endpoint=endpoint, status=status
    ).value


def _series_once_counted(engine, endpoint, status):
    """The registry snapshot once a request to ``endpoint`` answered with
    ``status`` is counted and timed (or after 5 s)."""
    keys = (f"http_requests_total{{endpoint={endpoint},status={status}}}",
            f"http_request_ms{{endpoint={endpoint}}}")
    deadline = time.monotonic() + 5.0
    while True:
        series = engine.metrics.registry.snapshot()
        if all(key in series for key in keys) or time.monotonic() > deadline:
            return series
        time.sleep(0.005)


def _chunk(payload):
    return b"%x\r\n" % len(payload) + payload + b"\r\n"


def _stream_wire(request_id, tokens, finish_reason="length"):
    """The exact response bytes of one stream, from ``json.dumps``."""
    def event(payload, name=None):
        prefix = b"event: %s\n" % name if name else b""
        return _chunk(
            prefix + b"data: " + json.dumps(payload).encode() + b"\n\n")

    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\nTransfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n"
        + event({"request_id": request_id}, b"start")
        + b"".join(
            event({"token": token, "index": index})
            for index, token in enumerate(tokens))
        + event({"request_id": request_id, "finish_reason": finish_reason,
                 "tokens": len(tokens)}, b"end")
        + _chunk(b"data: [DONE]\n\n") + b"0\r\n\r\n"
    )


def _slow(engine, seconds):
    """Make every step take at least ``seconds``; returns the step log."""
    real_step = engine.step
    steps = []

    def step():
        time.sleep(seconds)
        steps.append(None)
        return real_step()

    engine.step = step
    return steps


class TestEndpointContract:
    def test_healthz(self, served):
        server, _ = served
        status, head, body = _request(server, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["healthy"] is True
        assert payload["draining"] is False
        assert head["content-type"].startswith("application/json")

    def test_generate_blocking(self, served):
        server, _ = served
        status, _, body = _generate(server, max_new_tokens=5, seed=3)
        assert status == 200
        payload = json.loads(body)
        assert payload["finish_reason"] == "length"
        assert len(payload["tokens"]) == 5
        assert isinstance(payload["request_id"], int)

    def test_generate_streaming_sse_framing(self, served):
        server, _ = served
        status, head, body = _generate(
            server, max_new_tokens=4, seed=3, stream=True,
        )
        assert status == 200
        assert head["content-type"].startswith("text/event-stream")
        request_id, tokens, finish_reason, saw_done = _parse_sse(body)
        assert isinstance(request_id, int)
        assert len(tokens) == 4
        assert finish_reason == "length"
        assert saw_done

    def test_stream_matches_blocking_bit_identically(self, served):
        server, _ = served
        _, _, blocking = _generate(server, max_new_tokens=6, seed=11)
        _, _, streamed = _generate(
            server, max_new_tokens=6, seed=11, stream=True,
        )
        _, tokens, _, _ = _parse_sse(streamed)
        assert tokens == json.loads(blocking)["tokens"]

    def test_metrics_exposition(self, served):
        server, _ = served
        _generate(server, max_new_tokens=2)
        status, head, body = _request(server, "GET", "/metrics")
        assert status == 200
        assert head["content-type"].startswith("text/plain")
        assert b"http_requests_total" in body
        assert b"# TYPE" in body

    def test_client_paths_and_methods_mint_no_series(self, served):
        """Requests that name no route count as ``unknown``: a burst of
        distinct paths and methods adds at most two status series."""
        server, engine = served

        def request_series():
            return {key for key in engine.metrics.registry.snapshot()
                    if key.startswith(("http_requests_total", "http_request_ms"))}

        before = request_series()
        for i in range(20):
            assert _request(server, "GET", f"/nope/{i}")[0] == 404
        for i in range(10):
            assert _request(server, f"VERB{i}", "/healthz")[0] == 405
        assert request_series() - before <= {
            "http_requests_total{endpoint=unknown,status=404}",
            "http_requests_total{endpoint=unknown,status=405}",
            "http_request_ms{endpoint=unknown}",
        }

    ROUTES = [
        ("GET", "/healthz", None, 200),
        ("GET", "/metrics", None, 200),
        ("POST", "/v1/generate", {"prompt": [1, 2], "max_new_tokens": 1}, 200),
        ("POST", "/v1/cancel", {"request_id": 999}, 404),
    ]

    @pytest.mark.parametrize("method,path,body,status", ROUTES,
                             ids=[path for _, path, _, _ in ROUTES])
    def test_each_route_is_labelled_by_its_route(
        self, served, method, path, body, status
    ):
        server, engine = served
        assert _request(server, method, path, body=body)[0] == status
        # Counted once the response is written: wait for the handler.
        series = _series_once_counted(engine, f"{method} {path}", status)
        assert series[f"http_requests_total{{endpoint={method} {path},"
                      f"status={status}}}"]["value"] == 1
        assert f"http_request_ms{{endpoint={method} {path}}}" in series

    @pytest.mark.parametrize("method,path,body,status", ROUTES,
                             ids=[path for _, path, _, _ in ROUTES])
    def test_a_route_under_another_method_counts_as_unknown(
        self, served, method, path, body, status
    ):
        server, engine = served
        other = "POST" if method == "GET" else "GET"
        assert _request(server, other, path)[0] == 405
        series = _series_once_counted(engine, "unknown", 405)
        assert series["http_requests_total{endpoint=unknown,status=405}"][
            "value"] == 1
        assert not any(f"{other} {path}" in key for key in series)

    def test_unknown_path_404(self, served):
        server, _ = served
        status, _, body = _request(server, "GET", "/nope")
        assert status == 404
        assert b"no such endpoint" in body

    def test_method_not_allowed_405(self, served):
        server, _ = served
        status, head, _ = _request(server, "GET", "/v1/generate")
        assert status == 405
        assert head["allow"] == "POST"
        status, head, _ = _request(server, "POST", "/healthz")
        assert status == 405
        assert head["allow"] == "GET"

    @pytest.mark.parametrize("body,fragment", [
        (b"{not json", b"invalid JSON"),
        ({}, b"prompt"),
        ({"prompt": []}, b"prompt"),
        ({"prompt": "abc"}, b"prompt"),
        ({"prompt": [1, "x"]}, b"prompt"),
        ({"prompt": [1, True]}, b"prompt"),
        ({"prompt": [1], "stream": "yes"}, b"stream"),
        ({"prompt": [1], "bogus_field": 1}, b"unknown field"),
        ({"prompt": [1], "max_new_tokens": -3}, b"max_new_tokens"),
        (b"\xff\xfe{", b"invalid JSON"),  # truncated UTF-16
        ({"prompt": [1 << 70]}, b"prompt"),
        # json.dumps writes NaN, and json.loads reads it back as a float.
        ({"prompt": [1], "deadline_s": float("nan")}, b"deadline_s"),
        ({"prompt": [1], "deadline_s": float("inf")}, b"deadline_s"),
        ({"prompt": [1], "temperature": float("nan")}, b"temperature"),
        ({"prompt": [1], "top_k": 2.5}, b"top_k"),
        ({"prompt": [1], "seed": 1.5}, b"seed"),
    ])
    def test_validation_400(self, served, body, fragment):
        server, _ = served
        status, _, data = _request(
            server, "POST", "/v1/generate", body=body,
        )
        assert status == 400
        assert fragment in data

    @pytest.mark.parametrize("prompt", [[1, 28, 3], [1, -1, 3]])
    def test_token_id_outside_the_vocabulary_400(self, served, prompt):
        """Refused at ``submit``: it used to be accepted, fail inside
        ``step`` (``http_step_errors_total`` 1) and hold a drain for
        ``drain_timeout_s`` without ever reaching a terminal state."""
        server, engine = served
        status, _, data = _generate(server, prompt=prompt, max_new_tokens=2)
        assert status == 400
        assert b"[0, 28)" in data
        assert engine.has_work is False
        status, _, body = _generate(server, max_new_tokens=3)
        assert status == 200
        assert len(json.loads(body)["tokens"]) == 3
        assert engine.metrics.registry.counter(
            "http_step_errors_total").value == 0

    def test_body_too_large_413(self, model, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        server = start_http_server(engine)
        try:
            status, _, _ = _generate(server, prompt=list(range(1, 28)) * 4)
            assert status == 413
        finally:
            server.stop()
            engine.close()

    @pytest.mark.parametrize("request_bytes,status,endpoint", [
        (b"POST /v1/generate HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
         400, "POST /v1/generate"),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n",
         431, "unknown"),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 431, "unknown"),
    ])
    def test_malformed_head_answers(
        self, served, caplog, request_bytes, status, endpoint,
    ):
        server, engine = served
        with caplog.at_level("ERROR", logger="asyncio"):
            raw = _raw_exchange(server, request_bytes)
        assert raw.startswith(b"HTTP/1.1 %d " % status), raw[:80]
        assert b'{"error": ' in raw
        # The status that was written is the one that is counted, and
        # no handler task died on the way.
        assert _requests_counted(engine, endpoint, status) == 1
        assert _requests_counted(engine, endpoint, 500) == 0
        assert not caplog.records, caplog.text

    def test_query_string_is_not_part_of_the_route(self, served):
        server, engine = served
        status, _, body = _request(server, "GET", "/healthz?probe=1")
        assert status == 200
        assert json.loads(body)["healthy"] is True

    def test_client_that_sends_nothing_counts_no_response(self, served):
        server, engine = served
        socket.create_connection((server.host, server.port)).close()
        deadline = time.monotonic() + 5.0
        while (not _requests_counted(engine, "unknown", 499)
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert _requests_counted(engine, "unknown", 499) == 1
        assert _requests_counted(engine, "unknown", 500) == 0

    def test_loop_block_histogram_counts_steps(self, model):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        steps = _slow(engine, 0.0)
        server = start_http_server(engine)
        try:
            assert _generate(server, max_new_tokens=5)[0] == 200
            _, _, body = _request(server, "GET", "/metrics")
            count = [
                line for line in body.decode().splitlines()
                if line.startswith("http_loop_block_ms_count")
            ]
            assert count and float(count[0].split()[1]) == len(steps) >= 5
        finally:
            server.stop()
            engine.close()

    def test_cancel_unknown_404(self, served):
        server, _ = served
        status, _, _ = _request(
            server, "POST", "/v1/cancel", body={"request_id": 999},
        )
        assert status == 404


class TestShedAndCancel:
    def test_overload_sheds_429_with_retry_after(self, model):
        engine = ServingEngine(
            model, max_batch_size=2, seed=0,
            admission=LoadSheddingAdmission(
                max_queue_depth=1, est_step_s=0.01,
            ),
        )
        server = start_http_server(engine)
        # Freeze the engine so queued work cannot drain: the dispatcher
        # keeps calling step() but nothing progresses, making the shed
        # deterministic instead of a race against service speed.
        real_step = engine.step
        engine.step = lambda: []
        try:
            first = {}

            def occupy():
                first["response"] = _generate(
                    server, max_new_tokens=4, stream=True,
                )

            holder = threading.Thread(target=occupy)
            holder.start()
            deadline = time.monotonic() + 10.0
            while not engine.has_work and time.monotonic() < deadline:
                time.sleep(0.005)
            assert engine.has_work

            status, head, body = _generate(server, max_new_tokens=4)
            assert status == 429
            # RFC 9110 delay-seconds: whole seconds only.
            assert re.fullmatch(r"^\d+$", head["retry-after"])
            assert json.loads(body)["finish_reason"] == "shed"

            engine.step = real_step  # thaw; the held request completes
            holder.join(timeout=30.0)
            assert not holder.is_alive()
            status, _, raw = first["response"]
            assert status == 200
            _, tokens, finish_reason, _ = _parse_sse(raw)
            assert finish_reason == "length"
            assert len(tokens) == 4
        finally:
            engine.step = real_step
            server.stop()
            engine.close()

    @pytest.mark.parametrize("est_step_s,max_queue_depth,header", [
        (0.01, 1, "1"),
        (0.25, 4, "1"),
        (0.5, 3, "2"),
        (0.3, 10, "3"),
        (2.0, 4, "8"),
    ])
    def test_retry_after_is_the_ceiling_in_whole_seconds(
        self, model, est_step_s, max_queue_depth, header
    ):
        engine = ServingEngine(
            model, max_batch_size=2, seed=0,
            admission=LoadSheddingAdmission(
                max_queue_depth=max_queue_depth, est_step_s=est_step_s,
            ),
        )
        try:
            assert ServingHTTPServer(engine)._retry_after() == header
        finally:
            engine.close()

    def test_retry_after_without_a_step_estimate_is_one_second(self, model):
        engine = ServingEngine(
            model, max_batch_size=2, seed=0,
            admission=LoadSheddingAdmission(max_queue_depth=1),
        )
        try:
            assert ServingHTTPServer(engine)._retry_after() == "1"
        finally:
            engine.close()

    def test_cancel_mid_stream(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        _slow(engine, 0.01)
        server = start_http_server(engine)
        try:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=60,
            )
            conn.request(
                "POST", "/v1/generate",
                body=json.dumps({
                    "prompt": [1, 2, 3], "max_new_tokens": 100,
                    "stream": True,
                }),
            )
            response = conn.getresponse()
            assert response.status == 200
            request_id = None
            while request_id is None:
                line = response.readline()
                assert line, "stream ended before the start event"
                if line.startswith(b'data: {"request_id"'):
                    request_id = json.loads(
                        line.split(b"data: ", 1)[1]
                    )["request_id"]

            status, _, body = _request(
                server, "POST", "/v1/cancel",
                body={"request_id": request_id},
            )
            assert status == 200
            assert json.loads(body)["cancelled"] is True

            raw = response.read()  # drain the rest of the stream
            conn.close()
            _, tokens, finish_reason, saw_done = _parse_sse(raw)
            assert finish_reason == "cancelled"
            assert saw_done
            assert len(tokens) < 100
        finally:
            server.stop()
            engine.close()


class _CountingServer(ServingHTTPServer):
    """Records every ``transport.write`` of every connection."""

    def __init__(self, engine):
        super().__init__(engine)
        self.writes = []

    async def _handle_client(self, reader, writer):
        transport = writer.transport
        real_write = transport.write

        def write(data):
            self.writes.append(bytes(data))
            real_write(data)

        transport.write = write
        await super()._handle_client(reader, writer)


class TestWritePath:
    def test_stream_wire_bytes_are_golden(self, served):
        server, _ = served
        raw = _raw_exchange(
            server, _generate_bytes(max_new_tokens=7, seed=5, stream=True))
        _, _, twin = _generate(server, max_new_tokens=7, seed=5)
        tokens = json.loads(twin)["tokens"]
        assert len(tokens) == 7
        assert raw == _stream_wire(0, tokens)

    def test_one_write_per_step_and_connection(self, model):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        thread = ServerThread(engine)
        thread.server = counting = _CountingServer(engine)
        thread.start()
        try:
            raw = _raw_exchange(
                thread, _generate_bytes(max_new_tokens=6, seed=2, stream=True))
        finally:
            thread.stop()
            engine.close()
        writes = counting.writes
        assert b"".join(writes) == raw
        # Head + start event, then one write per step; the last step's
        # carries the end of the stream as well.
        assert len(writes) == 1 + 6
        assert writes[0].endswith(b'{"request_id": 0}\n\n\r\n')
        for index, data in enumerate(writes[1:]):
            assert data.count(b'data: {"token"') == 1
            assert b'"index": %d}' % index in data
        assert writes[-1].endswith(b"0\r\n\r\n")

    def test_client_hang_up_cancels_at_the_next_token(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        _slow(engine, 0.01)
        server = start_http_server(engine)
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=30)
            sock.sendall(_generate_bytes(max_new_tokens=100, stream=True))
            seen = b""
            while b'data: {"token"' not in seen:
                piece = sock.recv(4096)
                assert piece, "stream ended before the first token"
                seen += piece
            # Reset, not FIN: the server learns at once that nobody reads.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            generated = len(engine.result(0).tokens)
            sock.close()

            deadline = time.monotonic() + 10.0
            while (not engine.result(0).finished
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert engine.result(0).finish_reason == "cancelled"
            # Noticed at the next token or the one after (the reset may
            # land mid-step), plus one for reading ``generated`` unlocked.
            assert len(engine.result(0).tokens) <= generated + 3
            registry = engine.metrics.registry
            assert registry.counter("http_stream_disconnects_total").value == 1
            assert server.server._tracked == {}
            while (not _requests_counted(engine, "POST /v1/generate", 499)
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            assert _requests_counted(engine, "POST /v1/generate", 499) == 1

            status, _, body = _generate(server, max_new_tokens=3)
            assert status == 200
            assert json.loads(body)["finish_reason"] == "length"
        finally:
            server.stop()
            engine.close()

    def test_no_thread_besides_the_server_thread(self, model):
        before = set(threading.enumerate())
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        server = start_http_server(engine)
        try:
            assert _generate(server, max_new_tokens=3, stream=True)[0] == 200
            assert _generate(server, max_new_tokens=3)[0] == 200
            started = set(threading.enumerate()) - before
            assert [t.name for t in started] == ["repro-http-server"]
        finally:
            server.stop()
            engine.close()

    def test_concurrent_streams_keep_their_own_order(self, served):
        server, _ = served
        requests = [
            dict(prompt=[1, 2, 3], max_new_tokens=24, seed=7),
            dict(prompt=[4, 5, 6, 7], max_new_tokens=17, seed=8),
        ]
        streamed = [None, None]

        def consume(slot):
            streamed[slot] = _generate(server, stream=True, **requests[slot])

        threads = [
            threading.Thread(target=consume, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        for slot, request in enumerate(requests):
            status, _, raw = streamed[slot]
            assert status == 200
            events = [
                json.loads(line[len(b"data: "):])
                for line in raw.split(b"\n")
                if line.startswith(b'data: {"token"')
            ]
            assert [event["index"] for event in events] == list(
                range(request["max_new_tokens"]))
            _, _, twin = _generate(server, **request)
            assert [event["token"] for event in events] == json.loads(
                twin)["tokens"]

    def test_request_finished_by_its_first_step(self, served):
        # Nothing is generated, so the first thing the dispatcher has for
        # the request is its end: both paths must still answer in full.
        server, _ = served
        status, _, body = _generate(server, max_new_tokens=4, deadline_s=1e-9)
        assert status == 504
        payload = json.loads(body)
        assert payload["tokens"] == []
        assert payload["finish_reason"] == "deadline"
        raw = _raw_exchange(server, _generate_bytes(
            max_new_tokens=4, deadline_s=1e-9, stream=True))
        assert raw == _stream_wire(1, [], finish_reason="deadline")

    def test_step_error_is_counted_and_survived(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        real_step = engine.step
        calls = []

        def step():
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected step failure")
            return real_step()

        engine.step = step
        server = start_http_server(engine)
        try:
            status, _, body = _generate(server, max_new_tokens=5)
            assert status == 200
            assert len(json.loads(body)["tokens"]) == 5
            assert engine.metrics.registry.counter(
                "http_step_errors_total").value == 1
        finally:
            server.stop()
            engine.close()


class TestLifecycle:
    def test_submit_wakes_an_idle_dispatcher(self, model, monkeypatch):
        monkeypatch.setattr(server_module, "STEP_IDLE_S", 0.5)
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        server = start_http_server(engine)
        try:
            _generate(server, max_new_tokens=2)  # warm the decode program
            for _ in range(5):
                time.sleep(0.01)  # let the dispatcher go idle
                start = time.monotonic()
                status, _, _ = _generate(server, max_new_tokens=2)
                assert status == 200
                assert time.monotonic() - start < 0.25
        finally:
            server.stop()
            engine.close()

    def test_stop_without_drain_cancels_streams(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        _slow(engine, 0.005)
        server = start_http_server(engine)
        result = {}

        def consume():
            result["response"] = _generate(
                server, max_new_tokens=100, stream=True,
            )

        consumer = threading.Thread(target=consume)
        try:
            consumer.start()
            deadline = time.monotonic() + 10.0
            while not engine.has_work and time.monotonic() < deadline:
                time.sleep(0.005)
            assert engine.has_work
            server.stop(drain=False)
            consumer.join(timeout=30.0)
            assert not consumer.is_alive()
            status, _, raw = result["response"]
            assert status == 200
            _, tokens, finish_reason, saw_done = _parse_sse(raw)
            assert finish_reason == "cancelled"
            assert saw_done
            assert len(tokens) < 100
        finally:
            consumer.join(timeout=5.0)
            engine.close()

    def test_health_flips_when_fault_domain_exhausted(self, model, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_RESTARTS", 0)
        engine = ClusterEngine(
            model, workers=1, max_batch_size=2, seed=0, start_method="fork",
        )
        server = start_http_server(engine)
        try:
            status, _, _ = _request(server, "GET", "/healthz")
            assert status == 200
            assert engine.kill_worker(0)
            deadline = time.monotonic() + 15.0
            status = 200
            while status == 200 and time.monotonic() < deadline:
                time.sleep(0.05)
                status, _, body = _request(server, "GET", "/healthz")
            assert status == 503
            assert json.loads(body)["healthy"] is False
        finally:
            server.stop()
            engine.close()

    def test_stop_drains_in_flight_stream(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        _slow(engine, 0.005)
        server = start_http_server(engine)
        result = {}

        def consume():
            result["response"] = _generate(
                server, max_new_tokens=30, stream=True,
            )

        consumer = threading.Thread(target=consume)
        try:
            consumer.start()
            deadline = time.monotonic() + 10.0
            while not engine.has_work and time.monotonic() < deadline:
                time.sleep(0.005)
            assert engine.has_work
            server.stop(drain=True)  # must finish the stream, not cut it
            consumer.join(timeout=30.0)
            assert not consumer.is_alive()
            status, _, raw = result["response"]
            assert status == 200
            _, tokens, finish_reason, saw_done = _parse_sse(raw)
            assert finish_reason == "length"
            assert len(tokens) == 30
            assert saw_done
            with pytest.raises(OSError):
                _request(server, "GET", "/healthz")
        finally:
            consumer.join(timeout=5.0)
            engine.close()

    def test_serve_http_subprocess_sigterm_drains(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))), "src",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--max-len", "32", "--d-hidden", "16", "--max-new-tokens", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            line = proc.stdout.readline().decode()
            assert line.startswith("serving on http://"), line
            host, port = line.split("http://", 1)[1].split()[0].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request("POST", "/v1/generate", body=json.dumps({
                "prompt": [1, 2, 3], "max_new_tokens": 4,
            }))
            response = conn.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["finish_reason"] == "length"
            conn.close()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
