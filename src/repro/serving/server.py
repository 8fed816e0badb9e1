"""Asyncio HTTP/1.1 control plane over the unified ``Engine`` protocol.

This is the serving front door the ROADMAP's "serve heavy traffic"
direction calls for: a dependency-free (stdlib ``asyncio`` + a minimal
HTTP/1.1 handler) server that speaks to *any*
:class:`~repro.serving.api.Engine` conformer, so ``--workers 1``
(:class:`~repro.serving.engine.ServingEngine`) and ``--workers N``
(:class:`~repro.serving.cluster.ClusterEngine`) are literally the same
code path.

Endpoints
    ``POST /v1/generate``
        JSON body ``{"prompt": [ids], "max_new_tokens", "temperature",
        "top_k", "top_p", "seed", "stop_token", "deadline_s",
        "stream"}``.  Blocking by default (JSON response with the full
        token list); with ``"stream": true`` the response is
        Server-Sent Events over chunked transfer encoding — a ``start``
        event carrying the request id, one ``data:`` event per token,
        then a terminal event with the finish reason.
    ``POST /v1/cancel``
        JSON body ``{"request_id": id}``; cancels a queued or running
        request (e.g. mid-stream from another connection).
    ``GET /healthz``
        Engine liveness (``engine.health()``): 200 while healthy, 503
        once workers are gone or the engine is closed/draining.
    ``GET /metrics``
        Prometheus text exposition (``engine.render_prometheus()``),
        which includes the per-endpoint HTTP counters/histograms the
        server records into the engine-local registry.

Concurrency model
    One thread, no hand-offs: accept, parse, ``engine.submit`` /
    ``cancel`` / ``close``, ``engine.step()`` and every socket write run
    on the event loop's thread.  A single **dispatcher task** calls
    ``engine.step()`` directly, then writes each tracked request's new
    tokens to that request's transport itself — one preformatted byte
    string and one ``write`` per connection per step — and at the finish
    the terminal frames (or the blocking JSON response), and resolves
    the one future the request's handler coroutine waits on.  A handler
    parses, submits, tracks and, for a stream, writes head + ``start``
    event in one synchronous stretch, so no token is ever generated for
    a request the dispatcher does not know about.

    *What a step blocks.*  While ``engine.step()`` runs, accept, parsing,
    ``/healthz`` and ``/metrics`` wait — one step at most (0.3-6 ms on
    every committed workload; ``ClusterEngine.step`` is a non-blocking
    pump), the bound ``submit`` always had behind the engine lock.
    ``http_loop_block_ms`` on ``/metrics`` records how long each
    dispatcher turn (step + fan-out) held the loop, so an operator
    serving a larger model sees it rather than guesses.

    *Why token writes are not awaited.*  ``transport.write`` sends at
    once when the socket takes the bytes and buffers otherwise; a stream
    buffers at most ``max_new_tokens`` frames of ~45 bytes (tokens the
    engine holds anyway), so the dispatcher never waits on a slow
    reader.  A write to a closed transport does not raise: the
    dispatcher checks ``transport.is_closing()`` before each write and
    cancels the request of a connection that is gone.

    *Turns per step.*  asyncio takes five loop turns from a connection's
    ``accept`` to its request being read (accept → transport task, which
    calls :meth:`ServingHTTPServer._protocol` → ``connection_made`` +
    ``add_reader`` → handler start + first ``recv`` → handler resumes
    and parses), and a task that yields sees only what earlier turns
    did; with one turn between steps each hop costs a whole engine step
    of time-to-first-token.  So the dispatcher yields ``_MIN_TURNS``
    turns after every step — enough for an ``accept`` to reach
    ``_protocol``, which counts the connection as arriving — and keeps
    yielding, up to ``_MAX_TURNS``, while a connection is arriving:
    streams pay for arrivals only while there is one, and a client that
    connects and stays silent costs them at most ``_MAX_TURNS`` turns a
    step.  The measured table sits beside the constants.

Backpressure & deadlines are enforced at the HTTP boundary: an
engine-level :class:`~repro.serving.admission.LoadSheddingAdmission`
shed surfaces as **429** with a ``Retry-After`` hint, and a request's
``deadline_s`` rides into :class:`~repro.serving.sampling.
SamplingParams` so the engine's deadline machinery cancels it with
``finish_reason="deadline"`` (**504** on the blocking path).

On SIGTERM/SIGINT (:func:`run_http_server`) the server stops accepting
connections, keeps the dispatcher stepping until every in-flight
request — streaming or blocking — has finished, then stops.
:class:`ServerThread` wraps the same server in a background thread with
its own event loop for tests, benches and the CLI self-test.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from .metrics import LATENCY_MS_BOUNDARIES
from .sampling import SamplingParams
from .scheduler import FINISH_DEADLINE, FINISH_ERROR, FINISH_SHED

__all__ = [
    "ServingHTTPServer",
    "ServerThread",
    "start_http_server",
    "run_http_server",
]

#: Sampling fields accepted in a /v1/generate body (everything else in
#: the request object is a server-level field or an error).
_PARAM_FIELDS = (
    "max_new_tokens", "temperature", "top_k", "top_p",
    "seed", "stop_token", "deadline_s",
)
_SERVER_FIELDS = ("prompt", "stream")

#: Path -> the one method it answers.  Metrics label a request with its
#: route only when it names one; every other request counts as
#: ``unknown``, so what a client sends cannot mint new series.
_ROUTES = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/v1/generate": "POST",
    "/v1/cancel": "POST",
}

_REASON_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Blocking-path HTTP status per terminal finish reason.  ``length`` /
#: ``stop`` / ``cancelled`` are successful request lifecycles (the body
#: carries the reason); shed, deadline and engine error map to the
#: standard overload / timeout / server-fault codes.
_FINISH_STATUS = {
    FINISH_SHED: 429,
    FINISH_DEADLINE: 504,
    FINISH_ERROR: 500,
}

#: Status counted for a connection whose client left before a response
#: was written (nginx's "client closed request"); never sent.
_CLIENT_CLOSED = 499

#: A client gets this long to send its head, and as long again its body.
_READ_TIMEOUT_S = 10.0
#: Largest request body accepted (413 above it).
MAX_BODY_BYTES = 1 << 20
#: How long an idle dispatcher waits for a submission before it steps
#: again (an idle engine, or a cluster waiting on worker pipes), so an
#: idle server does not spin a core.
STEP_IDLE_S = 0.002
#: Bound on the stop-time drain; requests still live after it are
#: cancelled.
DRAIN_TIMEOUT_S = 30.0

#: Loop turns the dispatcher yields between two engine steps: at least
#: ``_MIN_TURNS``, and up to ``_MAX_TURNS`` while a connection is arriving
#: ("Turns per step" in the module docstring).  A turn is one
#: ``select(0)`` plus the loop's bookkeeping: 3 us in a tight loop,
#: nearer 9 us between engine steps.  Measured on the 2-vCPU reference
#: box, ``http_stream``, medians of seeds 11-16
#: (``itl_p50_ms`` / ``ttft_p50_ms``; the parent's executor path read
#: 0.89 / 4.10 beside the fixed-1 row, seeds 11-14):
#:
#:     fixed 1        0.71 / 5.67      min 1, max 8    0.69 / 4.01
#:     fixed 5        0.72 / 3.38      min 2, max 8    0.73 / 3.47
#:     fixed 8        0.75 / 2.91      min 3, max 8    0.72 / 2.91
#:                                     min 3, max 12   0.73 / 2.87
_MIN_TURNS = 3
_MAX_TURNS = 8


class _BadRequest(Exception):
    """Client error: carries the HTTP status and a message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _response(
    status: int, body: bytes, content_type: str = "application/json",
    extra_headers=(),
) -> bytes:
    """Head and body of one ``Connection: close`` response."""
    return _head(status, [
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
        ("Connection", "close"),
        *extra_headers,
    ]) + body


def _json_response(status: int, payload, extra_headers=()) -> bytes:
    return _response(
        status, json.dumps(payload).encode("utf-8"),
        extra_headers=extra_headers,
    )


def _head(status: int, headers) -> bytes:
    phrase = _REASON_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _chunk(payload: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return b"%x\r\n%b\r\n" % (len(payload), payload)


def _sse(payload, event: str) -> bytes:
    """One named SSE event as one chunk."""
    return _chunk(
        f"event: {event}\ndata: {json.dumps(payload)}\n\n".encode("utf-8")
    )


def _token_frame(token: int, index: int) -> bytes:
    """One token's SSE event as one chunk — the bytes ``json.dumps``
    gives for ``{"token": token, "index": index}``, without the call."""
    return _chunk(b'data: {"token": %d, "index": %d}\n\n' % (token, index))


_STREAM_HEAD = _head(200, [
    ("Content-Type", "text/event-stream"),
    ("Cache-Control", "no-cache"),
    ("Transfer-Encoding", "chunked"),
    ("Connection", "close"),
])
#: ``[DONE]`` and the terminal zero-length chunk.
_STREAM_TAIL = _chunk(b"data: [DONE]\n\n") + b"0\r\n\r\n"


class _Tracked:
    """Dispatcher-side record of one in-flight HTTP request."""

    __slots__ = ("request_id", "transport", "stream", "delivered", "done")

    def __init__(
        self, request_id: int, transport: asyncio.Transport, stream: bool
    ) -> None:
        self.request_id = request_id
        self.transport = transport
        self.stream = stream
        #: how many engine-side tokens were already written (stream) or
        #: seen (blocking: progress only; the response is built at the end).
        self.delivered = 0
        #: resolved by the dispatcher with the HTTP status to count, once
        #: the whole response is written; the handler waits on it.
        self.done = asyncio.get_running_loop().create_future()


class ServingHTTPServer:
    """Asyncio HTTP front end over one :class:`~repro.serving.api.Engine`.

    ``engine`` may be any protocol conformer; the server never touches
    anything engine-specific.  ``own_engine=True`` makes ``stop()``
    close the engine as well (the CLI path); tests usually keep the
    engine alive to inspect results after the server exits.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        own_engine: bool = False,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.own_engine = own_engine
        self.registry = engine.metrics.registry
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._tracked: Dict[int, _Tracked] = {}
        #: connections accepted whose request is not read yet.
        self._arriving = 0
        #: set by a submission, so an idle dispatcher steps at once.
        self._wake = asyncio.Event()
        self._stopping = False
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "ServingHTTPServer":
        """Bind the listening socket and start the dispatcher task."""
        self._server = await asyncio.get_running_loop().create_server(
            self._protocol, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-http-dispatcher"
        )
        return self

    def _protocol(self) -> asyncio.StreamReaderProtocol:
        """What ``asyncio.start_server`` builds per accepted connection,
        counted: the loop calls this one turn after ``accept``, three
        before :meth:`_handle_client` first reads."""
        self._arriving += 1
        return asyncio.StreamReaderProtocol(
            asyncio.StreamReader(), self._handle_client
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; optionally drain in-flight requests; stop.

        With ``drain=True`` the dispatcher keeps stepping the engine
        until every tracked request has reached a terminal state (bounded
        by :data:`DRAIN_TIMEOUT_S`); with ``drain=False`` live requests are
        cancelled first so their streams terminate with
        ``finish_reason="cancelled"``.  Idempotent.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            self._cancel_tracked()
        try:
            async with asyncio.timeout(DRAIN_TIMEOUT_S):
                await self._await_drained()
        except TimeoutError:
            self.registry.counter("http_drain_timeouts_total").inc()
            self._cancel_tracked()
            await self._await_drained()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self.own_engine:
            self.engine.close()
        self._stopped.set()

    def _cancel_tracked(self) -> None:
        for request_id in self._tracked:
            self.engine.cancel(request_id)

    async def _await_drained(self) -> None:
        # The dispatcher writes a request's whole response before it
        # untracks it, so an empty table means every byte is handed over.
        while self._tracked:
            await asyncio.sleep(STEP_IDLE_S)

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` runs (e.g. from a signal handler)."""
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain-then-stop (main thread only)."""
        import signal as _signal

        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.stop(drain=True))
            )

    # -- dispatcher ----------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """The single engine-stepping task.

        Steps the engine on the loop whenever work exists, then writes
        new tokens / terminal states to their connections.  Runs until
        cancelled by :meth:`stop` (it must outlive the accept loop so
        in-flight requests finish during drain).
        """
        clock = self.engine.metrics.clock
        block_ms = self.registry.histogram(
            "http_loop_block_ms", boundaries=LATENCY_MS_BOUNDARIES
        )
        while True:
            progressed = False
            if self._tracked or self.engine.has_work:
                started = clock()
                try:
                    self.engine.step()
                except Exception:
                    self.registry.counter("http_step_errors_total").inc()
                progressed = self._fan_out()
                block_ms.observe((clock() - started) * 1e3)
            if progressed:
                turns = 0
                while turns < _MIN_TURNS or (
                    self._arriving and turns < _MAX_TURNS
                ):
                    await asyncio.sleep(0)
                    turns += 1
            else:
                self._wake.clear()
                try:
                    async with asyncio.timeout(STEP_IDLE_S):
                        await self._wake.wait()
                except TimeoutError:
                    pass

    def _fan_out(self) -> bool:
        """Write each tracked request's new tokens / terminal state to
        its connection; True when any request moved.

        One ``write`` per connection per step, never awaited: a stream
        buffers at most ``max_new_tokens`` frames of ~45 bytes, so there
        is no flow control to wait for (see "Concurrency model").
        """
        progressed = False
        for tracked in list(self._tracked.values()):
            result = self.engine.result(tracked.request_id)
            tokens = result.tokens
            total = len(tokens)
            if total == tracked.delivered and not result.finished:
                continue
            progressed = True
            if tracked.transport.is_closing():
                # The client hung up: stop decoding for a dead connection.
                self.engine.cancel(tracked.request_id)
                self.registry.counter("http_stream_disconnects_total").inc()
                self._untrack(tracked, _CLIENT_CLOSED)
                continue
            status = 200
            frames = b""
            if tracked.stream:
                for index in range(tracked.delivered, total):
                    frames += _token_frame(tokens[index], index)
                if result.finished:
                    frames += _sse({
                        "request_id": tracked.request_id,
                        "finish_reason": result.finish_reason,
                        "tokens": total,
                    }, event="end") + _STREAM_TAIL
            elif result.finished:
                status = _FINISH_STATUS.get(result.finish_reason, 200)
                frames = _json_response(status, {
                    "request_id": tracked.request_id,
                    "tokens": [int(token) for token in tokens],
                    "finish_reason": result.finish_reason,
                })
            tracked.delivered = total
            if frames:
                tracked.transport.write(frames)
            if result.finished:
                self._untrack(tracked, status)
        return progressed

    def _untrack(self, tracked: _Tracked, status: int) -> None:
        del self._tracked[tracked.request_id]
        tracked.done.set_result(status)

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = self.engine.metrics.clock()
        endpoint = "unknown"
        status = _CLIENT_CLOSED
        try:
            try:
                try:
                    method, path, headers = await self._read_head(reader)
                    if _ROUTES.get(path) == method:
                        endpoint = f"{method} {path}"
                    body = await self._read_body(reader, headers)
                finally:
                    # Read, or never will be: either way no longer a
                    # reason for the dispatcher to wait between steps.
                    self._arriving -= 1
                status = await self._route(writer, method, path, body)
            except _BadRequest as exc:
                status = self._respond_json(
                    writer, exc.status, {"error": exc.message}
                )
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            status = _CLIENT_CLOSED  # gone before or during the response
        except Exception:
            # A bug, not the client.  Every response is one write made
            # last, so nothing is on the wire yet: answer, then let
            # asyncio's exception handler log the traceback.
            status = self._respond_json(
                writer, 500, {"error": "internal server error"}
            )
            raise
        finally:
            elapsed_ms = (self.engine.metrics.clock() - started) * 1e3
            self.registry.counter(
                "http_requests_total", endpoint=endpoint, status=status
            ).inc()
            self.registry.histogram(
                "http_request_ms",
                boundaries=LATENCY_MS_BOUNDARIES,
                endpoint=endpoint,
            ).observe(elapsed_ms)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        """Method, path (without any ``?query``) and lower-cased headers."""
        headers: Dict[str, str] = {}
        try:
            async with asyncio.timeout(_READ_TIMEOUT_S):
                request_line = (await reader.readline()).decode("latin-1")
                while True:
                    line = (await reader.readline()).decode("latin-1")
                    if line in ("\r\n", "\n", ""):
                        break
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
        except TimeoutError:
            raise _BadRequest(408, "request header timeout")
        except ValueError:  # a line over StreamReader's 64 KiB limit
            raise _BadRequest(431, "request header line too long")
        request_line = request_line.strip()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _BadRequest(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        return method.upper(), target.partition("?")[0], headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest(400, "Content-Length must be an integer")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        if length <= 0:
            return b""
        try:
            async with asyncio.timeout(_READ_TIMEOUT_S):
                return await reader.readexactly(length)
        except (asyncio.IncompleteReadError, TimeoutError):
            raise _BadRequest(400, "request body shorter than Content-Length")

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> int:
        """Answer one request; returns the status written."""
        allowed = _ROUTES.get(path)
        if allowed is None:
            return self._respond_json(
                writer, 404, {"error": f"no such endpoint: {path}"}
            )
        if method != allowed:
            return self._respond_json(
                writer, 405, {"error": f"method not allowed; use {allowed}"},
                extra_headers=[("Allow", allowed)],
            )
        handler = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/v1/generate": self._handle_generate,
            "/v1/cancel": self._handle_cancel,
        }[path]
        return await handler(writer, body)

    # -- endpoints -----------------------------------------------------
    async def _handle_healthz(self, writer, body: bytes) -> int:
        health = self.engine.health()
        healthy = bool(health.get("healthy")) and not self._stopping
        payload = dict(health)
        payload["healthy"] = healthy
        payload["draining"] = self._stopping
        # JSON object keys must be strings; worker slots are ints.
        if isinstance(payload.get("workers"), dict):
            payload["workers"] = {
                str(slot): info for slot, info in payload["workers"].items()
            }
        return self._respond_json(writer, 200 if healthy else 503, payload)

    async def _handle_metrics(self, writer, body: bytes) -> int:
        writer.write(_response(
            200, self.engine.render_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        ))
        return 200

    def _parse_generate(self, body: bytes):
        request = _parse_json_object(body)
        unknown = sorted(
            set(request) - set(_SERVER_FIELDS) - set(_PARAM_FIELDS)
        )
        if unknown:
            raise _BadRequest(400, f"unknown fields: {', '.join(unknown)}")
        prompt = request.get("prompt")
        if not isinstance(prompt, list) or not prompt or not all(
            isinstance(token, int) and not isinstance(token, bool)
            and abs(token) < 1 << 63
            for token in prompt
        ):
            raise _BadRequest(
                400, "prompt must be a non-empty list of token ids"
            )
        stream = request.get("stream", False)
        if not isinstance(stream, bool):
            raise _BadRequest(400, "stream must be a boolean")
        fields = {
            name: request[name] for name in _PARAM_FIELDS if name in request
        }
        try:
            params = SamplingParams(**fields)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(400, f"invalid sampling params: {exc}")
        return np.asarray(prompt, dtype=np.int64), params, stream

    async def _handle_generate(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> int:
        prompt, params, stream = self._parse_generate(body)
        if self._stopping:
            return self._respond_json(
                writer, 503, {"error": "server is draining"},
                extra_headers=[("Retry-After", "1")],
            )
        try:
            request_id = int(self.engine.submit(prompt, params))
        except RuntimeError as exc:  # engine draining/closed under us
            return self._respond_json(writer, 503, {"error": str(exc)})
        except ValueError as exc:  # a token id outside the model's vocabulary
            raise _BadRequest(400, str(exc))
        if self.engine.result(request_id).finish_reason == FINISH_SHED:
            return self._respond_json(
                writer, 429,
                {"error": "request shed: engine overloaded",
                 "request_id": request_id, "finish_reason": FINISH_SHED},
                extra_headers=[("Retry-After", self._retry_after())],
            )
        # No ``await`` between submit and here: the dispatcher cannot
        # step, so no token exists that it has not been told about.  A
        # request already finished (e.g. by a cross-thread cancel) takes
        # the same path: the dispatcher's next pass writes its end.
        tracked = _Tracked(request_id, writer.transport, stream)
        self._tracked[request_id] = tracked
        self._wake.set()
        if stream:
            writer.write(_STREAM_HEAD + _sse(
                {"request_id": request_id}, event="start"
            ))
        return await tracked.done

    def _retry_after(self) -> str:
        """Retry hint from the engine's shedding policy when available, in
        whole seconds (RFC 9110 delay-seconds), at least 1."""
        admission = getattr(self.engine, "admission", None)
        if admission is not None and admission.est_step_s \
                and admission.max_queue_depth:
            return str(max(math.ceil(
                admission.est_step_s * admission.max_queue_depth), 1))
        return "1"

    async def _handle_cancel(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> int:
        request = _parse_json_object(body)
        request_id = request.get("request_id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise _BadRequest(400, "request_id must be an integer")
        try:
            self.engine.result(request_id)
        except KeyError:
            return self._respond_json(
                writer, 404, {"error": f"unknown request id {request_id}"}
            )
        return self._respond_json(writer, 200, {
            "request_id": request_id,
            "cancelled": bool(self.engine.cancel(request_id)),
        })

    def _respond_json(
        self, writer, status: int, payload, extra_headers=()
    ) -> int:
        """Write one JSON response (one ``write``); returns ``status``."""
        writer.write(_json_response(status, payload, extra_headers))
        return status


def _parse_json_object(body: bytes) -> Dict[str, object]:
    if not body:
        raise _BadRequest(400, "request body must be a JSON object")
    try:
        request = json.loads(body)
    except (ValueError, RecursionError) as exc:  # syntax, encoding, depth
        raise _BadRequest(400, f"invalid JSON body: {exc}")
    if not isinstance(request, dict):
        raise _BadRequest(400, "request body must be a JSON object")
    return request


class ServerThread:
    """Run a :class:`ServingHTTPServer` on a background event loop.

    The thread owns its own ``asyncio`` loop; :meth:`start` blocks until
    the socket is bound (so ``server.port`` is final) and :meth:`stop`
    requests a drain-then-stop and joins the thread.  Context-manager
    form stops on exit::

        with ServerThread(engine) as server:
            requests.get(f"http://127.0.0.1:{server.port}/healthz")
    """

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = ServingHTTPServer(engine, host=host, port=port)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None

    @property
    def engine(self):
        return self.server.engine

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout_s: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-http-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise TimeoutError("HTTP server failed to start in time")
        if self._error is not None:
            raise RuntimeError("HTTP server failed to start") from self._error
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - boot failures
            self._error = exc
            self._started.set()

    async def _serve(self) -> None:
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.serve_forever()

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Drain-then-stop the server and join its thread.  Idempotent."""
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self._loop
            )
        self._thread.join(timeout_s)
        if self._thread.is_alive():  # pragma: no cover - hung shutdown
            raise TimeoutError("HTTP server thread did not stop in time")

    def __enter__(self) -> "ServerThread":
        return self.start() if not self._started.is_set() else self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def start_http_server(engine, host: str = "127.0.0.1", port: int = 0) -> ServerThread:
    """Start a background HTTP server over ``engine``; returns the
    running :class:`ServerThread` (``.port`` is the bound port)."""
    return ServerThread(engine, host=host, port=port).start()


def run_http_server(engine, host: str = "127.0.0.1", port: int = 0) -> None:
    """Blocking CLI entry point: serve until SIGTERM/SIGINT, then drain.

    Owns the engine: after the drain completes the engine is closed, so
    a supervisor (systemd, k8s) sending SIGTERM gets a clean exit with
    zero accepted requests dropped.
    """

    async def _main() -> None:
        server = ServingHTTPServer(engine, host=host, port=port, own_engine=True)
        await server.start()
        server.install_signal_handlers()
        print(f"serving on http://{server.host}:{server.port} "
              f"(SIGTERM drains)", flush=True)
        await server.serve_forever()

    asyncio.run(_main())
