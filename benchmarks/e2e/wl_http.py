"""``http_stream``: the ``serve_open`` model, mix and seeds over real
sockets, so the difference between the two is the HTTP plane's cost."""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
import urllib.request
from typing import Dict, List, Optional

import numpy as np

import harness
from harness import chronological, clock, group_rates
from repro.models import ModelConfig, build_butterfly_decoder
from serving_common import (
    MAX_BATCH,
    TEMPERATURE,
    TINY_DECODER,
    PlannedRequest,
    RequestRecord,
    count_failures,
    latency_summary,
    request_plan,
    serving_probes,
)
from wl_serve import COMMON_ORACLE_PREFIX
from workload import Measured, Workload

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
#: Every socket read is bounded: a hung server fails the operation.
READ_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
_SERVING_ON = re.compile(rb"serving on http://[\d.]+:(\d+)")


class ServerProcess:
    """``python -m repro.cli serve --http 0`` as a child process."""

    def __init__(self) -> None:
        cfg = TINY_DECODER
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--http", "0",
            "--workers", "1", "--max-batch-size", str(MAX_BATCH),
            "--d-hidden", str(cfg["d_hidden"]), "--n-total", str(cfg["n_total"]),
            "--max-len", str(cfg["max_len"]), "--seed", str(cfg["seed"]),
        ]
        env = dict(os.environ)
        src = str(harness.REPO_ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            command, cwd=harness.REPO_ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        """The ephemeral port, from the server's ``serving on`` line."""
        deadline = clock() + START_TIMEOUT_S
        fd = self.process.stdout.fileno()
        seen = b""
        while True:
            remaining = deadline - clock()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(f"server printed no address: {seen!r}")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.process.wait()}: {seen!r}")
            seen += chunk
            match = _SERVING_ON.search(seen)
            if match:
                return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_s(self) -> float:
        """User + system CPU seconds so far, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child, from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM line in /proc status")

    def scrape(self) -> str:
        url = f"http://{HOST}:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=READ_TIMEOUT_S) as response:
            return response.read().decode()

    def stop(self) -> None:
        """SIGTERM, wait, then SIGKILL; always reaps the child and closes
        its pipe."""
        process = self.process
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdout.close()


def metric_value(text: str, name: str, labels: str = "") -> float:
    """Sum of the Prometheus samples called ``name`` whose label set
    contains ``labels`` (0 when absent)."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name)] in " {" and labels in line:
            total += float(line.rsplit(" ", 1)[1])
    return total


async def _read(awaitable):
    return await asyncio.wait_for(awaitable, READ_TIMEOUT_S)


async def stream_request(
    port: int, record: RequestRecord, tracer: harness.Tracer, track: int,
    timings: Dict[str, List[float]], probe: harness.SpeedProbe,
) -> None:
    """POST one streaming generate request and fill ``record`` from the
    SSE frames; any error or timeout leaves it without a finish reason."""
    request = record.request
    body = json.dumps({
        "prompt": request.prompt, "max_new_tokens": request.max_new_tokens,
        "temperature": TEMPERATURE, "seed": request.seed, "stream": True,
    }).encode()
    head = (
        f"POST /v1/generate HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    index = request.index
    writer = None
    record.due = record.sent = clock()
    try:
        with tracer.span("server.connect", index, track):
            reader, writer = await _read(asyncio.open_connection(HOST, port))
            writer.write(head + body)
            await writer.drain()
            status_line = await _read(reader.readline())
        status_at = clock()
        timings["connect_ms"].append((status_at - record.due) * 1e3)
        status = int(status_line.split()[1])
        timings["status"].append(status)
        if status != 200:
            return
        with tracer.span("server.stream", index, track):
            while (await _read(reader.readline())) not in (b"\r\n", b""):
                pass
            while True:
                size = int((await _read(reader.readline())).strip() or b"0", 16)
                if size == 0:
                    break
                frame = await _read(reader.readexactly(size + 2))
                now = clock()
                probe.tick()
                if frame.startswith(b'data: {"token"'):
                    record.tokens.append(json.loads(frame[6:])["token"])
                    record.token_times.append(now)
                elif frame.startswith(b"event: start"):
                    timings["head_to_start_ms"].append((now - status_at) * 1e3)
                elif frame.startswith(b"event: end"):
                    payload = frame.split(b"data: ", 1)[1]
                    record.finish_reason = json.loads(payload)["finish_reason"]
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            ValueError, IndexError, KeyError):
        record.finish_reason = None
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def closed_loop(port, records, clients, tracer, timings, probe) -> List[float]:
    """``clients`` coroutines on this one thread, each sending its next
    request when the previous one completes; returns completion times."""
    pending = iter(records)
    ends: List[float] = []

    async def client(track: int) -> None:
        for record in pending:
            await stream_request(port, record, tracer, track, timings, probe)
            ends.append(clock())

    await asyncio.gather(*(client(track) for track in range(clients)))
    return ends


class HttpStream(Workload):
    name = "http_stream"
    REQUESTS = 240

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.clients = min(2, os.cpu_count() or 1)
        self.plan = request_plan(
            seed, self.count(self.REQUESTS), TINY_DECODER["vocab_size"])
        self.server: Optional[ServerProcess] = None
        self.input_hash = harness.input_hash(
            [[r.prompt, r.max_new_tokens, r.seed] for r in self.plan])

    def _send(self, plan: List[PlannedRequest], tracer: harness.Tracer):
        records = [RequestRecord(request, 0.0) for request in plan]
        timings = {"connect_ms": [], "head_to_start_ms": [], "status": []}
        t0 = clock()
        self.probe.tick()
        ends = asyncio.run(closed_loop(
            self.server.port, records, self.clients, tracer, timings, self.probe))
        return records, timings, t0, ends

    def setup(self) -> None:
        # The speed of each vCPU changes on its own, and the generator can
        # only probe the one it runs on: so the server child (which
        # inherits the mask) shares one vCPU with its clients, whose work
        # is light.  Without this the probe says nothing about the server.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        t0 = clock()
        self.server = ServerProcess()
        self.start_s = clock() - t0
        self._send(self.plan[: 2 * MAX_BATCH], harness.Tracer(False))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def setup_layer_metrics(self) -> Dict[str, float]:
        return {"server.start_s": self.start_s}

    def measure(self, tracer: harness.Tracer) -> Measured:
        server = self.server
        before = server.scrape()
        cpu_before = server.cpu_s()
        records, timings, t0, ends = self._send(self.plan, tracer)
        window = max(ends) - t0
        cpu = server.cpu_s() - cpu_before
        scrape_start = clock()
        after = server.scrape()
        scrape_ms = (clock() - scrape_start) * 1e3
        # Completion order, not plan order: two clients interleave.
        done = sorted(
            (r for r in records if r.token_times),
            key=lambda r: r.token_times[-1])
        unserved = [r for r in records if not r.token_times]
        groups = chronological(done)
        for group in groups:
            slowdown = self.probe.slowdown(
                min(r.sent for r in group), group[-1].token_times[-1])
            for record in group:
                record.slowdown = slowdown
        summary = latency_summary([*groups, unserved])
        tokens = sum(len(r.tokens) for r in done)

        def delta(name: str, labels: str = "") -> float:
            return metric_value(after, name, labels) - metric_value(
                before, name, labels)

        generate = 'endpoint="POST /v1/generate"'
        ok = delta("http_requests_total", generate + ',status="200"')
        steps = delta("serving_batch_size_count")
        return Measured(
            window_s=window,
            attempted=len(records),
            rates=[
                rate * group[0].slowdown for rate, group in zip(group_rates(
                    t0, [r.token_times[-1] for r in done],
                    [len(r.tokens) for r in done]), groups)],
            slowdowns=[group[0].slowdown for group in groups],
            op=summary["op"], ttft=summary["ttft"], itl=summary["itl"],
            slo_ok_share=summary["slo_ok_share"],
            outputs=records,
            layer={
                "server.connect_ms": float(np.median(timings["connect_ms"])),
                "server.head_to_start_ms": float(
                    np.median(timings["head_to_start_ms"])),
                "server.ttft_overhead_p50_ms": summary["ttft"]["p50"]
                - metric_value(after, "serving_ttft_ms_p50"),
                "server.cpu_s": cpu,
                "server.cpu_ms_per_token": cpu * 1e3 / tokens,
                "server.engine_batch_mean":
                    delta("serving_batch_size_sum") / steps if steps else 0.0,
                "server.status_2xx": ok,
                "server.status_other":
                    delta("http_requests_total", generate) - ok,
                "server.metrics_scrape_ms": scrape_ms,
            },
        )

    def check(self, measured: Measured) -> int:
        """Every request ``length`` with its token budget, and sampled
        ones equal to an in-process solo run of the same weights — the
        reference ``serve_open`` checks against too."""
        model = build_butterfly_decoder(ModelConfig(**TINY_DECODER)).eval()
        return count_failures(
            measured.outputs, model,
            sample_from=min(COMMON_ORACLE_PREFIX, len(self.plan)))

    def probes(self) -> Dict[str, float]:
        model = build_butterfly_decoder(ModelConfig(**TINY_DECODER)).eval()
        probes = serving_probes(model, batch=MAX_BATCH, context=40)
        return {"kernels.attention_decode_ms": probes["kernels.attention_decode_ms"]}

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()
