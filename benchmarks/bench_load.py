"""Open-loop HTTP load benchmark: shed at the door, zero-loss worker kill.

Drives the asyncio HTTP control plane (:mod:`repro.serving.server`) over
real TCP sockets with an **open-loop** generator — arrivals follow a
Poisson process on a fixed schedule, so a slow server cannot slow the
offered load down (closed-loop harnesses hide overload by backing off).
Two scenarios on the tiny decoder:

* **overload** — a burst far above service capacity against a
  queue-depth-2 :class:`~repro.serving.admission.LoadSheddingAdmission`.
  The server must shed at the door (429 + ``Retry-After``), never hang:
  every response is either a completed 200 or a 429, and at least one
  request is shed (``shed_gate_ok``).
* **cluster_kill** — the same open-loop load against a 2-worker
  :class:`~repro.serving.cluster.ClusterEngine` behind the same server;
  one worker is SIGKILLed mid-load.  Failover replay must finish every
  accepted request bit-silently (zero lost, ``kill_landed``).

Every gate is an exact count.  Latency and tokens/s over the same plane
are the e2e harness's ``http_stream`` workload (``benchmarks/e2e``).
Results persist to ``BENCH_load.json`` under ``load`` / ``load_smoke``.
Run directly (``python benchmarks/bench_load.py``, ``--quick`` for the
CI smoke) or via pytest.
"""

import http.client
import json
import re
import sys
import threading
import time

import numpy as np
from conftest import print_table, update_bench_json

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import LoadSheddingAdmission, ServingEngine
from repro.serving.cluster import ClusterEngine
from repro.serving.server import start_http_server

TINY_CONFIG = ModelConfig(
    vocab_size=28, n_classes=2, max_len=128, d_hidden=32,
    n_heads=4, r_ffn=2, n_total=2, seed=0,
)

#: Prompt/output length mix (cycled per request): short chat-y turns,
#: medium completions, long generations.
LENGTH_MIX = ((4, 8), (8, 16), (16, 24))


def _poisson_plan(rng, phases, seed):
    """Open-loop arrival schedule: ``[(send_at_s, body), ...]``.

    ``phases`` is a list of ``(rate_rps, n_requests)`` pairs;
    inter-arrival gaps are exponential, so each phase is a Poisson
    process at its rate.
    """
    plan = []
    t = 0.0
    i = 0
    for rate_rps, count in phases:
        for _ in range(count):
            t += float(rng.exponential(1.0 / rate_rps))
            prompt_len, new_tokens = LENGTH_MIX[i % len(LENGTH_MIX)]
            prompt = rng.integers(
                1, TINY_CONFIG.vocab_size, size=prompt_len
            )
            plan.append((t, {
                "prompt": [int(x) for x in prompt],
                "max_new_tokens": new_tokens,
                "temperature": 0.8,
                "seed": seed + i,
                "stream": True,
            }))
            i += 1
    return plan


def _fire(host, port, send_at, body, record):
    """One open-loop request: sleep to its slot, then stream it."""
    delay = send_at - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    try:
        conn = http.client.HTTPConnection(host, port, timeout=300)
        conn.request("POST", "/v1/generate", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        record["status"] = response.status
        if response.status != 200:
            response.read()
            record["retry_after"] = response.getheader("Retry-After")
            conn.close()
            return
        while True:
            line = response.readline()
            if not line:
                break
            if line.startswith(b"event: end"):
                data = response.readline()
                record["finish_reason"] = json.loads(
                    data.split(b"data: ", 1)[1]
                )["finish_reason"]
        conn.close()
    except (OSError, ValueError) as exc:  # pragma: no cover - hard fail
        record["error"] = repr(exc)


def _run_open_loop(server, plan):
    """Fire the arrival schedule; returns one record per request."""
    records = [{} for _ in plan]
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=_fire,
            args=(server.host, server.port, start + at, body, record),
            daemon=True,
        )
        for (at, body), record in zip(plan, records)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _summarize(records):
    accepted = [r for r in records if r.get("status") == 200]
    completed = [r for r in accepted if r.get("finish_reason") == "length"]
    errors = [r for r in records if "error" in r
              or r.get("status") not in (200, 429)]
    return {
        "requests": len(records),
        "accepted": len(accepted),
        "completed": len(completed),
        "shed": sum(r.get("status") == 429 for r in records),
        "lost": len(accepted) - len(completed) + len(errors),
    }


def _overload(model, burst):
    """Burst far above capacity against a depth-2 shedding admission."""
    engine = ServingEngine(
        model, max_batch_size=2, seed=0,
        admission=LoadSheddingAdmission(max_queue_depth=2, est_step_s=0.01),
    )
    server = start_http_server(engine)
    try:
        plan = _poisson_plan(
            np.random.default_rng(1), [(400.0, burst)], seed=200,
        )
        records = _run_open_loop(server, plan)
    finally:
        server.stop()
        engine.close()
    summary = _summarize(records)
    # The overload contract: at least one request shed at the door with
    # a Retry-After hint in whole seconds (RFC 9110 delay-seconds), and
    # every response terminal (200 or 429).
    retry_after_ok = all(
        re.fullmatch(r"[0-9]+", r.get("retry_after") or "")
        for r in records if r.get("status") == 429
    )
    summary["shed_gate_ok"] = (
        1.0 if summary["shed"] >= 1 and retry_after_ok
        and summary["lost"] == 0 else 0.0
    )
    return summary


def _cluster_kill(model, phases, kill_after_tokens):
    """Open-loop load on a 2-worker cluster; SIGKILL one mid-load."""
    engine = ClusterEngine(
        model, workers=2, max_batch_size=4, seed=0, start_method="fork",
    )
    state = {"killed": False}
    stop = threading.Event()

    def killer():
        while not stop.is_set():
            total = engine.metrics.aggregate()["total_new_tokens"]
            if total >= kill_after_tokens:
                state["killed"] = engine.kill_worker(0)
                return
            time.sleep(0.005)

    server = start_http_server(engine)
    monitor = threading.Thread(target=killer, daemon=True)
    monitor.start()
    try:
        plan = _poisson_plan(np.random.default_rng(2), phases, seed=300)
        records = _run_open_loop(server, plan)
    finally:
        stop.set()
        monitor.join()
        server.stop()
        engine.close()
    summary = _summarize(records)
    summary["kill_landed"] = 1.0 if state["killed"] else 0.0
    summary["worker_deaths"] = int(
        sum(v.get("value", 0) for k, v in
            engine.metrics.registry.snapshot().items()
            if k.startswith("cluster_worker_deaths_total"))
    )
    return summary


def run(quick: bool = False):
    model = build_butterfly_decoder(TINY_CONFIG).eval()
    if quick:
        burst, kill_phases, kill_after = 16, [(30.0, 10)], 10
    else:
        burst, kill_phases, kill_after = 32, [(30.0, 24)], 30

    overload = _overload(model, burst)
    cluster = _cluster_kill(model, kill_phases, kill_after)

    accepted_completed_ok = 1.0 if (
        overload["completed"] == overload["accepted"]
        and cluster["completed"] == cluster["accepted"]
    ) else 0.0
    return {
        "overload": overload,
        "cluster": cluster,
        # Flattened hard gates (dotted paths for scripts/check_bench.py).
        "lost_requests": overload["lost"] + cluster["lost"],
        "shed_gate_ok": overload["shed_gate_ok"],
        "accepted_completed_ok": accepted_completed_ok,
        "kill_landed": cluster["kill_landed"],
    }


def test_open_loop_load(quick: bool = False):
    """SLO gates: zero lost requests, overload sheds cleanly at the
    door, a mid-load worker SIGKILL loses nothing."""
    r = run(quick=quick)
    rows = []
    for name in ("overload", "cluster"):
        s = r[name]
        rows.append((name, s["requests"], s["accepted"], s["shed"], s["lost"]))
    print_table(
        "Open-loop HTTP load: accepted, shed and lost requests",
        ["scenario", "reqs", "accepted", "shed", "lost"],
        rows,
    )
    section = "load_smoke" if quick else "load"
    update_bench_json(section, r, filename="BENCH_load.json")
    assert r["lost_requests"] == 0, "accepted requests were lost/hung"
    assert r["shed_gate_ok"] == 1.0, \
        "overload burst did not shed cleanly (429 + Retry-After)"
    assert r["accepted_completed_ok"] == 1.0, \
        "an accepted request did not run to completion"
    assert r["kill_landed"] == 1.0, "the mid-load SIGKILL never landed"


if __name__ == "__main__":
    test_open_loop_load(quick="--quick" in sys.argv[1:])
    print("\nwrote BENCH_load.json")
