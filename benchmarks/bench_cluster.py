"""Multi-worker cluster benchmark: aggregate throughput scaling and
recovery time after a mid-decode worker kill.

Measures, on the tiny decoder config:

* **aggregate tokens/s vs worker count** — the same request workload
  served by a single in-process ``ServingEngine`` and by a supervised
  ``ClusterEngine`` at 1 and 2 workers.  Worker processes are real
  parallelism (each replica decodes its share of the sessions in its own
  interpreter), so on a multi-core runner 2 workers should beat 1; on a
  1-core container the workers time-slice.  The ratio is recorded beside
  ``cores``, not gated (ROADMAP item 13(b)).
* **recovery after a mid-decode SIGKILL** — one worker of a 2-worker
  cluster is killed once tokens are flowing; recorded are the time from
  the kill to the last session finishing, the number of lost/hung
  sessions (must be 0) and ``failover_parity_ok``: whether every
  session's tokens are bit-identical to the fault-free cluster run (the
  deterministic-replay oracle, a hard gate).

Results persist to ``BENCH_serving.json`` under ``cluster`` /
``cluster_smoke``.  Run directly (``python benchmarks/bench_cluster.py``,
``--quick`` for the CI smoke) or via pytest.
"""

import os
import sys
import time

import numpy as np
from conftest import print_table, update_bench_json

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine
from repro.serving.cluster import ClusterEngine

TINY_CONFIG = ModelConfig(
    vocab_size=28, n_classes=2, max_len=256, d_hidden=64,
    n_heads=4, r_ffn=2, n_total=2, seed=0,
)


def _make_prompts(config, n, prompt_len, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, config.vocab_size, size=prompt_len)
            for _ in range(n)]


def _params(new_tokens):
    return SamplingParams(max_new_tokens=new_tokens, temperature=0.8)


def _run_single(model, prompts, new_tokens, max_batch_size):
    engine = ServingEngine(model, max_batch_size=max_batch_size, seed=0)
    t0 = time.perf_counter()
    for prompt in prompts:
        engine.submit(prompt, _params(new_tokens))
    results = engine.run()
    elapsed = time.perf_counter() - t0
    assert all(r.finish_reason == "length" for r in results.values())
    return len(prompts) * new_tokens / elapsed


def _run_cluster(model, prompts, new_tokens, max_batch_size, workers,
                 hook=None):
    with ClusterEngine(
        model, workers=workers, max_batch_size=max_batch_size, seed=0,
        start_method="fork",
    ) as cluster:
        t0 = time.perf_counter()
        gids = [cluster.submit(p, _params(new_tokens)) for p in prompts]
        results = cluster.run(timeout_s=600.0, hook=hook)
        elapsed = time.perf_counter() - t0
        snapshot = cluster.metrics_snapshot()
    tokens = [results[g].tokens for g in gids]
    lost = sum(1 for g in gids if not results[g].finished)
    tps = len(prompts) * new_tokens / elapsed
    return tps, tokens, lost, snapshot


def run(config=TINY_CONFIG, requests=16, prompt_len=32, new_tokens=32,
        max_batch_size=4):
    model = build_butterfly_decoder(config).eval()
    prompts = _make_prompts(config, requests, prompt_len)
    total = requests * new_tokens

    single_tps = _run_single(model, prompts, new_tokens, max_batch_size)
    tps_1w, baseline_tokens, lost_1w, _ = _run_cluster(
        model, prompts, new_tokens, max_batch_size, workers=1)
    tps_2w, tokens_2w, lost_2w, _ = _run_cluster(
        model, prompts, new_tokens, max_batch_size, workers=2)

    # Recovery oracle: SIGKILL worker 0 of a fresh 2-worker cluster once
    # tokens are flowing, then time to the last session finishing.
    state = {"killed_at": None}

    def killer(cluster):
        if state["killed_at"] is None and \
                cluster.metrics.aggregate()["total_new_tokens"] >= total // 8:
            if cluster.kill_worker(0):
                state["killed_at"] = time.perf_counter()

    _, killed_tokens, lost_killed, snapshot = _run_cluster(
        model, prompts, new_tokens, max_batch_size, workers=2, hook=killer)
    recovery_s = (
        time.perf_counter() - state["killed_at"]
        if state["killed_at"] is not None else None
    )
    # run() returns the moment the last session finishes, so the elapsed
    # time since the kill (measured right after) IS the recovery window.
    parity_ok = killed_tokens == baseline_tokens == tokens_2w

    inst = snapshot["instruments"]
    requeued = int(
        inst.get("cluster_requeued_sessions_total", {}).get("value", 0))
    return {
        "requests": requests,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "max_batch_size": max_batch_size,
        "d_hidden": config.d_hidden,
        "cores": os.cpu_count() or 1,
        "single_engine_tokens_per_s": round(single_tps, 1),
        "tokens_per_s_1w": round(tps_1w, 1),
        "tokens_per_s_2w": round(tps_2w, 1),
        "scaling_2w": round(tps_2w / tps_1w, 3),
        "cluster_overhead_1w": round(tps_1w / single_tps, 3),
        "recovery_after_kill_s": (
            round(recovery_s, 3) if recovery_s is not None else None
        ),
        "sessions_requeued": requeued,
        "lost_sessions": lost_1w + lost_2w + lost_killed,
        "failover_parity_ok": 1.0 if parity_ok else 0.0,
        "kill_landed": 1.0 if state["killed_at"] is not None else 0.0,
    }


def test_cluster_scaling(quick: bool = False):
    """2-worker failover must be lossless and token-bit-identical; the
    throughput scaling is recorded, not gated."""
    if quick:
        r = run(requests=8, prompt_len=16, new_tokens=16)
    else:
        r = run()
    print_table(
        "Supervised cluster: aggregate throughput and kill recovery",
        ["metric", "value"],
        [
            ("single engine tok/s", f"{r['single_engine_tokens_per_s']:.0f}"),
            ("cluster 1w tok/s", f"{r['tokens_per_s_1w']:.0f}"),
            ("cluster 2w tok/s", f"{r['tokens_per_s_2w']:.0f}"),
            ("scaling 2w/1w", f"x{r['scaling_2w']:.2f}"),
            ("recovery after kill", f"{r['recovery_after_kill_s']}s"),
            ("sessions requeued", r["sessions_requeued"]),
            ("lost sessions", r["lost_sessions"]),
            ("failover parity", "OK" if r["failover_parity_ok"] else "FAIL"),
            ("cores", r["cores"]),
        ],
    )
    section = "cluster_smoke" if quick else "cluster"
    update_bench_json(section, r, filename="BENCH_serving.json")
    assert r["kill_landed"] == 1.0, "the SIGKILL never landed"
    assert r["lost_sessions"] == 0, "cluster lost/hung sessions"
    assert r["failover_parity_ok"] == 1.0, \
        "failover output diverged from the fault-free run"


if __name__ == "__main__":
    test_cluster_scaling(quick="--quick" in sys.argv[1:])
    print("\nwrote BENCH_serving.json")
