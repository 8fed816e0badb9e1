"""Serving-path regression benchmark: seed generate loop vs ServingEngine.

Compares batched decoding throughput (tokens/s) in three configurations:

* **seed**: a faithful copy of the seed ``ButterflyDecoderLM.generate``
  loop — a full forward over the whole window for every token (O(T^2)
  attention recompute) and a per-row Python ``rng.choice`` sampler;
* **cached generate**: the live ``generate`` with KV-cache incremental
  decoding and vectorized Gumbel-max sampling;
* **engine**: the same batch submitted as concurrent requests through
  the continuous-batching ``ServingEngine`` (prefill interleaving, batch
  compaction, metrics), i.e. the full serving stack.

Results persist to ``BENCH_serving.json``.  The acceptance bar is a
>= 3x tokens/s speedup of the engine over the seed loop at batch >= 8 on
the tiny decoder config.

Run directly (``python benchmarks/bench_serving_throughput.py``, add
``--quick`` for the CI smoke) or via pytest.
"""

import sys
import time

import numpy as np
from conftest import print_table, update_bench_json

from repro import nn
from repro.kernels.grouped import plan_cache_stats, reset_plan_cache_stats
from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine

TINY_CONFIG = ModelConfig(
    vocab_size=28, n_classes=2, max_len=256, d_hidden=64,
    n_heads=4, r_ffn=2, n_total=2, seed=0,
)


# ----------------------------------------------------------------------
# Faithful copy of the seed generate loop (pre-serving), kept as the
# regression baseline: full-window recompute + per-row rng.choice.
# ----------------------------------------------------------------------
def seed_generate(model, prompt, max_new_tokens, temperature, rng):
    tokens = np.atleast_2d(np.asarray(prompt, dtype=np.int64)).copy()
    model.eval()
    with nn.no_grad():
        for _ in range(max_new_tokens):
            window = tokens[:, -model.config.max_len:]
            logits = model.forward(window).data[:, -1]
            if temperature <= 0.0:
                next_token = logits.argmax(axis=-1)
            else:
                scaled = logits / temperature
                scaled -= scaled.max(axis=-1, keepdims=True)
                probs = np.exp(scaled)
                probs /= probs.sum(axis=-1, keepdims=True)
                next_token = np.array([
                    rng.choice(len(p), p=p) for p in probs
                ])
            tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
    return tokens


def _make_prompts(config, batch, prompt_len, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, config.vocab_size, size=(batch, prompt_len))


def _tokens_per_s(n_tokens, seconds):
    return n_tokens / seconds if seconds > 0 else float("inf")


def run(config=TINY_CONFIG, batch=8, prompt_len=64, new_tokens=64,
        temperature=0.8):
    model = build_butterfly_decoder(config).eval()
    prompts = _make_prompts(config, batch, prompt_len)
    total = batch * new_tokens
    # Cache effectiveness over the whole run (always-on counters, no
    # telemetry opt-in needed on the timed path).  Every forward here is
    # inference, so every ladder runs frozen: one build per layer, then
    # hits — builds growing with the token count would be a rebuild
    # storm.  The plan cache is only consulted by those builds.
    reset_plan_cache_stats()

    t0 = time.perf_counter()
    seed_generate(model, prompts, new_tokens, temperature,
                  np.random.default_rng(0))
    seed_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    model.generate(prompts, new_tokens, temperature=temperature,
                   rng=np.random.default_rng(0), use_cache=True)
    cached_s = time.perf_counter() - t0

    engine = ServingEngine(model, max_batch_size=batch, seed=0)
    t0 = time.perf_counter()
    for row in range(batch):
        engine.submit(prompts[row], SamplingParams(
            max_new_tokens=new_tokens, temperature=temperature, seed=row,
        ))
    results = engine.run()
    engine_s = time.perf_counter() - t0
    assert all(r.finish_reason == "length" for r in results.values())
    aggregate = engine.metrics.aggregate()
    plan_cache = plan_cache_stats()

    seed_tps = _tokens_per_s(total, seed_s)
    cached_tps = _tokens_per_s(total, cached_s)
    engine_tps = _tokens_per_s(total, engine_s)
    return {
        "batch": batch,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "max_len": config.max_len,
        "d_hidden": config.d_hidden,
        "n_total": config.n_total,
        "seed_tokens_per_s": round(seed_tps, 1),
        "cached_generate_tokens_per_s": round(cached_tps, 1),
        "engine_tokens_per_s": round(engine_tps, 1),
        "engine_mean_ttft_ms": round(aggregate["mean_ttft_ms"], 2),
        "engine_p50_ttft_ms": round(aggregate["p50_ttft_ms"], 2),
        "engine_p99_ttft_ms": round(aggregate["p99_ttft_ms"], 2),
        "engine_p50_latency_ms": round(aggregate["p50_latency_ms"], 2),
        "engine_p99_latency_ms": round(aggregate["p99_latency_ms"], 2),
        "plan_cache_hits": plan_cache["hits"],
        "plan_cache_misses": plan_cache["misses"],
        "plan_cache_hit_rate": (
            round(plan_cache["hit_rate"], 4)
            if plan_cache["hit_rate"] is not None else None
        ),
        "frozen_ladder_builds": plan_cache["frozen_builds"],
        "frozen_ladder_hits": plan_cache["frozen_hits"],
        "speedup_cached": round(cached_tps / seed_tps, 2),
        # headline: the full serving stack vs the seed generate loop
        "speedup": round(engine_tps / seed_tps, 2),
    }


def test_serving_throughput(quick: bool = False):
    """Engine tokens/s must beat the seed generate loop >= 3x at batch 8."""
    cases = [(8, 64, 16)] if quick else [(8, 64, 64), (16, 32, 32)]
    rows = []
    results = {}
    for batch, prompt_len, new_tokens in cases:
        r = run(batch=batch, prompt_len=prompt_len, new_tokens=new_tokens)
        results[f"b{batch}_p{prompt_len}_n{new_tokens}"] = r
        rows.append((
            batch, prompt_len, new_tokens,
            f"{r['seed_tokens_per_s']:.0f}",
            f"{r['cached_generate_tokens_per_s']:.0f}",
            f"{r['engine_tokens_per_s']:.0f}",
            f"x{r['speedup_cached']:.1f}", f"x{r['speedup']:.1f}",
        ))
    print_table(
        "Batched decoding throughput: seed loop vs KV-cache serving",
        ["batch", "prompt", "new", "seed tok/s", "cached gen tok/s",
         "engine tok/s", "speedup gen", "speedup engine"],
        rows,
    )
    # Quick (CI smoke) runs keep their own section so they never clobber
    # the committed full-run trajectory that check_bench.py gates against.
    section = "serving_throughput_smoke" if quick else "serving_throughput"
    update_bench_json(section, results, filename="BENCH_serving.json")
    headline = next(iter(results.values()))
    # The 3x acceptance bar is recorded in the JSON; wall-clock ratios on
    # shared CI runners are advisory under timing noise, but a miss is loud.
    if headline["speedup"] < 3.0:
        import warnings

        warnings.warn(
            f"serving speedup x{headline['speedup']} below the 3x acceptance "
            "bar on this run (timing noise or regression — check "
            "BENCH_serving.json trajectory)",
            stacklevel=1,
        )


if __name__ == "__main__":
    test_serving_throughput(quick="--quick" in sys.argv[1:])
    print("\nwrote BENCH_serving.json")
