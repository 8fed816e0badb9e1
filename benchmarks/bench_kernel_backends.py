"""Storage-tier benchmark: int8 decode against fp32.

Measures what the int8 stored-weight replica adds over fp32 decode,
against the first committed int8 decode baseline (683 tok/s): decode
tokens/s through the serving engine for fp32 and the int8 replica of the
same GEMM-heavy decoder, plus the replica's weight-memory ratio and
logit drift (deterministic, so a break fails the gate on any machine).

Run directly (``python benchmarks/bench_kernel_backends.py``, add
``--smoke`` for the CI quick mode — same shapes, fewer decode tokens,
results under ``backends_smoke``).
"""

import sys
import time

import numpy as np
from conftest import print_table, update_bench_json

from repro import nn
from repro.models import ModelConfig, build_dense_decoder
from repro.nn import weight_memory_bytes
from repro.serving import SamplingParams, ServingEngine

#: The first committed int8 decode baseline (BENCH_quant.json) — no
#: later change may lose it.
INT8_BASELINE_TOKENS_PER_S = 683.0

#: Same GEMM-heavy decoder as bench_quantized_decode: d_hidden=512
#: streams ~25 MB of fp32 weights per decode step — the memory-bound
#: regime where narrower storage pays off.
CONFIG = ModelConfig(
    vocab_size=28, n_classes=2, max_len=96, d_hidden=512,
    n_heads=8, r_ffn=4, n_total=2, seed=0, dtype="float32",
)


# ----------------------------------------------------------------------
# Storage-tier decode throughput
# ----------------------------------------------------------------------
def _engine_tokens_per_s(model, prompts, new_tokens, quantize=None):
    engine = ServingEngine(
        model, max_batch_size=prompts.shape[0], seed=0, quantize=quantize,
    )
    t0 = time.perf_counter()
    for row in range(prompts.shape[0]):
        engine.submit(prompts[row], SamplingParams(
            max_new_tokens=new_tokens, temperature=0.8, seed=row,
        ))
    results = engine.run()
    elapsed = time.perf_counter() - t0
    assert all(r.finish_reason == "length" for r in results.values())
    return prompts.shape[0] * new_tokens / elapsed, engine


def _decode_tiers(new_tokens, batch=8, prompt_len=16):
    rng = np.random.default_rng(0)
    prompts = rng.integers(1, CONFIG.vocab_size, size=(batch, prompt_len))
    with CONFIG.dtype_context():
        model = build_dense_decoder(CONFIG).eval()
    fp_bytes = weight_memory_bytes(model)
    fp32_tps, _ = _engine_tokens_per_s(model, prompts, new_tokens)

    tiers = {"fp32_tokens_per_s": round(fp32_tps, 1)}
    probe = rng.integers(1, CONFIG.vocab_size, size=(4, prompt_len))
    with nn.no_grad():
        fp_logits = model(probe).data
    tps, engine = _engine_tokens_per_s(model, prompts, new_tokens, quantize="int8")
    replica = engine.model
    with nn.no_grad():
        q_logits = replica(probe).data
    drift = float(np.abs(q_logits - fp_logits).max() / np.abs(fp_logits).max())
    tiers["int8_tokens_per_s"] = round(tps, 1)
    tiers["int8_memory_ratio"] = round(weight_memory_bytes(replica) / fp_bytes, 4)
    tiers["int8_rel_logit_drift"] = round(drift, 5)
    tiers["int8_vs_fp32_speedup"] = round(
        tiers["int8_tokens_per_s"] / fp32_tps, 2
    )
    tiers["int8_vs_committed_baseline"] = round(
        tiers["int8_tokens_per_s"] / INT8_BASELINE_TOKENS_PER_S, 3
    )
    return tiers


def run(smoke: bool):
    result = _decode_tiers(new_tokens=12 if smoke else 48)
    print_table(
        "Decode tiers (batch 8, d_hidden=512)",
        ["tier", "tok/s", "weight mem", "drift"],
        [
            ("fp32", f"{result['fp32_tokens_per_s']:.0f}", "x1.00", "-"),
            ("int8", f"{result['int8_tokens_per_s']:.0f}",
             f"x{result['int8_memory_ratio']:.2f}",
             f"{result['int8_rel_logit_drift']:.4f}"),
        ],
    )
    return result


def test_kernel_backends(smoke: bool = False):
    """The int8 tier: exact memory and drift bars in every mode."""
    result = run(smoke)
    section = "backends_smoke" if smoke else "backends"
    update_bench_json(section, result)

    # Deterministic oracles: hard bars in every mode.
    assert result["int8_memory_ratio"] < 0.5
    assert result["int8_rel_logit_drift"] < 0.05


if __name__ == "__main__":
    test_kernel_backends(smoke="--smoke" in sys.argv[1:])
    print("\nwrote BENCH_kernels.json")
