"""Kernel-backend benchmark: serial vs threaded, int8/fp16 decode tiers.

Measures the three levers the pluggable backend layer adds on top of
the PR-5 int8 decode path (683 tok/s committed baseline):

* **threaded backend** — serial vs threaded wall time on the butterfly
  ladder (fwd+bwd) and the blocked dequant GEMM at n=1024.  The
  acceptance bar (>= 2x) applies on a >= 4-core runner; the measured
  ``cores`` count is recorded so ``check_bench.py`` can gate
  conditionally — on a 1-core container the threaded backend degrades
  to inline execution and the speedup is ~1x by construction.
* **storage tiers** — decode tokens/s through the serving engine for
  fp32 and every ``nn.QUANT_MODES`` replica of the same GEMM-heavy decoder,
  plus their weight-memory ratios and logit drift.
* **oracles** — the hardware bit-parity check (serial vs threaded must
  agree byte-for-byte) and the fp16 bounded-drift report, recorded
  alongside the timings so a parity break fails the gate even when the
  machine is too small to measure a threading win.

Run directly (``python benchmarks/bench_kernel_backends.py``, add
``--smoke`` for the CI quick mode — same shapes, fewer decode tokens,
results under ``backends_smoke``).
"""

import os
import sys
import time

import numpy as np
from conftest import print_table, time_ms, update_bench_json

from repro import kernels, nn
from repro.hardware import storage_tier_drift_report, verify_backend_parity
from repro.kernels import quant as QK
from repro.models import ModelConfig, build_dense_decoder
from repro.nn import weight_memory_bytes
from repro.serving import SamplingParams, ServingEngine

#: Committed int8 decode baseline from PR 5 (BENCH_quant.json) — the
#: backend refactor must not lose it.
INT8_BASELINE_TOKENS_PER_S = 683.0

#: Same GEMM-heavy decoder as bench_quantized_decode: d_hidden=512
#: streams ~25 MB of fp32 weights per decode step — the memory-bound
#: regime where both narrower storage and more cores pay off.
CONFIG = ModelConfig(
    vocab_size=28, n_classes=2, max_len=96, d_hidden=512,
    n_heads=8, r_ffn=4, n_total=2, seed=0, dtype="float32",
)


# ----------------------------------------------------------------------
# Serial vs threaded kernel timings
# ----------------------------------------------------------------------
def _butterfly_workload(n=1024, rows=64, dtype=np.float32):
    rng = np.random.default_rng(0)
    halves = kernels.stage_halves(n)
    coeffs = [rng.standard_normal((4, n // 2)).astype(dtype) for _ in halves]
    x = rng.standard_normal((rows, n)).astype(dtype)
    grad = rng.standard_normal((rows, n)).astype(dtype)

    def fwd_bwd(backend):
        y, ctx = kernels.butterfly_apply(x, coeffs, halves, backend=backend)
        kernels.butterfly_apply_vjp(grad, ctx, backend=backend)
        return y

    return fwd_bwd


def _gemm_workload(n=1024, rows=64, dtype=np.float32):
    rng = np.random.default_rng(0)
    scales = np.full(n, 0.01, dtype=np.float32)
    # packed once, as a layer holds it: the layout the kernel serves
    q = QK.pack_weight(
        rng.integers(-127, 128, size=(n, n)).astype(np.int8), scales,
        itemsize=np.dtype(dtype).itemsize)
    x = rng.standard_normal((rows, n)).astype(dtype)

    def gemm(backend):
        return QK.quantized_linear(x, q, scales, backend=backend)

    return gemm


def _backend_speedups(n=1024):
    serial = kernels.resolve_backend("serial")
    threaded = kernels.resolve_backend("threaded")
    results = {}
    for name, make in (("butterfly_fwd_bwd", _butterfly_workload),
                       ("quantized_gemm", _gemm_workload)):
        work = make(n=n)
        # bit parity of the exact benchmark workload, before timing it
        got_s = np.asarray(work(serial))
        got_t = np.asarray(work(threaded))
        np.testing.assert_array_equal(got_s, got_t)
        t_serial = time_ms(lambda: work(serial))
        t_threaded = time_ms(lambda: work(threaded))
        results[name] = {
            "serial_ms": round(t_serial, 3),
            "threaded_ms": round(t_threaded, 3),
            "speedup": round(t_serial / t_threaded, 2),
        }
    return results


# ----------------------------------------------------------------------
# Storage-tier decode throughput
# ----------------------------------------------------------------------
def _engine_tokens_per_s(model, prompts, new_tokens, quantize=None,
                         backend="serial"):
    engine = ServingEngine(
        model, max_batch_size=prompts.shape[0], seed=0, quantize=quantize,
        backend=backend,
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
    for mode in nn.QUANT_MODES:
        tps, engine = _engine_tokens_per_s(
            model, prompts, new_tokens, quantize=mode
        )
        replica = engine.model
        with nn.no_grad():
            q_logits = replica(probe).data
        drift = float(
            np.abs(q_logits - fp_logits).max() / np.abs(fp_logits).max()
        )
        tiers[f"{mode}_tokens_per_s"] = round(tps, 1)
        tiers[f"{mode}_memory_ratio"] = round(
            weight_memory_bytes(replica) / fp_bytes, 4
        )
        tiers[f"{mode}_rel_logit_drift"] = round(drift, 5)
    # threaded int8 decode: identical tokens, recorded for the trajectory
    tps_threaded, _ = _engine_tokens_per_s(
        model, prompts, new_tokens, quantize="int8", backend="threaded"
    )
    tiers["int8_threaded_tokens_per_s"] = round(tps_threaded, 1)
    tiers["int8_vs_fp32_speedup"] = round(
        tiers["int8_tokens_per_s"] / fp32_tps, 2
    )
    tiers["int8_vs_committed_baseline"] = round(
        tiers["int8_tokens_per_s"] / INT8_BASELINE_TOKENS_PER_S, 3
    )
    return tiers


def run(smoke: bool):
    cores = os.cpu_count() or 1
    parity = verify_backend_parity()
    drift = storage_tier_drift_report()
    speedups = _backend_speedups(n=1024)
    tiers = _decode_tiers(new_tokens=12 if smoke else 48)

    result = {
        "cores": cores,
        "workers": kernels.resolve_backend("threaded").workers,
        "n": 1024,
        "bit_parity_ok": 1.0 if parity["mismatches"] == 0.0 else 0.0,
        "parity_ops_checked": parity["ops_checked"],
        "fp16_max_rel_drift": round(drift["fp16_max_rel_drift"], 6),
        "threaded_butterfly_speedup": speedups["butterfly_fwd_bwd"]["speedup"],
        "threaded_gemm_speedup": speedups["quantized_gemm"]["speedup"],
        "butterfly_serial_ms": speedups["butterfly_fwd_bwd"]["serial_ms"],
        "butterfly_threaded_ms": speedups["butterfly_fwd_bwd"]["threaded_ms"],
        "gemm_serial_ms": speedups["quantized_gemm"]["serial_ms"],
        "gemm_threaded_ms": speedups["quantized_gemm"]["threaded_ms"],
        **tiers,
    }

    print_table(
        "Serial vs threaded (n=1024, %d core%s)" % (cores, "s"[:cores > 1]),
        ["kernel", "serial ms", "threaded ms", "speedup"],
        [(k, f"{v['serial_ms']:.2f}", f"{v['threaded_ms']:.2f}",
          f"x{v['speedup']:.2f}") for k, v in speedups.items()],
    )
    print_table(
        "Decode tiers (batch 8, d_hidden=512)",
        ["tier", "tok/s", "weight mem", "drift"],
        [("fp32", f"{result['fp32_tokens_per_s']:.0f}", "x1.00", "-")] + [
            (mode,
             f"{result[f'{mode}_tokens_per_s']:.0f}",
             f"x{result[f'{mode}_memory_ratio']:.2f}",
             f"{result[f'{mode}_rel_logit_drift']:.4f}")
            for mode in nn.QUANT_MODES
        ] + [("int8+threaded",
              f"{result['int8_threaded_tokens_per_s']:.0f}",
              f"x{result['int8_memory_ratio']:.2f}", "-")],
    )
    return result


def test_kernel_backends(smoke: bool = False):
    """Backends: bit parity always; >= 2x threaded only on >= 4 cores."""
    result = run(smoke)
    section = "backends_smoke" if smoke else "backends"
    update_bench_json(section, result)

    # Deterministic oracles: hard bars in every mode.
    assert result["bit_parity_ok"] == 1.0
    assert result["fp16_max_rel_drift"] < 0.01
    assert result["int8_memory_ratio"] < result["fp16_memory_ratio"] < 1.0
    assert result["int8_rel_logit_drift"] < 0.05
    assert result["fp16_rel_logit_drift"] < 0.005

    # Threading bar only where there are cores to win with; below four
    # cores the backend degrades to (near-)inline execution and the
    # conditional check_bench gate skips, so just require no pathology.
    if result["cores"] >= 4:
        assert result["threaded_butterfly_speedup"] >= 2.0
        assert result["threaded_gemm_speedup"] >= 2.0
    else:
        assert result["threaded_butterfly_speedup"] >= 0.5
        assert result["threaded_gemm_speedup"] >= 0.5


if __name__ == "__main__":
    test_kernel_backends(smoke="--smoke" in sys.argv[1:])
    print("\nwrote BENCH_kernels.json")
