"""The per-layer metrics: what each one measures and what it should move.

``BENCHMARK.json`` fixes the names, units and directions the acceptance
driver checks; this table adds what that file has no key for — which
end-to-end metric, on which workload, a change to the layer metric is
expected to move (written down before measuring, choosing-metrics §3),
and which metrics are exact counts that must repeat bit for bit.  A
layer is a module under ``src/repro/``; ``trace`` is the benchmark's
own recorder.  ``test_harness.py`` keeps the two files in step.

Every metric is printed by every workload in the ``--trace 1`` pass;
where a workload does not run the layer the value is 0.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

ENCODE, TRAIN, OPEN, HTTP, INT8, HWSIM = (
    "encode_long", "train_fit", "serve_open", "http_stream", "decode_int8",
    "hw_sim",
)
WORKLOADS = (ENCODE, TRAIN, OPEN, HTTP, INT8, HWSIM)


class LayerMetric(NamedTuple):
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]
    #: workloads that measure it (the rest print 0).
    measured_on: Tuple[str, ...]
    #: an exact count: identical on every run of one commit and seed.
    exact: bool = False


def _on(metrics: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((m, w) for m in metrics.split() for w in workloads)


_FWD = _on("op_p50_ms tokens_per_s", ENCODE)
_BWD = _on("op_p50_ms", TRAIN)
_BOTH = _on("op_p50_ms", ENCODE, TRAIN)
_ITL = _on("itl_p50_ms", OPEN, HTTP) + _on("tokens_per_s", INT8)
_TTFT = _on("ttft_p50_ms", OPEN, INT8)
_INT8 = _on("tokens_per_s", INT8)
_STEP = _on("itl_p50_ms tokens_per_s", OPEN)
_QUEUE = _on("ttft_p50_ms slo_ok_share", OPEN)
_PLANE = _on("ttft_p50_ms itl_p50_ms tokens_per_s", HTTP)
_FIT = _on("op_p50_ms tokens_per_s", TRAIN)
_SIM = _on("tokens_per_s", HWSIM)
_SETUP = "setup_s"

LAYER_METRICS: Dict[str, LayerMetric] = {
    # -- kernels: standalone probes at the workload's shapes ------------
    "kernels.butterfly_apply_ms": LayerMetric("ms", "lower", _FWD, (ENCODE, TRAIN)),
    "kernels.butterfly_apply_flops": LayerMetric(
        "flop", "lower", _FWD, (ENCODE, TRAIN), exact=True),
    "kernels.attention_forward_ms": LayerMetric("ms", "lower", _FWD, (ENCODE, TRAIN)),
    "kernels.attention_forward_flops": LayerMetric(
        "flop", "lower", _FWD, (ENCODE, TRAIN), exact=True),
    "kernels.linear_act_forward_ms": LayerMetric("ms", "lower", _FWD, (ENCODE, TRAIN)),
    "kernels.plan_cache_hit_rate": LayerMetric(
        "share", "higher", _FWD, (ENCODE, TRAIN, OPEN, INT8)),
    "kernels.butterfly_apply_vjp_ms": LayerMetric("ms", "lower", _BWD, (TRAIN,)),
    "kernels.attention_vjp_ms": LayerMetric("ms", "lower", _BWD, (TRAIN,)),
    "kernels.linear_act_vjp_ms": LayerMetric("ms", "lower", _BWD, (TRAIN,)),
    "kernels.cross_entropy_ms": LayerMetric("ms", "lower", _BWD, (TRAIN,)),
    "kernels.embedding_grad_ms": LayerMetric("ms", "lower", _BWD, (TRAIN,)),
    "kernels.attention_decode_ms": LayerMetric("ms", "lower", _ITL, (OPEN, HTTP, INT8)),
    "kernels.quantized_linear_ms": LayerMetric("ms", "lower", _INT8, (INT8,)),
    "kernels.quantized_linear_bytes": LayerMetric(
        "B", "lower", _INT8, (INT8,), exact=True),
    "kernels.quantized_linear_gbps": LayerMetric("GB/s", "higher", _INT8, (INT8,)),
    "kernels.residual_layer_norm_ms": LayerMetric("ms", "lower", _BOTH, (ENCODE, TRAIN)),
    # -- nn --------------------------------------------------------------
    "nn.gelu_ms": LayerMetric("ms", "lower", _BOTH, (ENCODE, TRAIN)),
    "nn.fourier_mix_2d_ms": LayerMetric("ms", "lower", _BOTH, (ENCODE, TRAIN)),
    "nn.quantize_for_inference_s": LayerMetric(
        "s", "lower", _on(_SETUP, INT8), (INT8,)),
    "nn.weight_bytes": LayerMetric(
        "B", "lower", _on("peak_rss_mb", INT8), (INT8,), exact=True),
    # -- models: timing proxy around the model handed to the caller ------
    "models.encoder_forward_s": LayerMetric("s", "lower", _BOTH, (ENCODE, TRAIN)),
    "models.prefill_s": LayerMetric("s", "lower", _TTFT, (OPEN, INT8)),
    "models.prefill_calls": LayerMetric("count", "lower", _TTFT, (OPEN, INT8), exact=True),
    "models.prefill_tokens": LayerMetric("count", "lower", _TTFT, (OPEN, INT8), exact=True),
    "models.decode_step_s": LayerMetric("s", "lower", _ITL, (OPEN, INT8)),
    "models.decode_step_calls": LayerMetric("count", "lower", _ITL, (OPEN, INT8)),
    "models.decode_rows": LayerMetric("count", "lower", _ITL, (OPEN, INT8)),
    "models.make_cache_s": LayerMetric("s", "lower", _TTFT, (OPEN, INT8)),
    # -- serving: spans around the benchmark's Engine-protocol calls -----
    "serving.submit_s": LayerMetric("s", "lower", _on("ttft_p50_ms", OPEN), (OPEN, INT8)),
    "serving.step_s": LayerMetric("s", "lower", _STEP, (OPEN, INT8)),
    "serving.steps": LayerMetric("count", "lower", _STEP, (OPEN, INT8)),
    "serving.step_self_s": LayerMetric("s", "lower", _STEP, (OPEN, INT8)),
    "serving.batch_mean": LayerMetric("count", "higher", _STEP, (OPEN, INT8)),
    "serving.queue_wait_p50_ms": LayerMetric("ms", "lower", _QUEUE, (OPEN,)),
    "serving.generator_late_p95_ms": LayerMetric("ms", "lower", _QUEUE, (OPEN,)),
    "serving.lowrate_ttft_p50_ms": LayerMetric(
        "ms", "lower", _on("ttft_p50_ms", OPEN), (OPEN,)),
    "serving.lowrate_itl_p50_ms": LayerMetric(
        "ms", "lower", _on("itl_p50_ms", OPEN), (OPEN,)),
    "serving.kv_merge_ms": LayerMetric("ms", "lower", _STEP, (OPEN, INT8)),
    "serving.kv_select_rows_ms": LayerMetric("ms", "lower", _STEP, (OPEN, INT8)),
    "serving.sample_logits_ms": LayerMetric("ms", "lower", _STEP, (OPEN, INT8)),
    # -- server: client-side spans, /metrics and the child's rusage ------
    "server.start_s": LayerMetric("s", "lower", _on(_SETUP, HTTP), (HTTP,)),
    "server.connect_ms": LayerMetric("ms", "lower", _PLANE, (HTTP,)),
    "server.head_to_start_ms": LayerMetric("ms", "lower", _PLANE, (HTTP,)),
    "server.ttft_overhead_p50_ms": LayerMetric("ms", "lower", _PLANE, (HTTP,)),
    "server.cpu_s": LayerMetric("s", "lower", _PLANE, (HTTP,)),
    "server.cpu_ms_per_token": LayerMetric("ms", "lower", _PLANE, (HTTP,)),
    "server.engine_batch_mean": LayerMetric("count", "higher", _PLANE, (HTTP,)),
    "server.status_2xx": LayerMetric("count", "higher", _PLANE, (HTTP,), exact=True),
    "server.status_other": LayerMetric("count", "lower", _PLANE, (HTTP,), exact=True),
    "server.metrics_scrape_ms": LayerMetric("ms", "lower", _PLANE, (HTTP,)),
    # -- training / data: TrainResult.phase_seconds and the batch feeder --
    "training.forward_s": LayerMetric("s", "lower", _FIT, (TRAIN,)),
    "training.backward_s": LayerMetric("s", "lower", _FIT, (TRAIN,)),
    "training.optimizer_s": LayerMetric("s", "lower", _FIT, (TRAIN,)),
    "training.eval_s": LayerMetric("s", "lower", _on("tokens_per_s", TRAIN), (TRAIN,)),
    "training.steps": LayerMetric("count", "lower", _FIT, (TRAIN,), exact=True),
    "training.final_loss": LayerMetric("nat", "lower", _FIT, (TRAIN,), exact=True),
    "data.load_task_s": LayerMetric("s", "lower", _on(_SETUP, TRAIN), (TRAIN,)),
    # -- hardware: host time per engine, and exact simulated statistics --
    "hardware.butterfly_engine_s": LayerMetric("s", "lower", _SIM, (HWSIM,)),
    "hardware.fft_engine_s": LayerMetric("s", "lower", _SIM, (HWSIM,)),
    "hardware.attention_s": LayerMetric("s", "lower", _SIM, (HWSIM,)),
    "hardware.postproc_s": LayerMetric("s", "lower", _SIM, (HWSIM,)),
    "hardware.host_us_per_pair_op": LayerMetric("us", "lower", _SIM, (HWSIM,)),
    "hardware.pair_ops": LayerMetric("count", "lower", (), (HWSIM,), exact=True),
    "hardware.mult_ops": LayerMetric("count", "lower", (), (HWSIM,), exact=True),
    "hardware.bank_conflicts": LayerMetric("count", "lower", (), (HWSIM,), exact=True),
    "hardware.qk_macs": LayerMetric("count", "lower", (), (HWSIM,), exact=True),
    "hardware.sv_macs": LayerMetric("count", "lower", (), (HWSIM,), exact=True),
    "hardware.model_cycles": LayerMetric("cycles", "lower", (), (HWSIM,), exact=True),
    "hardware.model_latency_ms": LayerMetric("ms", "lower", (), (HWSIM,), exact=True),
    # -- tails of the user-visible timings, from the untraced pass.  They
    # do not repeat within any allowed bound on the reference box (one
    # slow spell of the machine sets them), so they are printed but not
    # gated: the percentile used and the sample count are in the notes.
    "op_tail_ms": LayerMetric("ms", "lower", (), WORKLOADS),
    "ttft_tail_ms": LayerMetric("ms", "lower", (), WORKLOADS),
    "itl_tail_ms": LayerMetric("ms", "lower", (), WORKLOADS),
    # -- the recorder itself ---------------------------------------------
    "trace.coverage_share": LayerMetric("share", "higher", (), WORKLOADS),
    "trace.overhead_share": LayerMetric("share", "lower", (), WORKLOADS),
}
