"""End-to-end instrumentation: bit-neutrality, serving metrics, CLI."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine
from repro.serving.metrics import RequestMetrics, ServingMetrics
from repro.training.trainer import TrainResult

TINY = ModelConfig(
    vocab_size=28, n_classes=2, max_len=64, d_hidden=32,
    n_heads=2, r_ffn=2, n_total=2, seed=0,
)


def _decode_tokens(model, prompts, enabled):
    telemetry.STATE.on = enabled
    engine = ServingEngine(model, max_batch_size=4, seed=0)
    for row in range(prompts.shape[0]):
        engine.submit(prompts[row], SamplingParams(
            max_new_tokens=8, temperature=0.8, seed=row,
        ))
    results = engine.run()
    return [tuple(results[rid].tokens) for rid in sorted(results)], engine


class TestBitNeutrality:
    def test_enabled_and_disabled_generate_identical_tokens(self):
        model = build_butterfly_decoder(TINY).eval()
        prompts = np.random.default_rng(0).integers(1, 28, size=(4, 12))
        off_tokens, _ = _decode_tokens(model, prompts, enabled=False)
        on_tokens, _ = _decode_tokens(model, prompts, enabled=True)
        assert off_tokens == on_tokens
        # The enabled run actually recorded something.
        assert telemetry.span_records()
        assert telemetry.get_registry().snapshot()


class TestPrefillAmortisation:
    def test_rows_per_prefill_call_is_the_wave_width(self):
        """An 8-wide equal-length backlog is one prefill call of 8 rows, on
        the counters ``/metrics`` serves and on the ``serve.prefill`` span."""
        model = build_butterfly_decoder(TINY).eval()
        prompts = np.random.default_rng(0).integers(1, 28, size=(8, 12))
        telemetry.STATE.on = True
        engine = ServingEngine(model, max_batch_size=8, seed=0)
        for row in prompts:
            engine.submit(row, SamplingParams(max_new_tokens=4, seed=0))
        engine.run()
        counters = telemetry.get_registry().snapshot()
        calls = counters["serving_prefill_calls_total"]["value"]
        rows = counters["serving_prefill_rows_total"]["value"]
        assert (calls, rows / calls) == (1, 8)
        assert counters["serving_admission_accept_total"]["value"] == rows
        text = engine.render_prometheus()
        assert "serving_prefill_calls_total 1" in text
        assert "serving_prefill_rows_total 8" in text
        (prefill,) = [r for r in telemetry.span_records()
                      if r.name == "serve.prefill"]
        assert (prefill.attrs["calls"], prefill.attrs["rows"]) == (1, 8)


class TestEngineMetrics:
    def test_metrics_snapshot_has_percentiles(self):
        model = build_butterfly_decoder(TINY).eval()
        prompts = np.random.default_rng(0).integers(1, 28, size=(4, 12))
        telemetry.disable()
        _, engine = _decode_tokens(model, prompts, enabled=False)
        snap = engine.metrics_snapshot()
        agg = snap["aggregate"]
        assert agg["completed"] == 4
        assert agg["p50_ttft_ms"] is not None
        assert agg["p99_ttft_ms"] is not None
        assert agg["p50_latency_ms"] is not None
        # Engine-local instruments are live without the global opt-in.
        assert snap["instruments"]["serving_ttft_ms"]["count"] == 4
        assert "global_instruments" not in snap

    def test_snapshot_includes_global_registry_when_enabled(self):
        model = build_butterfly_decoder(TINY).eval()
        prompts = np.random.default_rng(0).integers(1, 28, size=(4, 12))
        _, engine = _decode_tokens(model, prompts, enabled=True)
        snap = engine.metrics_snapshot()
        assert "global_instruments" in snap

    def test_prometheus_endpoint_exposes_ttft(self):
        model = build_butterfly_decoder(TINY).eval()
        prompts = np.random.default_rng(0).integers(1, 28, size=(4, 12))
        telemetry.disable()
        _, engine = _decode_tokens(model, prompts, enabled=False)
        text = engine.render_prometheus()
        assert "serving_ttft_ms_bucket" in text
        assert "serving_ttft_ms_p50 " in text
        assert "serving_ttft_ms_p99 " in text
        assert "serving_tokens_total" in text


class TestServingMetricsUnit:
    def test_decode_rate_falls_back_for_single_token(self, fake_clock):
        metrics = ServingMetrics(clock=fake_clock)
        metrics.on_submit(0, prompt_tokens=4)
        fake_clock.advance(0.5)          # prefill
        metrics.on_token(0)              # the only token
        fake_clock.advance(0.0)
        metrics.on_finish(0, "length")
        record = metrics.requests[0]
        # No decode span exists; rate is prefill-inclusive, not None.
        assert record.decode_tokens_per_s == pytest.approx(1 / 0.5)

    def test_decode_rate_uses_decode_span_for_multi_token(self, fake_clock):
        metrics = ServingMetrics(clock=fake_clock)
        metrics.on_submit(0, prompt_tokens=4)
        fake_clock.advance(1.0)          # prefill (excluded from rate)
        metrics.on_token(0)
        for _ in range(4):
            fake_clock.advance(0.1)
            metrics.on_token(0)
        metrics.on_finish(0, "length")
        record = metrics.requests[0]
        assert record.decode_tokens_per_s == pytest.approx(4 / 0.4)

    def test_unfinished_request_has_no_rate(self, fake_clock):
        metrics = ServingMetrics(clock=fake_clock)
        metrics.on_submit(0, prompt_tokens=4)
        assert metrics.requests[0].decode_tokens_per_s is None

    def test_step_samples_are_bounded(self, fake_clock):
        metrics = ServingMetrics(clock=fake_clock)
        for i in range(5000):
            metrics.on_step(queue_depth=i % 7, batch_size=i % 4)
        assert metrics.steps == 5000
        assert metrics.queue_depth.count == 5000
        # Bounded reservoir, not an append-forever sample list.
        assert len(metrics.queue_depth._reservoir.values()) <= \
            telemetry.DEFAULT_RESERVOIR

    def test_aggregate_percentiles_from_timeline(self, fake_clock):
        metrics = ServingMetrics(clock=fake_clock)
        for rid, ttft in enumerate((0.010, 0.020, 0.030, 0.200)):
            metrics.on_submit(rid, prompt_tokens=2)
        for rid, ttft in enumerate((0.010, 0.020, 0.030, 0.200)):
            fake_clock.now = ttft
            metrics.on_token(rid)
            metrics.on_finish(rid, "length")
        agg = metrics.aggregate()
        assert agg["p99_ttft_ms"] >= agg["p50_ttft_ms"]
        assert agg["p99_ttft_ms"] == pytest.approx(200.0, rel=0.2)


class TestTrainResultThroughput:
    def test_tokens_per_s(self):
        result = TrainResult(wall_time_s=2.0, train_tokens=4000)
        assert result.tokens_per_s == pytest.approx(2000.0)

    def test_tokens_per_s_undefined_without_timing(self):
        assert TrainResult().tokens_per_s is None
        assert TrainResult(wall_time_s=1.0).tokens_per_s is None


class TestTrainingStepBuffers:
    def test_steady_steps_count_hits_only(self):
        """``Trainer.fit``'s step buffers (``kernels.pool.STEP``): the first
        step allocates them, every later step takes all of its arrays from
        them (misses stop, hits keep growing), and they are gone once fit
        returns."""
        from repro.data import load_task
        from repro.kernels.pool import STEP
        from repro.models import build_fabnet
        from repro.training import Trainer

        dataset = load_task("text", seq_len=32, n_samples=32, seed=0,
                            test_fraction=0.25)  # six full batches of 4
        model = build_fabnet(ModelConfig(
            vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
            max_len=32, d_hidden=16, n_heads=2, r_ffn=2, n_total=2, n_abfly=1,
            seed=0,
        ))
        readings = []

        class Feeder:
            def __getattr__(self, name):
                return getattr(dataset, name)

            def batches(self, batch_size, rng, split="train"):
                for batch in dataset.batches(batch_size, rng, split):
                    yield batch
                    snapshot = telemetry.get_registry().snapshot()
                    readings.append(
                        [snapshot.get(f"training_step_{name}_total", {}).get("value", 0)
                         for name in ("misses", "hits")] + [STEP._tls.bytes])

        telemetry.STATE.on = True
        Trainer(model, batch_size=4).fit(Feeder(), epochs=1)
        misses, hits, held = np.array(readings).T
        assert len(readings) >= 6
        assert misses[0] > 0 and (misses[1:] == misses[0]).all()
        assert hits[0] == 0 and (np.diff(hits) > 0).all()
        assert (held == held[0]).all() and held[0] > 0
        assert STEP._tls.pool is None


class TestProfileCLI:
    def test_profile_serve_prints_tree_and_writes_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        code = main([
            "profile", "--workload", "serve", "--requests", "2",
            "--max-new-tokens", "4", "--max-batch-size", "2",
            "--d-hidden", "32", "--seq-len", "16",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serve.step" in out
        assert "span coverage" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert "serving" in metrics.read_text() or \
            "kernels" in metrics.read_text()

    def test_profile_restores_disabled_state(self):
        from repro.cli import main

        telemetry.disable()
        assert main([
            "profile", "--workload", "serve", "--requests", "1",
            "--max-new-tokens", "2", "--max-batch-size", "1",
            "--d-hidden", "32", "--seq-len", "16",
        ]) == 0
