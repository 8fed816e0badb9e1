"""Reduced-precision datapaths: fp16 rounding and verify modes."""

import numpy as np
import pytest

from repro.butterfly import ButterflyMatrix
from repro.hardware import (
    Fp16ButterflyEngine,
    accuracy_under_fp16,
    quantization_error_report,
    quantize_fp16,
)
from repro.hardware.functional import ButterflyEngine
from repro.models import ModelConfig, build_fabnet


class TestQuantizeFp16:
    def test_representable_values_unchanged(self):
        x = np.array([0.0, 1.0, -2.5, 0.5])
        np.testing.assert_array_equal(quantize_fp16(x), x)

    def test_rounds_fine_values(self):
        x = np.array([1.0 + 1e-5])
        assert quantize_fp16(x)[0] == np.float16(1.0 + 1e-5)

    def test_complex_values(self):
        z = np.array([1.0 + 1e-5j])
        q = quantize_fp16(z)
        assert q.dtype == np.complex128
        assert q[0].real == 1.0

    def test_overflow_to_inf(self):
        assert np.isinf(quantize_fp16(np.array([1e6]))[0])

    def test_idempotent(self, rng):
        x = rng.normal(size=100)
        once = quantize_fp16(x)
        np.testing.assert_array_equal(quantize_fp16(once), once)


class TestFp16Engine:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_close_to_float64_reference(self, n, rng):
        engine = Fp16ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(n, rng)
        x = rng.normal(size=n)
        exact = matrix.apply(x)
        approx = engine.run_butterfly(x, matrix)
        scale = np.abs(exact).max()
        assert np.abs(approx - exact).max() / scale < 0.02

    def test_fft_mode_close(self, rng):
        engine = Fp16ButterflyEngine(pbu=4)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        approx = engine.run_fft(x)
        exact = np.fft.fft(x)
        assert np.abs(approx - exact).max() / np.abs(exact).max() < 0.02

    def test_outputs_are_fp16_representable(self, rng):
        engine = Fp16ButterflyEngine(pbu=2)
        matrix = ButterflyMatrix.random(16, rng)
        out = engine.run_butterfly(rng.normal(size=16), matrix)
        np.testing.assert_array_equal(out, quantize_fp16(out))

    @pytest.mark.parametrize("mode", ["butterfly", "fft"])
    def test_last_stats_cover_the_whole_vector(self, mode, rng):
        """The fp16 engine rounds inside the one stage runner;
        ``last_stats`` still means the whole invocation, as on the fp64
        engine."""
        from repro.hardware.functional import ButterflyEngine

        n = 32
        matrix = ButterflyMatrix.random(n, rng)
        x = rng.normal(size=n)
        engines = [Fp16ButterflyEngine(pbu=4), ButterflyEngine(pbu=4)]
        for engine in engines:
            if mode == "fft":
                engine.run_fft(x)
            else:
                engine.run_butterfly(x, matrix)
        fp16, fp64 = engines
        assert fp16.last_stats == fp16.cumulative_stats == fp64.last_stats
        assert fp16.last_stats.read_cycles == 20
        assert fp16.last_stats.pair_ops == 80
        assert fp16.last_stats.mult_ops == 320

    @pytest.mark.parametrize("mode", ["butterfly", "fft"])
    def test_unit_counters_cover_every_stage(self, mode, rng):
        """After an invocation the units have counted all of its stages,
        not just the last one."""
        n = 16
        engine = Fp16ButterflyEngine(pbu=4)
        if mode == "fft":
            engine.run_fft(rng.normal(size=n) + 0j)
        else:
            engine.run_butterfly(rng.normal(size=n), ButterflyMatrix.random(n, rng))
        assert engine.last_stats.mult_ops == 4 * 4 * (n // 2)
        assert sum(u.mult_ops for u in engine.units) == engine.last_stats.mult_ops


@pytest.mark.parametrize("engine_cls, mode", [
    (Fp16ButterflyEngine, "butterfly"),
    (Fp16ButterflyEngine, "fft"),
])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_a_tile_is_its_rows(engine_cls, mode, rows, rng):
    """A tile through a reduced-precision engine equals its rows run one
    call each, byte for byte; its counts are the rows' counts summed."""
    n = 32
    matrix = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=(rows, n))

    def run(engine, data):
        if mode == "fft":
            return engine.run_fft(data + 1j * data[..., ::-1])
        return engine.run_butterfly(data, matrix)

    tile_engine, row_engine = engine_cls(pbu=4, verify=True), engine_cls(pbu=4)
    tile = run(tile_engine, x)
    stacked = np.stack([run(row_engine, row) for row in x])
    assert tile.dtype == stacked.dtype
    assert tile.tobytes() == stacked.tobytes()
    assert tile_engine.last_stats == tile_engine.cumulative_stats
    assert tile_engine.cumulative_stats == row_engine.cumulative_stats
    assert tile_engine.last_stats.pair_ops == rows * 5 * (n // 2)


class TestErrorReport:
    def test_error_grows_with_depth_but_stays_small(self, rng):
        """More stages accumulate more rounding, all within a few percent
        — the paper's implicit fp16 adequacy claim."""
        errors = [quantization_error_report(n, rng).max_rel_error
                  for n in (16, 256, 1024)]
        assert all(e < 0.05 for e in errors)
        assert errors[-1] > errors[0] * 0.5  # deeper, not catastrophically

    def test_error_stays_in_the_few_percent_range(self, rng):
        assert quantization_error_report(64, rng).max_rel_error < 0.05


class TestModelAccuracyUnderFp16:
    def test_accuracy_preserved_and_weights_restored(self, rng):
        cfg = ModelConfig(vocab_size=16, n_classes=4, max_len=16,
                          d_hidden=16, n_heads=2, r_ffn=2, n_total=2, seed=0)
        model = build_fabnet(cfg).eval()
        tokens = rng.integers(0, 16, size=(16, 16))
        labels = rng.integers(0, 4, size=16)
        before = model.state_dict()
        report = accuracy_under_fp16(model, tokens, labels)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert abs(report["accuracy_delta"]) <= 0.25
        assert report["max_logit_error"] < 0.1


@pytest.mark.parametrize("training", [True, False])
def test_the_callers_training_mode_is_kept(training, rng):
    """The report evaluates in eval mode and hands the model back in the
    mode it came in."""
    cfg = ModelConfig(vocab_size=16, n_classes=4, max_len=16,
                      d_hidden=16, n_heads=2, r_ffn=2, n_total=2, seed=0)
    model = build_fabnet(cfg).train(training)
    tokens = rng.integers(0, 16, size=(4, 16))
    accuracy_under_fp16(model, tokens, rng.integers(0, 4, size=4))
    stack = [model]
    while stack:  # every submodule, not only the root
        module = stack.pop()
        assert module.training is training
        stack.extend(module._modules.values())
