"""Int8 quantization kernels: round-trip, GEMM parity, butterfly parity.

What int8 owes in common with every stored format (blocked vs reference
GEMM, packed vs plain, ...) is in ``tests/test_tier_contract.py``; this
file keeps what is specific to the int8 quantizer.
"""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import quant as QK
from repro.nn import ButterflyLinear


class TestQuantizeRoundTrip:
    def test_scale_recovery_per_channel(self, rng):
        """Each channel's scale covers exactly its own absmax range."""
        magnitudes = np.array([1e-3, 1.0, 50.0, 1e3])
        w = rng.normal(size=(4, 64)) * magnitudes[:, None]
        q, scales = QK.quantize_per_channel(w)
        np.testing.assert_allclose(
            scales, np.abs(w).max(axis=1) / 127.0, rtol=1e-6
        )
        # codes use the full range: the absmax element must map to ±127
        assert all(np.abs(q[c]).max() == 127 for c in range(4))

    def test_round_trip_error_bounded_by_half_step(self, rng):
        """|w - dequant(quant(w))| <= scale/2 per element (absmax calibration)."""
        w = rng.normal(size=(8, 128))
        q, scales = QK.quantize_per_channel(w)
        w_hat = QK.dequantize(q, scales, dtype=np.float64)
        bound = scales.astype(np.float64)[:, None] / 2 + 1e-12
        assert (np.abs(w_hat - w) <= bound).all()

    def test_grid_values_round_trip_exactly(self):
        """Values already on the quantization grid survive bit-exactly."""
        scales = np.array([0.25], dtype=np.float32)
        w = (np.arange(-127, 128, dtype=np.float64) * scales[0])[None, :]
        q, s = QK.quantize_per_channel(w)
        np.testing.assert_array_equal(
            QK.dequantize(q, s, dtype=np.float64), w
        )

    def test_zero_channel_is_exact(self):
        w = np.zeros((2, 16))
        w[1] = 1.0
        q, scales = QK.quantize_per_channel(w)
        assert scales[0] == 1.0  # placeholder scale, codes all zero
        np.testing.assert_array_equal(QK.dequantize(q, scales)[0], 0.0)

    def test_per_channel_beats_per_tensor_on_mixed_magnitudes(self, rng):
        """The small channel keeps precision a per-tensor scale would lose."""
        w = rng.normal(size=(2, 256))
        w[0] *= 1e-3
        w[1] *= 1e3
        q, scales = QK.quantize_per_channel(w)
        rel = np.abs(QK.dequantize(q, scales, np.float64) - w) / np.abs(w).max(axis=1)[:, None]
        assert rel.max() < 1.0 / 127  # both channels at their own resolution

    def test_mse_calibration_never_worse(self, rng):
        """Grid-searched scales win on heavy-tailed channels, never lose.

        Clipping an outlier at shrink ``l`` costs ``((1-l) * absmax)^2``
        once but refines the grid for every other element, so it pays
        off when the channel is long enough — 8192 elements with one
        ~3x-absmax outlier is comfortably past that break-even.
        """
        w = rng.normal(size=(2, 8192))
        w[0, 0] = 12.0  # lone outlier ~3x the Gaussian bulk's absmax
        q_abs, s_abs = QK.quantize_per_channel(w, calibration="absmax")
        q_mse, s_mse = QK.quantize_per_channel(w, calibration="mse")
        # fp32 scale rounding leaves epsilon-level slack on the argmin
        assert QK.quantization_rmse(w, q_mse, s_mse) <= (
            QK.quantization_rmse(w, q_abs, s_abs) * (1 + 1e-6)
        )
        per_channel_abs = np.square(QK.dequantize(q_abs, s_abs, np.float64) - w).mean(axis=1)
        per_channel_mse = np.square(QK.dequantize(q_mse, s_mse, np.float64) - w).mean(axis=1)
        assert per_channel_mse[0] < per_channel_abs[0]  # the outlier channel improved

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            QK.quantize_per_channel(rng.normal(size=8))
        with pytest.raises(ValueError, match="calibration"):
            QK.quantize_per_channel(rng.normal(size=(2, 8)), calibration="entropy")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestQuantizedLinear:
    def test_parity_vs_fp_linear_within_quant_error(self, rng, dtype):
        """|y_int8 - y_fp| obeys the analytic bound 0.5 * s_o * sum|x|."""
        w = rng.normal(size=(96, 64))
        x = rng.normal(size=(7, 64)).astype(dtype)
        q, scales = QK.quantize_per_channel(w)
        y_fp = x.astype(np.float64) @ w.T
        y_q = QK.quantized_linear(x, q, scales).astype(np.float64)
        bound = 0.5 * scales.astype(np.float64) * np.abs(x.astype(np.float64)).sum(axis=1, keepdims=True)
        assert (np.abs(y_q - y_fp) <= bound + 1e-5).all()
        # and the relative error is small in aggregate
        rel = np.abs(y_q - y_fp).max() / np.abs(y_fp).max()
        assert rel < 0.02

    def test_leading_batch_dims(self, rng, dtype):
        w = rng.normal(size=(24, 16))
        q, scales = QK.quantize_per_channel(w)
        x = rng.normal(size=(2, 3, 16)).astype(dtype)
        got = QK.quantized_linear(x, q, scales)
        assert got.shape == (2, 3, 24)
        np.testing.assert_allclose(
            got, QK.quantized_linear_reference(x, q, scales), rtol=2e-5, atol=2e-5
        )

    def test_scratch_cache_reuse_is_consistent(self, rng, dtype):
        """Repeated calls through the cached scratch stay deterministic."""
        w = rng.normal(size=(40, 32))
        q, scales = QK.quantize_per_channel(w)
        x = rng.normal(size=(4, 32)).astype(dtype)
        first = QK.quantized_linear(x, q, scales)
        for _ in range(3):
            np.testing.assert_array_equal(QK.quantized_linear(x, q, scales), first)
        # the pool is per-thread; this thread's share respects the byte
        # budget
        assert QK._SCRATCH._tls.bytes <= QK._SCRATCH.MAX_BYTES

    def test_rejects_non_int8_weight(self, rng, dtype):
        x = rng.normal(size=(2, 8)).astype(dtype)
        with pytest.raises(TypeError, match="int8"):
            QK.quantized_linear(x, rng.normal(size=(4, 8)), np.ones(4, np.float32))


class TestQuantizedButterfly:
    def test_stage_quantization_shapes_and_channels(self, rng):
        layer = ButterflyLinear(16, 16, rng=rng)
        coeffs = [p.data for p in layer.stage_parameters()]
        qs, scales = QK.quantize_butterfly_stages(coeffs)
        assert len(qs) == len(coeffs)
        for q, s, c in zip(qs, scales, coeffs):
            assert q.shape == c.shape and q.dtype == np.int8
            assert s.shape == (4,) and s.dtype == np.float32  # one per a/b/c/d role

    @pytest.mark.parametrize("n", [16, 256])
    def test_apply_matches_dequantized_reference(self, rng, n):
        """Quantized ladder == reference apply on the dequantized coeffs.

        ``n=256`` with enough rows exercises the fused grouped kernel;
        ``n=16`` the per-stage path (both must agree with the per-stage
        reference to grouped-kernel reassociation tolerance).
        """
        layer = ButterflyLinear(n, n, rng=rng)
        coeffs = [p.data for p in layer.stage_parameters()]
        qs, scales = QK.quantize_butterfly_stages(coeffs)
        x = rng.normal(size=(64, n))
        got = QK.quantized_butterfly_apply(x, qs, scales, layer.halves)
        deq = QK.dequantize_butterfly_stages(qs, scales, dtype=np.float64)
        want = kernels.butterfly_apply_reference(x, deq, layer.halves)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_apply_close_to_fp_ladder(self, rng):
        """End-to-end ladder error stays in the int8 few-percent range."""
        n = 64
        layer = ButterflyLinear(n, n, rng=rng)
        coeffs = [p.data for p in layer.stage_parameters()]
        qs, scales = QK.quantize_butterfly_stages(coeffs)
        x = rng.normal(size=(8, n))
        exact = kernels.butterfly_apply_reference(x, coeffs, layer.halves)
        got = QK.quantized_butterfly_apply(x, qs, scales, layer.halves)
        assert np.abs(got - exact).max() / np.abs(exact).max() < 0.05

    def test_rejects_bad_stage_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(4, n/2\)"):
            QK.quantize_butterfly_stages([rng.normal(size=(2, 8))])
