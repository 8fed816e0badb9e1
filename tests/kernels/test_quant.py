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


def _outlier_channels(rng, dtype=np.float64):
    """Four Gaussian channels, each with one lone outlier and long enough
    (8192 elements) that clipping it pays off: the MSE search shrinks
    every channel, so its codes differ from absmax's."""
    w = rng.normal(size=(4, 8192))
    w[:, 0] = [12.0, -12.0, 9.0, -15.0]
    return w.astype(dtype)


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

    def test_a_zero_channel_keeps_scale_one_under_mse(self, rng):
        """Every shrink of the placeholder scale is error-free on an
        all-zero channel; the search keeps the first, 1.0."""
        w = _outlier_channels(rng)
        w[1] = 0.0
        q, scales = QK.quantize_per_channel(w, calibration="mse")
        assert scales[1] == 1.0 and not q[1].any()
        assert (scales[[0, 2, 3]] < QK.absmax_scales(w)[[0, 2, 3]]).all()

    @pytest.mark.parametrize("calibration", ["absmax", "mse"])
    def test_a_strided_view_quantizes_like_its_copy(self, rng, calibration):
        """A transposed or sliced weight (how a ``(in, out)`` parameter
        reaches the quantizer) gives its contiguous copy's codes."""
        view = _outlier_channels(rng).T[::2].T  # (4, 4096), no unit stride
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        q, scales = QK.quantize_per_channel(view, calibration=calibration)
        want_q, want_s = QK.quantize_per_channel(
            np.ascontiguousarray(view), calibration=calibration)
        np.testing.assert_array_equal(q, want_q)
        np.testing.assert_array_equal(scales, want_s)

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_half_step_ties_round_half_to_even(self, dtype):
        """A channel whose scale is exactly 0.25 (absmax 31.75) and whose
        other elements sit exactly half a step between two codes: every
        tie goes to the even code, on both sides of zero."""
        halves = np.arange(-127, 127) + 0.5
        w = (np.append(halves, 127.0) * 0.25).astype(dtype)[None, :]
        q, scales = QK.quantize_per_channel(w)
        assert scales.tolist() == [0.25]
        want = np.clip(np.rint(w / scales[:, None]), -127, 127)
        np.testing.assert_array_equal(q, want)
        evens = [round(h) for h in halves]  # Python rounds half to even
        np.testing.assert_array_equal(q[0, :-1], evens)
        assert q[0, :6].tolist() == [-126, -126, -124, -124, -122, -122]
        assert q[0, 125:129].tolist() == [-2, 0, 0, 2]

    def test_mse_clipped_outlier_channel_saturates_at_127(self, rng):
        """MSE calibration shrinks an outlier channel's scale below
        absmax / 127, so its outlier lands past the code range and
        saturates at +127 (or -127) instead of wrapping."""
        w = rng.normal(size=(2, 8192))
        w[0, 0], w[1, 0] = 12.0, -12.0  # one lone outlier per channel
        _, absmax = QK.quantize_per_channel(w, calibration="absmax")
        q, scales = QK.quantize_per_channel(w, calibration="mse")
        assert (scales < absmax).all()  # both channels were clipped
        assert (np.abs(w[:, 0] / scales) > 127.5).all()
        assert q.dtype == np.int8
        assert q[:, 0].tolist() == [127, -127]
        np.testing.assert_array_equal(
            q, np.clip(np.rint(w / scales[:, None]), -127, 127))

    @pytest.mark.parametrize("calibration", ["absmax", "mse"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scales_are_float32_for_every_input_dtype(self, rng, dtype, calibration):
        w = rng.normal(size=(6, 40)).astype(dtype)
        q, scales = QK.quantize_per_channel(w, calibration=calibration)
        assert q.dtype == np.int8 and scales.dtype == np.float32
        assert scales.shape == (6,)

    @pytest.mark.parametrize("calibration", ["absmax", "mse"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_negation_negates_the_codes(self, rng, dtype, calibration):
        """Symmetric codes without -128: ``-w`` stores as ``-q`` under the
        same scales, saturated outliers included."""
        w = _outlier_channels(rng, dtype)
        q, scales = QK.quantize_per_channel(w, calibration=calibration)
        q_neg, scales_neg = QK.quantize_per_channel(-w, calibration=calibration)
        np.testing.assert_array_equal(scales_neg, scales)
        np.testing.assert_array_equal(q_neg, -q)
        assert q.min() == -127 and q.max() == 127

    @pytest.mark.parametrize("exponent", [-3, 5])
    @pytest.mark.parametrize("calibration", ["absmax", "mse"])
    def test_a_power_of_two_rescale_moves_only_the_scales(
        self, rng, calibration, exponent
    ):
        """Scaling a weight by ``2**k`` is exact in floating point, so the
        codes are unchanged and every scale is scaled by ``2**k``."""
        w = _outlier_channels(rng)
        q, scales = QK.quantize_per_channel(w, calibration=calibration)
        q2, scales2 = QK.quantize_per_channel(
            w * 2.0**exponent, calibration=calibration)
        np.testing.assert_array_equal(q2, q)
        np.testing.assert_array_equal(scales2, scales * np.float32(2.0**exponent))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mse_scales_are_a_grid_shrink_of_absmax(self, rng, dtype):
        w = _outlier_channels(rng, dtype)
        _, mse = QK.quantize_per_channel(w, calibration="mse")
        absmax = QK.absmax_scales(np.asarray(w, dtype=np.float64)).astype(np.float64)
        candidates = np.stack([
            (absmax * shrink).astype(np.float32) for shrink in QK.CALIBRATION_GRID])
        assert (candidates == mse).any(axis=0).all()
        assert (mse < absmax.astype(np.float32)).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_clipped_element_errs_by_its_excess(self, rng, dtype):
        """Under MSE scales an element inside the code range is off by at
        most half a step; one past it is stored as +-127 steps, so it is
        off by exactly its excess over ``127 * s``."""
        w = _outlier_channels(rng, dtype)
        q, scales = QK.quantize_per_channel(w, calibration="mse")
        w = w.astype(np.float64)
        s = scales.astype(np.float64)[:, None]
        err = np.abs(QK.dequantize(q, scales, dtype=np.float64) - w)
        clipped = np.abs(w) / s > 127.5
        assert clipped[:, 0].all() and clipped.sum() >= 4
        half_step = np.broadcast_to(s / 2, w.shape)
        assert (err[~clipped] <= half_step[~clipped] * (1 + 2e-6)).all()
        np.testing.assert_allclose(
            err[clipped], (np.abs(w) - 127 * s)[clipped], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    def test_dequantize_is_the_exact_product_rounded_once(self, rng, dtype):
        """An int8 code times an fp32 scale is exact in float64, so the
        stored weight is that product rounded once to ``dtype`` (float32
        when none is given)."""
        q, scales = QK.quantize_per_channel(rng.normal(size=(5, 40)) * 3.0)
        got = QK.dequantize(q, scales, dtype=dtype)
        want = q.astype(np.float64) * scales.astype(np.float64)[:, None]
        assert got.dtype == (dtype or np.float32)
        np.testing.assert_array_equal(got, want.astype(got.dtype))

    def test_quantization_rmse_is_the_round_trip_rms(self, rng):
        w = _outlier_channels(rng)
        q, scales = QK.quantize_per_channel(w, calibration="mse")
        w_hat = q.astype(np.float64) * scales.astype(np.float64)[:, None]
        want = np.sqrt(np.mean((w_hat - w) ** 2))
        assert QK.quantization_rmse(w, q, scales) == pytest.approx(want, rel=1e-12)

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


def test_fp16_activations_compute_one_tier_wider(rng):
    """A half-precision stream runs the float32 GEMM and is cast back
    once: the bytes of the float32 call, rounded to float16."""
    q, scales = QK.quantize_per_channel(rng.normal(size=(40, 32)))
    bias = rng.normal(size=40).astype(np.float32)
    x = rng.normal(size=(4, 32)).astype(np.float16)
    got = QK.quantized_linear(x, q, scales, bias)
    want = QK.quantized_linear(x.astype(np.float32), q, scales, bias)
    assert got.dtype == np.float16
    assert got.tobytes() == want.astype(np.float16).tobytes()


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

    @pytest.mark.parametrize("calibration", ["absmax", "mse"])
    def test_each_stage_goes_through_the_one_quantizer(self, rng, calibration):
        """A stage's four roles are four channels of
        ``quantize_per_channel``: the simulator's stored stages and the
        ``nn`` replica's are one quantizer's output."""
        coeffs = [_outlier_channels(rng), rng.normal(size=(4, 8))]
        qs, scales = QK.quantize_butterfly_stages(coeffs, calibration=calibration)
        shrunk = scales[0] < QK.absmax_scales(coeffs[0])
        assert shrunk.all() if calibration == "mse" else not shrunk.any()
        for c, q, s in zip(coeffs, qs, scales):
            want_q, want_s = QK.quantize_per_channel(c, calibration=calibration)
            np.testing.assert_array_equal(q, want_q)
            np.testing.assert_array_equal(s, want_s)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_apply_runs_in_the_compute_dtype_and_casts_back(self, rng, dtype):
        layer = ButterflyLinear(32, 32, rng=rng)
        qs, scales = QK.quantize_butterfly_stages(
            [p.data for p in layer.stage_parameters()])
        x = rng.normal(size=(5, 32)).astype(dtype)
        got = QK.quantized_butterfly_apply(x, qs, scales, layer.halves)
        cdt = kernels.compute_dtype(x.dtype)
        want, _ = kernels.butterfly_apply(
            x.astype(cdt), QK.dequantize_butterfly_stages(qs, scales, dtype=cdt),
            layer.halves, need_ctx=False)
        assert got.dtype == dtype
        assert got.tobytes() == want.astype(dtype).tobytes()

    def test_rejects_bad_stage_shape(self, rng):
        with pytest.raises(ValueError, match=r"\(4, n/2\)"):
            QK.quantize_butterfly_stages([rng.normal(size=(2, 8))])
