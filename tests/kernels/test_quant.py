"""Int8 quantization kernels: round-trip and GEMM parity.

What int8 owes as the stored format (blocked vs reference GEMM, packed
layout, ...) is in ``tests/test_tier_contract.py``; this file keeps what
is specific to the int8 quantizer.
"""

import numpy as np
import pytest

from repro.kernels import quant as QK


def _outlier_channels(rng, dtype=np.float64):
    """Four Gaussian channels, each with one lone outlier."""
    w = rng.normal(size=(4, 8192))
    w[:, 0] = [12.0, -12.0, 9.0, -15.0]
    return w.astype(dtype)


def _dequantized(q, scales):
    """The stored weight, exactly: an int8 code times an fp32 scale is
    exact in float64."""
    return q.astype(np.float64) * scales.astype(np.float64)[:, None]


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
        """|w - dequant(quant(w))| <= scale/2 per element."""
        w = rng.normal(size=(8, 128))
        q, scales = QK.quantize_per_channel(w)
        w_hat = _dequantized(q, scales)
        bound = scales.astype(np.float64)[:, None] / 2 + 1e-12
        assert (np.abs(w_hat - w) <= bound).all()

    def test_grid_values_round_trip_exactly(self):
        """Values already on the quantization grid survive bit-exactly."""
        scales = np.array([0.25], dtype=np.float32)
        w = (np.arange(-127, 128, dtype=np.float64) * scales[0])[None, :]
        q, s = QK.quantize_per_channel(w)
        np.testing.assert_array_equal(_dequantized(q, s), w)

    def test_zero_channel_is_exact(self):
        w = np.zeros((2, 16))
        w[1] = 1.0
        q, scales = QK.quantize_per_channel(w)
        assert scales[0] == 1.0  # placeholder scale, codes all zero
        np.testing.assert_array_equal(_dequantized(q, scales)[0], 0.0)

    def test_a_strided_view_quantizes_like_its_copy(self, rng):
        """A transposed or sliced weight (how a ``(in, out)`` parameter
        reaches the quantizer) gives its contiguous copy's codes."""
        view = _outlier_channels(rng).T[::2].T  # (4, 4096), no unit stride
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        q, scales = QK.quantize_per_channel(view)
        want_q, want_s = QK.quantize_per_channel(np.ascontiguousarray(view))
        np.testing.assert_array_equal(q, want_q)
        np.testing.assert_array_equal(scales, want_s)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_blocks_give_the_whole_weight_formula_bytes(self, rng, dtype):
        """Codes and scales computed per block of channels equal the
        whole-weight expressions, across many blocks, a zero channel and
        codes that land exactly on a rounding half."""
        w = rng.normal(size=(300, 512))
        w[7] = 0.0
        w[11, :3] = [127.0, 0.5, 1.5]  # scale 1: .5 / 1.5 round to even
        w = w.astype(dtype)
        assert QK.block_rows(w.shape[1], w.itemsize) < len(w)
        absmax = np.abs(w).max(axis=-1)
        want_s = np.where(absmax > 0.0, absmax / QK.QMAX, 1.0).astype(np.float32)
        want_q = np.clip(np.rint(w / want_s[:, None]), -QK.QMAX, QK.QMAX).astype(np.int8)
        q, scales = QK.quantize_per_channel(w)
        assert q.tobytes() == want_q.tobytes()
        assert scales.tobytes() == want_s.tobytes()
        np.testing.assert_array_equal(q[11, :3], [127, 0, 2])

    def test_per_channel_beats_per_tensor_on_mixed_magnitudes(self, rng):
        """The small channel keeps precision a per-tensor scale would lose."""
        w = rng.normal(size=(2, 256))
        w[0] *= 1e-3
        w[1] *= 1e3
        q, scales = QK.quantize_per_channel(w)
        rel = np.abs(_dequantized(q, scales) - w) / np.abs(w).max(axis=1)[:, None]
        assert rel.max() < 1.0 / 127  # both channels at their own resolution

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scales_are_float32_for_every_input_dtype(self, rng, dtype):
        w = rng.normal(size=(6, 40)).astype(dtype)
        q, scales = QK.quantize_per_channel(w)
        assert q.dtype == np.int8 and scales.dtype == np.float32
        assert scales.shape == (6,)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_negation_negates_the_codes(self, rng, dtype):
        """Symmetric codes without -128: ``-w`` stores as ``-q`` under the
        same scales, each channel's absmax element included."""
        w = _outlier_channels(rng, dtype)
        q, scales = QK.quantize_per_channel(w)
        q_neg, scales_neg = QK.quantize_per_channel(-w)
        np.testing.assert_array_equal(scales_neg, scales)
        np.testing.assert_array_equal(q_neg, -q)
        assert q.min() == -127 and q.max() == 127

    @pytest.mark.parametrize("exponent", [-3, 5])
    def test_a_power_of_two_rescale_moves_only_the_scales(self, rng, exponent):
        """Scaling a weight by ``2**k`` is exact in floating point, so the
        codes are unchanged and every scale is scaled by ``2**k``."""
        w = _outlier_channels(rng)
        q, scales = QK.quantize_per_channel(w)
        q2, scales2 = QK.quantize_per_channel(w * 2.0**exponent)
        np.testing.assert_array_equal(q2, q)
        np.testing.assert_array_equal(scales2, scales * np.float32(2.0**exponent))

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            QK.quantize_per_channel(rng.normal(size=8))


def _stored(rng, out_f, in_f, itemsize):
    """``(packed, codes, scales)`` of a random ``(out_f, in_f)`` weight."""
    q, scales = QK.quantize_per_channel(rng.normal(size=(out_f, in_f)))
    return QK.pack_weight(q, scales, itemsize=itemsize), q, scales


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestQuantizedLinear:
    def test_parity_vs_fp_linear_within_quant_error(self, rng, dtype):
        """|y_int8 - y_fp| obeys the analytic bound 0.5 * s_o * sum|x|."""
        w = rng.normal(size=(96, 64))
        x = rng.normal(size=(7, 64)).astype(dtype)
        q, scales = QK.quantize_per_channel(w)
        packed = QK.pack_weight(q, scales, itemsize=x.itemsize)
        y_fp = x.astype(np.float64) @ w.T
        y_q = QK.quantized_linear(x, packed, scales).astype(np.float64)
        bound = 0.5 * scales.astype(np.float64) * np.abs(x.astype(np.float64)).sum(axis=1, keepdims=True)
        assert (np.abs(y_q - y_fp) <= bound + 1e-5).all()
        # and the relative error is small in aggregate
        rel = np.abs(y_q - y_fp).max() / np.abs(y_fp).max()
        assert rel < 0.02

    def test_leading_batch_dims(self, rng, dtype):
        packed, q, scales = _stored(rng, 24, 16, np.dtype(dtype).itemsize)
        x = rng.normal(size=(2, 3, 16)).astype(dtype)
        got = QK.quantized_linear(x, packed, scales)
        assert got.shape == (2, 3, 24) and got.dtype == dtype
        np.testing.assert_allclose(
            got, QK.quantized_linear_reference(x, q, scales), rtol=2e-5, atol=2e-5
        )

    def test_scratch_cache_reuse_is_consistent(self, rng, dtype):
        """Repeated calls through the cached scratch stay deterministic."""
        packed, _, scales = _stored(rng, 40, 32, np.dtype(dtype).itemsize)
        x = rng.normal(size=(4, 32)).astype(dtype)
        first = QK.quantized_linear(x, packed, scales)
        for _ in range(3):
            np.testing.assert_array_equal(QK.quantized_linear(x, packed, scales), first)
        # the pool is per-thread; this thread's share respects the byte
        # budget
        assert QK._SCRATCH._tls.bytes <= QK._SCRATCH.MAX_BYTES


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
def test_activations_other_than_float32_or_float64_are_refused(rng, dtype):
    """int8 codes have no float tier of their own: the GEMM computes in
    its activations' dtype, and only the two the models run in are one."""
    packed, q, scales = _stored(rng, 8, 16, 4)
    x = (rng.normal(size=(3, 16)) * 4).astype(dtype)
    for call in (lambda: QK.quantized_linear(x, packed, scales),
                 lambda: QK.quantized_linear_reference(x, q, scales)):
        with pytest.raises(ValueError, match="float32 or float64"):
            call()
