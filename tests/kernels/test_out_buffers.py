"""The kernels an inference program calls: ``out=``, the pool behind
their temporaries, and the real-input Fourier mixing.

Every forward entry point the encoder's program uses takes an optional
``out=``.  One rule for all of them: ``out`` has the result's shape and
dtype, is C-contiguous, aliases no input (``gelu_forward`` alone defines
in place) and receives exactly the bytes the allocating call returns.
``attention_forward`` also takes the heads-merged layout
(:class:`TestAttentionMergedHeads`).
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import kernels, nn
from repro.kernels import FrozenLadder, ScratchPool
from repro.kernels.fused import GELU_BLOCK
from repro.nn.tensor import layer_norm_forward

DTYPES = [np.float32, np.float64]


def _ladder(rng, n, dtype, in_features=None, out_features=None):
    halves = kernels.stage_halves(n)
    coeffs = [rng.normal(size=(4, n // 2)).astype(dtype) for _ in halves]
    return coeffs, halves, FrozenLadder(coeffs, dtype, in_features, out_features)


def _calls(rng, dtype):
    """``name -> (call(out=None) -> result, inputs)`` at small shapes."""
    x = rng.normal(size=(2, 5, 12)).astype(dtype)
    sub = rng.normal(size=x.shape).astype(dtype)
    gamma, beta = rng.normal(size=(2, 12)).astype(dtype)
    w = rng.normal(size=(7, 12)).astype(dtype)
    b = rng.normal(size=7).astype(dtype)
    q, k, v = rng.normal(size=(3, 2, 2, 5, 4)).astype(dtype)
    mask = np.arange(5)[None, :] < np.array([[5], [3]])
    calls = {
        "linear": (lambda out=None: kernels.linear_act_forward(
            x, w, b, need_ctx=False, out=out)[0], [x]),
        "linear_gelu": (lambda out=None: kernels.linear_act_forward(
            x, w, b, "gelu", need_ctx=False, out=out)[0], [x]),
        "gelu": (lambda out=None: kernels.gelu_forward(
            x, need_ctx=False, out=out)[0], [x]),
        "residual_layer_norm": (
            lambda out=None: kernels.residual_layer_norm_forward(
                x, sub, gamma, beta, need_ctx=False, out=out)[0], [x, sub]),
        "layer_norm": (lambda out=None: layer_norm_forward(
            x, gamma, beta, out=out)[0], [x]),
        "fourier_mix": (lambda out=None: kernels.fourier_mix(x, out=out), [x]),
        "attention": (lambda out=None: kernels.attention_forward(
            q, k, v, key_mask=mask, need_ctx=False, out=out)[0], [q, k, v]),
        "attention_causal": (lambda out=None: kernels.attention_forward(
            q, k, v, causal=True, need_ctx=False, out=out)[0], [q, k, v]),
    }
    # One dense block, a chunked ladder whose fold ends on a group of
    # output positions, and one whose fold cuts inside a group.
    for name, n, (fan_in, fan_out) in (("ladder_dense", 16, (12, 9)),
                                       ("ladder_chunked", 256, (200, 256)),
                                       ("ladder_cut", 256, (200, 250))):
        x_in = rng.normal(size=(2, 5, fan_in)).astype(dtype)
        coeffs, halves, ladder = _ladder(rng, n, dtype, fan_in, fan_out)
        assert (len(ladder.ops) == 1) == (name == "ladder_dense")
        calls[name] = (
            lambda out=None, lad=ladder, x_in=x_in: lad.apply(x_in, out),
            [x_in])
    return calls


CALLS = sorted(_calls(np.random.default_rng(0), np.float64))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", CALLS)
class TestOutRule:
    def test_out_receives_the_allocating_calls_bytes(self, name, dtype, rng):
        call, _ = _calls(rng, dtype)[name]
        want = call()
        out = np.full(want.shape, np.nan, dtype=want.dtype)
        got = call(out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        assert call().tobytes() == want.tobytes()  # scratch reuse changes nothing

    def test_wrong_shape_dtype_or_layout_refused(self, name, dtype, rng):
        call, _ = _calls(rng, dtype)[name]
        want = call()
        other = np.float32 if want.dtype == np.float64 else np.float64
        strided = np.empty(want.shape[:-1] + (2 * want.shape[-1],),
                           dtype=want.dtype)[..., ::2]
        assert strided.shape == want.shape
        for bad in (
            np.empty(want.shape[1:], dtype=want.dtype),
            np.empty(want.shape[:-1] + (want.shape[-1] + 1,), dtype=want.dtype),
            np.empty(want.shape, dtype=other),
            strided,
            want.tolist(),
        ):
            with pytest.raises(ValueError, match="out must be"):
                call(bad)
        assert call().tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
# gelu_forward alone defines in place (TestGeluInPlace).
@pytest.mark.parametrize("name", [name for name in CALLS if name != "gelu"])
def test_aliasing_an_input_refused(name, dtype, rng):
    """``out`` carved from an input's own memory — the input itself where
    the shapes agree, a window of the result's shape where it is smaller."""
    call, operands = _calls(rng, dtype)[name]
    want = call()
    carved = 0
    for operand in operands:
        if operand.size >= want.size and operand.dtype == want.dtype:
            window = operand.reshape(-1)[:want.size].reshape(want.shape)
            assert np.shares_memory(window, operand)
            before = operand.copy()
            with pytest.raises(ValueError, match="alias"):
                call(window)
            np.testing.assert_array_equal(operand, before)
            carved += 1
    assert carved or name in ("ladder_chunked", "ladder_cut")  # wider than x


class TestAContextInTheCallersBuffers:
    def test_out_with_a_context_is_the_allocating_call_both_ways(self, rng):
        """A context may live in the caller's ``out`` (and ``take``)
        buffers: the result and the VJP's gradients are the allocating
        call's bytes, and ``out`` comes back as the result."""
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))
        q = rng.normal(size=(1, 1, 3, 4))
        g = rng.normal(size=(3, 4))
        for forward, vjp, grad in (
            (lambda **o: kernels.linear_act_forward(x, w, **o),
             kernels.linear_act_vjp, g),
            (lambda **o: kernels.residual_layer_norm_forward(
                x, 2 * x, np.ones(4), np.zeros(4), **o),
             kernels.residual_layer_norm_vjp, g),
            (lambda **o: kernels.attention_forward(q, 2 * q, 3 * q, **o),
             kernels.attention_vjp, g[None, None]),
        ):
            want, want_ctx = forward()
            out = np.full_like(want, np.nan)
            got, ctx = forward(out=out)
            assert got is out
            np.testing.assert_array_equal(got, want)
            for a, b in zip(vjp(grad, ctx), vjp(grad, want_ctx)):
                np.testing.assert_array_equal(a, b)
        want, t = kernels.gelu_forward(x)
        out = np.empty_like(x)
        got, t_out = kernels.gelu_forward(x, out=out)
        assert got is out
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(t_out, t)

    def test_a_context_in_a_callers_buffer_still_refuses_aliases(self, rng):
        x = rng.normal(size=(3, 4))
        for call in (
            lambda: kernels.linear_act_forward(x, np.eye(4), out=x),
            lambda: kernels.residual_layer_norm_forward(
                x, x, np.ones(4), np.zeros(4), out=x),
        ):
            with pytest.raises(ValueError, match="alias"):
                call()

    def test_only_the_frozen_ladder_takes_out(self, rng):
        """The kernel entry is the recorded / raw-array path: a frozen
        ladder is applied (into ``out`` or not) through its own ``apply``."""
        coeffs, halves, ladder = _ladder(rng, 8, np.float64)
        x = rng.normal(size=(2, 8))
        for name in ("out", "ladder"):
            with pytest.raises(TypeError, match=name):
                kernels.butterfly_apply(x, coeffs, halves, need_ctx=False,
                                        **{name: None})
        out = np.empty_like(x)
        assert ladder.apply(x, out) is out


class TestAttentionMergedHeads:
    """``attention_forward``'s ``out`` may be the ``(0, 2, 1, 3)``
    transpose of a C-contiguous ``(B, Lq, H, D)`` array: the layout the
    output projection reads, so the programs merge no heads by copy."""

    @staticmethod
    def _operands(rng, dtype):
        q, k, v = rng.normal(size=(3, 2, 3, 5, 4)).astype(dtype)
        mask = np.arange(5)[None, :] < np.array([[5], [3]])
        return q, k, v, mask

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("need_ctx", [False, True])
    def test_merged_heads_receive_the_allocating_calls_bytes(
            self, dtype, need_ctx, rng):
        q, k, v, mask = self._operands(rng, dtype)
        g = rng.normal(size=q.shape).astype(dtype)
        want, want_ctx = kernels.attention_forward(
            q, k, v, key_mask=mask, need_ctx=need_ctx)
        merged = np.full((2, 5, 3, 4), np.nan, dtype)
        got, ctx = kernels.attention_forward(
            q, k, v, key_mask=mask, need_ctx=need_ctx,
            out=merged.transpose(0, 2, 1, 3))
        assert got.shape == want.shape and np.shares_memory(got, merged)
        assert merged.tobytes() == want.transpose(0, 2, 1, 3).copy().tobytes()
        if need_ctx:
            for a, b in zip(kernels.attention_vjp(g, ctx),
                            kernels.attention_vjp(g, want_ctx)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_views_it_cannot_own_are_refused(self, dtype, rng):
        """A broadcast view, a view whose heads overlap each other, and
        merged heads carved from an operand's memory."""
        q, k, v, mask = self._operands(rng, dtype)
        item = np.dtype(dtype).itemsize
        base = np.zeros(2 * 5 * 3 * 4, dtype)
        overlapping = np.lib.stride_tricks.as_strided(
            base, (2, 5, 3, 4), (60 * item, 12 * item, 2 * item, item))
        for bad in (
            np.broadcast_to(np.zeros((1, 1, 3, 4), dtype), (2, 5, 3, 4)),
            overlapping,
            *(a.reshape(2, 5, 3, 4) for a in (q, k, v)),
        ):
            with pytest.raises(ValueError, match="out must"):
                kernels.attention_forward(q, k, v, key_mask=mask, need_ctx=False,
                                          out=bad.transpose(0, 2, 1, 3))


@pytest.mark.parametrize("dtype", DTYPES)
class TestGeluInPlace:
    @pytest.mark.parametrize("size", [1, 7, GELU_BLOCK, GELU_BLOCK + 1,
                                      3 * GELU_BLOCK + 5])
    def test_in_place_is_the_allocating_call_across_block_edges(
        self, size, dtype, rng
    ):
        z = rng.normal(size=size).astype(dtype)
        want = kernels.gelu_forward(z, need_ctx=False)[0]
        kept, t = kernels.gelu_forward(z)
        assert kept.tobytes() == want.tobytes() and t is not None
        got, none = kernels.gelu_forward(z, need_ctx=False, out=z)
        assert got is z and none is None
        assert z.tobytes() == want.tobytes()

    def test_partial_overlap_and_strided_input_refused(self, dtype, rng):
        buf = rng.normal(size=24).astype(dtype)
        with pytest.raises(ValueError, match="alias"):
            kernels.gelu_forward(buf[:16], need_ctx=False, out=buf[8:])
        with pytest.raises(ValueError, match="contiguous"):
            kernels.gelu_forward(buf[::2], need_ctx=False, out=np.empty(12, dtype))


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
class TestFourierMix:
    @pytest.mark.parametrize("seq", [1, 2, 7, 16, 33])
    @pytest.mark.parametrize("hidden", [1, 2, 3, 8, 15, 768])
    def test_equals_fft2_real(self, seq, hidden, dtype, tol, rng):
        x = rng.normal(size=(seq, hidden)).astype(dtype)
        got = kernels.fourier_mix(x)
        want = np.fft.fft2(x.astype(np.float64)).real
        assert got.dtype == dtype and got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    def test_leading_batch_axes(self, dtype, tol, rng):
        x = rng.normal(size=(2, 3, 10, 6)).astype(dtype)
        got = kernels.fourier_mix(x)
        want = np.fft.fft2(x.astype(np.float64), axes=(-2, -1)).real
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())
        np.testing.assert_array_equal(got[1, 2], kernels.fourier_mix(x[1, 2]))

    def test_strided_input(self, dtype, tol, rng):
        x = rng.normal(size=(9, 2, 5)).astype(dtype).transpose(1, 0, 2)
        want = np.fft.fft2(x.astype(np.float64), axes=(-2, -1)).real
        np.testing.assert_allclose(kernels.fourier_mix(x), want, rtol=0,
                                   atol=tol * np.abs(want).max())


class TestFourierMixOp:
    def test_complex_and_vector_inputs_refused(self):
        with pytest.raises(ValueError, match="real"):
            kernels.fourier_mix(np.ones((4, 4), dtype=np.complex128))
        with pytest.raises(ValueError, match="real"):
            kernels.fourier_mix(np.ones(4))

    @pytest.mark.parametrize("shape", [(5, 6), (2, 4, 7)])
    def test_gradcheck_through_the_op(self, shape, rng, gradcheck):
        gradcheck(nn.fourier_mix_2d, rng.normal(size=shape))

    def test_op_matches_the_seed_formula(self, rng):
        """The seed's ``np.fft.fft2(x).real``, both ways: the op's oracle."""
        x = rng.normal(size=(6, 8))
        grad = rng.normal(size=x.shape)
        node = nn.Tensor(x, requires_grad=True)
        out = nn.fourier_mix_2d(node)
        out.backward(grad)
        np.testing.assert_allclose(out.data, np.fft.fft2(x).real, atol=1e-12)
        np.testing.assert_allclose(node.grad, np.fft.fft2(grad).real, atol=1e-12)


class TestScratchPool:
    def test_grow_only_per_tag_and_dtype(self):
        pool = ScratchPool()
        big = pool.take("a", (4, 8), np.float32)
        assert big.shape == (4, 8) and big.flags.c_contiguous
        assert big.ctypes.data % 64 == 0  # a cache line
        small = pool.take("a", (3, 2), np.float32)
        assert np.shares_memory(small, big)  # a shorter request: same buffer
        again = pool.take("a", (4, 8), np.float32)
        assert again.ctypes.data == big.ctypes.data
        assert not np.shares_memory(pool.take("b", (4, 8), np.float32), big)
        assert not np.shares_memory(pool.take("a", (4, 8), np.float64), big)
        grown = pool.take("a", (5, 8), np.float32)
        assert grown.size == 40 and pool._tls.bytes == 40 * 4 + 32 * 4 + 32 * 8

    def test_a_miss_enters_no_numpy_python_code(self):
        # Misses happen inside training and decode steps, which enter no
        # numpy Python wrapper (tests/models/test_decode_calls.py).
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                entered.append(frame.f_code.co_name)

        pool = ScratchPool()
        sys.setprofile(profile)
        try:
            pool.take("a", (4, 8), np.float32)
            pool.take("a", (5, 8), np.float32)  # grows: a second miss
        finally:
            sys.setprofile(None)
        assert entered == []

    def test_over_budget_requests_are_plain_allocations(self, monkeypatch):
        pool = ScratchPool()
        monkeypatch.setattr(pool, "MAX_BYTES", 1024)
        kept = pool.take("a", (128,), np.float32)  # 512 B: pooled
        spill = pool.take("b", (256,), np.float32)  # would make 1536 B
        assert spill.shape == (256,) and pool._tls.bytes == 512
        assert pool.take("b", (256,), np.float32).ctypes.data != kept.ctypes.data
        # A tag that outgrows the budget gives its old buffer back first.
        assert pool.take("a", (512,), np.float32).shape == (512,)
        assert pool._tls.bytes == 0 and not pool._tls.pool

    def test_threads_never_share_a_buffer(self):
        pool = ScratchPool()
        taken = []
        barrier = threading.Barrier(4)

        def take():
            buf = pool.take("a", (64,), np.float64)
            taken.append(buf)
            barrier.wait(timeout=10)  # all four alive at once

        threads = [threading.Thread(target=take) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        taken.append(pool.take("a", (64,), np.float64))
        assert len({buf.ctypes.data for buf in taken}) == 5

    def test_counters_keep_their_names(self):
        from repro import telemetry

        previous = telemetry.set_registry(telemetry.Registry())
        try:
            with telemetry.use_telemetry():
                pool = ScratchPool()
                pool.take("a", (4,), np.float32)
                pool.take("a", (4,), np.float32)
                ScratchPool("kernels_quant_scratch").take("a", (4,), np.float32)
            counts = {name: entry["value"] for name, entry
                      in telemetry.get_registry().snapshot().items()}
        finally:
            telemetry.set_registry(previous)
        assert counts == {
            "kernels_scratch_misses_total": 1,
            "kernels_scratch_hits_total": 1,
            "kernels_quant_scratch_misses_total": 1,
        }
