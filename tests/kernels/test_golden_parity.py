"""Golden-parity tests for the unified kernel layer.

Three oracles pin the kernels down:

* dense materialization — every apply path must equal multiplying by the
  explicitly materialized matrix;
* ``numpy.fft`` — the FFT twiddle special case must match the library FFT;
* finite differences — the VJP must match numeric gradients.

Both policy dtypes (float64 and float32) are covered, and the hardware
functional engine is cross-checked against the same reference.
"""

import numpy as np
import pytest

from repro import kernels as K


def _dense_ladder(coeffs, n, halves):
    """Dense matrix of a stage ladder: product of stage materializations."""
    mat = np.eye(n)
    for c, h in zip(coeffs, halves):
        mat = K.stage_dense(c, n, h) @ mat
    return mat


def _random_ladder(rng, n, dtype=np.float64):
    halves = K.stage_halves(n)
    coeffs = [
        rng.normal(0.0, 0.7, size=(4, n // 2)).astype(dtype) for _ in halves
    ]
    return coeffs, halves


class TestForwardVsDense:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_single_stage_matches_dense(self, rng, n):
        for half in K.stage_halves(n):
            coeffs = rng.normal(size=(4, n // 2))
            x = rng.normal(size=(5, n))
            dense = K.stage_dense(coeffs, n, half)
            np.testing.assert_allclose(
                K.stage_forward(x, coeffs, half), x @ dense.T, atol=1e-10
            )

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_full_ladder_matches_dense(self, rng, n):
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(64, n))  # large enough to hit the grouped path
        y, _ = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        dense = _dense_ladder(coeffs, n, halves)
        np.testing.assert_allclose(y, x @ dense.T, atol=1e-8)

    @pytest.mark.parametrize("n", [64, 256])
    def test_float32_matches_float64(self, rng, n):
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(64, n))
        y64, _ = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        y32, _ = K.butterfly_apply(
            x.astype(np.float32),
            [c.astype(np.float32) for c in coeffs],
            halves,
            need_ctx=False,
        )
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=2e-3, atol=2e-3)

    @pytest.mark.parametrize("n", [64, 512])
    def test_grouped_matches_reference(self, rng, n):
        """The fused GEMM paths equal the per-stage reference kernel: the
        chunked one, and at n = 64 (inside the dense area budget, rows >= n)
        the one densified for the call."""
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(64, n))
        y, ctx = K.butterfly_apply(x, coeffs, halves)
        assert ctx is not None and ctx[0] == ("dense" if n == 64 else "grouped")
        np.testing.assert_allclose(
            y, K.butterfly_apply_reference(x, coeffs, halves), atol=1e-9
        )

    def test_single_vector_takes_the_grouped_path(self, rng):
        """One row is fewer than ``in_features``: grouped, and its VJP
        equals the per-stage VJP chain."""
        n = 1024
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=n)
        y, ctx = K.butterfly_apply(x, coeffs, halves)
        assert ctx[0] == "grouped" and y.shape == (n,)
        np.testing.assert_allclose(
            y, K.butterfly_apply_reference(x, coeffs, halves), atol=1e-10
        )
        seed = rng.normal(size=n)
        gx, gcoeffs = K.butterfly_apply_vjp(seed, ctx)
        inputs = [x]
        for c, h in zip(coeffs[:-1], halves[:-1]):
            inputs.append(K.stage_forward(inputs[-1], c, h))
        g = seed
        for s in range(len(halves) - 1, -1, -1):
            g, want = K.stage_vjp(g, inputs[s], coeffs[s], halves[s])
            np.testing.assert_allclose(gcoeffs[s], want, atol=1e-9)
        np.testing.assert_allclose(gx, g, atol=1e-9)

    def test_leading_batch_dims(self, rng):
        n = 64
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(4, 8, 9, n))
        y, _ = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        flat, _ = K.butterfly_apply(x.reshape(-1, n), coeffs, halves,
                                    need_ctx=False)
        np.testing.assert_allclose(y, flat.reshape(x.shape), atol=1e-12)


class TestFFTParity:
    @pytest.mark.parametrize("n", [2, 8, 16, 64, 128, 512])
    def test_fft_stage_coeffs_match_general_kernel(self, rng, n):
        """Twiddle coefficient arrays drive the general kernel to the FFT."""
        x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        halves = K.stage_halves(n)
        coeffs = [K.fft_stage_coeffs(n, h) for h in halves]
        out = x[..., K.bit_reversal_permutation(n)]
        y, _ = K.butterfly_apply(out, coeffs, halves, need_ctx=False)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)


def _numeric_grad(f, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestVJPvsFiniteDifferences:
    @pytest.mark.parametrize("n", [8, 16])
    def test_single_stage_vjp(self, rng, n):
        for half in K.stage_halves(n):
            x = rng.normal(size=(3, n))
            coeffs = rng.normal(size=(4, n // 2))
            seed = rng.normal(size=(3, n))
            gx, gc = K.stage_vjp(seed, x, coeffs, half)

            def loss():
                return float((K.stage_forward(x, coeffs, half) * seed).sum())

            np.testing.assert_allclose(gx, _numeric_grad(loss, x), atol=1e-6)
            np.testing.assert_allclose(gc, _numeric_grad(loss, coeffs),
                                       atol=1e-6)

    @pytest.mark.parametrize("n,rows", [(16, 3), (64, 64)])
    def test_full_ladder_vjp(self, rng, n, rows):
        """Covers both the per-stage (n=16) and grouped (n=64) paths."""
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(rows, n))
        seed = rng.normal(size=(rows, n))
        y, ctx = K.butterfly_apply(x, coeffs, halves)
        gx, gcs = K.butterfly_apply_vjp(seed, ctx)

        def loss():
            out, _ = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
            return float((out * seed).sum())

        np.testing.assert_allclose(gx, _numeric_grad(loss, x),
                                   atol=5e-5, rtol=1e-5)
        for s in range(len(coeffs)):
            np.testing.assert_allclose(
                gcs[s], _numeric_grad(loss, coeffs[s]), atol=5e-5, rtol=1e-5,
                err_msg=f"stage {s} coefficient gradient",
            )

    def test_float32_vjp_matches_float64(self, rng):
        n, rows = 256, 64
        coeffs, halves = _random_ladder(rng, n)
        x = rng.normal(size=(rows, n))
        seed = rng.normal(size=(rows, n))
        _, ctx64 = K.butterfly_apply(x, coeffs, halves)
        gx64, gcs64 = K.butterfly_apply_vjp(seed, ctx64)
        _, ctx32 = K.butterfly_apply(
            x.astype(np.float32), [c.astype(np.float32) for c in coeffs],
            halves,
        )
        gx32, gcs32 = K.butterfly_apply_vjp(seed.astype(np.float32), ctx32)
        assert gx32.dtype == np.float32
        np.testing.assert_allclose(gx32, gx64, rtol=5e-3, atol=5e-3)
        for a, b in zip(gcs32, gcs64):
            np.testing.assert_allclose(a, b, rtol=5e-3, atol=1e-2)


class TestInterleavedContexts:
    @pytest.mark.parametrize("d_in,kind", [(256, "grouped"), (64, "dense")])
    def test_two_layers_interleaved(self, rng, d_in, kind):
        """fwd/fwd/bwd/bwd on a shared plan must not cross-contaminate.

        Regression test for scratch-buffer aliasing: saved activations
        must own their memory even when rearrangements degenerate to
        views — and the densified call's context (the 64 -> 256 fold)
        must hold nothing that lives in the plan's pooled scratch.
        """
        n, rows = 256, 64
        halves = K.stage_halves(n)
        ca, _ = _random_ladder(rng, n)
        cb, _ = _random_ladder(rng, n)
        xa = rng.normal(size=(rows, d_in))
        xb = rng.normal(size=(rows, d_in))
        sa = rng.normal(size=(rows, n))
        sb = rng.normal(size=(rows, n))
        fold = dict(in_features=d_in, out_features=n)
        ya, ctxa = K.butterfly_apply(xa, ca, halves, **fold)
        yb, ctxb = K.butterfly_apply(xb, cb, halves, **fold)
        assert ctxa[0] == ctxb[0] == kind
        gxb, gcsb = K.butterfly_apply_vjp(sb, ctxb)
        gxa, gcsa = K.butterfly_apply_vjp(sa, ctxa)
        # solo (non-interleaved) references
        _, ctx = K.butterfly_apply(xa, ca, halves, **fold)
        gxa_ref, gcsa_ref = K.butterfly_apply_vjp(sa, ctx)
        np.testing.assert_allclose(gxa, gxa_ref, atol=1e-12)
        for a, b in zip(gcsa, gcsa_ref):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestHardwareEngineParity:
    def test_engine_verifies_against_kernels(self, rng):
        """The access-accurate engine loop equals the kernel reference."""
        from repro.butterfly import ButterflyMatrix
        from repro.hardware.functional import ButterflyEngine

        engine = ButterflyEngine(pbu=4, verify=True)
        matrix = ButterflyMatrix.random(64, rng)
        x = rng.normal(size=64)
        out = engine.run_butterfly(x, matrix)  # raises if parity breaks
        np.testing.assert_allclose(out, matrix.apply(x), atol=1e-9)
        z = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(engine.run_fft(z), np.fft.fft(z),
                                   atol=1e-8)


class TestLayoutHelpers:
    @pytest.mark.parametrize("n", [4, 32, 256])
    def test_pair_indices_partition(self, n):
        for half in K.stage_halves(n):
            pairs = K.pair_indices(n, half)
            assert pairs.shape == (n // 2, 2)
            assert np.array_equal(np.sort(pairs.reshape(-1)), np.arange(n))
            np.testing.assert_array_equal(pairs[:, 1] - pairs[:, 0], half)
            # pair_index_of inverts pair_indices for both elements
            p = np.arange(n // 2)
            np.testing.assert_array_equal(K.pair_index_of(pairs[:, 0], half), p)
            np.testing.assert_array_equal(K.pair_index_of(pairs[:, 1], half), p)

    @pytest.mark.parametrize("n", [2, 16, 1024])
    def test_bit_reversal_involution(self, n):
        perm = K.bit_reversal_permutation(n)
        assert np.array_equal(perm[perm], np.arange(n))


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert K.get_default_dtype() == np.float64

    def test_scoped_override(self):
        from repro.nn import Tensor

        with K.default_dtype("float32"):
            t = Tensor([1.0, 2.0])
            assert t.dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            K.set_default_dtype(np.int32)

    def test_layer_trains_in_float32(self, rng):
        """A ButterflyLinear training step stays float32 end to end."""
        from repro.nn import ButterflyLinear, Tensor
        from repro.nn.optim import Adam

        with K.default_dtype("float32"):
            layer = ButterflyLinear(64, 64, rng=rng)
            opt = Adam(layer.parameters(), lr=0.01)
            x = Tensor(rng.normal(size=(32, 64)), requires_grad=True)
            out = layer.forward(x)
            assert out.dtype == np.float32
            loss = (out * out).mean()
            loss.backward()
            for p in layer.parameters():
                assert p.grad is not None and p.grad.dtype == np.float32
            opt.step()
            assert layer.stage_parameters()[0].dtype == np.float32
