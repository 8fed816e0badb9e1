"""The recorded call of a small fold: the ladder densified per call.

``kernels.butterfly_apply`` with a context wanted runs a fold inside the
frozen ladder's area budget, on at least ``in_features`` rows, as one
GEMM with the ladder's dense block ``W`` in closed form and takes ``dW``
back through it.  The oracle here is the per-stage chain
(``butterfly_apply_reference`` + ``stage_vjp``), which shares no code
with the grouped or the dense path; the closed form's own oracle is the
chunk walk over the identity's rows, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels as K
from repro.butterfly import ButterflyFactor, ButterflyMatrix
from repro.kernels import backend, grouped
from repro.nn import tensor as F

RELATIVE = {np.float64: 1e-10, np.float32: 2e-5}


def _ladder(rng, n, dtype=np.float64):
    halves = K.stage_halves(n)
    # ~unit gain per stage keeps float32 outputs O(1) through ten stages
    coeffs = [(rng.normal(size=(4, n // 2)) * 0.7).astype(dtype)
              for _ in halves]
    return coeffs, halves


def _chain(x, coeffs, halves, n, d_out, grad):
    """Zero-pad, per-stage forward, slice — and the per-stage VJP back —
    in float64 whatever the inputs' dtype."""
    x, grad = x.astype(np.float64), grad.astype(np.float64)
    coeffs = [c.astype(np.float64) for c in coeffs]
    saved = [np.zeros(x.shape[:-1] + (n,))]
    saved[0][..., : x.shape[-1]] = x
    for c, half in zip(coeffs[:-1], halves[:-1]):
        saved.append(K.stage_forward(saved[-1], c, half))
    y = K.butterfly_apply_reference(saved[0], coeffs, halves)[..., :d_out]
    g = np.zeros_like(saved[0])
    g[..., :d_out] = grad
    gcoeffs = [None] * len(coeffs)
    for s in range(len(coeffs) - 1, -1, -1):
        g, gcoeffs[s] = K.stage_vjp(g, saved[s], coeffs[s], halves[s])
    return y, g[..., : x.shape[-1]], gcoeffs


def _expected_kind(rows, d_in, d_out, n):
    """The dispatch as the docs state it: a function of these four only."""
    if rows >= d_in and d_in * d_out <= grouped.DENSE_MAX_N * n:
        return "dense"
    return "grouped"


def _assert_close(got, want, scale, relative, what):
    """``got`` within ``relative`` of ``scale``, the largest element of
    the float64 chain over the operands' magnitudes: a rounding-error
    bound is proportional to that chain, and cancellation in ``want``
    cannot shrink it."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=relative * max(np.max(scale), 1e-30),
                               err_msg=what)


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]))
    # Widths on both sides of the area rule: a few fixed fractions of n
    # (the FFN shapes) plus ragged ones.
    width = st.one_of(
        st.sampled_from([w for w in (n, n // 2, n // 4, n // 8, n // 16) if w]),
        st.integers(1, n),
    )
    d_in, d_out = draw(width), draw(width)
    # Rows on both sides of in_features.
    rows = draw(st.one_of(
        st.sampled_from([d_in - 1, d_in, d_in + 1]),
        st.integers(1, 320),
    ))
    rows = max(rows, 1)
    lead = (rows,)
    if draw(st.booleans()):
        b = draw(st.sampled_from([d for d in (1, 2, 3, 4) if rows % d == 0]))
        lead = (b, rows // b)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d_in, d_out, lead, dtype, seed


class TestAgainstTheStageChain:
    @settings(max_examples=80, deadline=None)
    @given(_cases())
    @example((1024, 64, 1, (117,), np.float32, 354784))
    @example((1024, 344, 1, (1,), np.float32, 1))  # y cancels to 2e-4 of its chain
    def test_forward_and_every_gradient(self, case):
        n, d_in, d_out, lead, dtype, seed = case
        rng = np.random.default_rng(seed)
        coeffs, halves = _ladder(rng, n, dtype)
        x = rng.normal(size=lead + (d_in,)).astype(dtype)
        grad = rng.normal(size=lead + (d_out,)).astype(dtype)
        y, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=d_in, out_features=d_out)
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        rows = int(np.prod(lead))
        assert ctx[0] == _expected_kind(rows, d_in, d_out, n)
        assert y.shape == lead + (d_out,) and gx.shape == x.shape
        assert y.dtype == gx.dtype == dtype
        want_y, want_gx, want_gcoeffs = _chain(x, coeffs, halves, n, d_out, grad)
        scale_y, scale_gx, scale_gcoeffs = _chain(
            np.abs(x), [np.abs(c) for c in coeffs], halves, n, d_out, np.abs(grad))
        relative = RELATIVE[dtype]
        _assert_close(y, want_y, scale_y, relative, "y")
        _assert_close(gx, want_gx, scale_gx, relative, "gx")
        # The dense path takes every stage's gradient back from one dW, so
        # a stage's rounding error follows the largest stage's scale, not
        # its own: a stage whose gradients are 100x smaller than stage 0's
        # carries float32 error of stage 0's size.
        largest = max(scale.max() for scale in scale_gcoeffs)
        for s, (got, want) in enumerate(zip(gcoeffs, want_gcoeffs)):
            assert got.shape == (4, n // 2) and got.dtype == dtype
            _assert_close(got, want, largest, relative, f"stage {s}")

    def test_finite_differences_through_the_recorded_node(self, rng, gradcheck):
        """float64 central differences on the layer's one graph node.  The
        analytic side records (dense); the numeric side's tensors require
        nothing, so it runs the no-context grouped kernel."""
        n, d_in, d_out, rows = 64, 4, 40, 256
        coeffs, halves = _ladder(rng, n)
        kinds = []
        real = K.butterfly_apply

        def spy(*args, **kwargs):
            y, ctx = real(*args, **kwargs)
            kinds.append(ctx and ctx[0])
            return y, ctx

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(K, "butterfly_apply", spy)
            gradcheck(
                lambda x, *stages: F.butterfly_apply(
                    x, stages, halves, in_features=d_in, out_features=d_out),
                rng.normal(size=(rows, d_in)), *coeffs,
            )
        assert kinds[0] == "dense" and set(kinds[1:]) == {None}


@st.composite
def _folds(draw):
    """A ladder of one, two or three chunks, any fold inside the area
    budget (ragged widths included), real or complex, FFT twiddles too."""
    n = draw(st.sampled_from([2 ** p for p in range(1, 12)]))
    d_in = draw(st.integers(1, n))
    d_out = draw(st.integers(1, min(n, grouped.DENSE_MAX_N * n // d_in)))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.complex128]))
    fft = dtype == np.complex128 and draw(st.booleans())
    return n, d_in, d_out, dtype, fft, draw(st.integers(0, 2**32 - 1))


def _coefficients(rng, n, dtype, fft):
    """A full ladder's stages in ``dtype``: random, or FFT twiddles."""
    if fft:
        return [K.fft_stage_coeffs(n, h) for h in K.stage_halves(n)]
    coeffs, _ = _ladder(rng, n, np.float64)
    if dtype == np.complex128:
        coeffs = [c + 0.5j * rng.normal(size=c.shape) for c in coeffs]
    return [c.astype(dtype) for c in coeffs]


def _identity_walk(plan, coeffs, dtype, rows):
    """Rows ``rows`` of the ladder's dense block the way the chunked path
    computes them: those identity rows walked through the chunk
    operators."""
    Ms = grouped._chunk_blocks(plan, coeffs, dtype).Ms
    ops = [np.ascontiguousarray(M.swapaxes(-1, -2)) for M in Ms]
    eye = np.zeros((len(rows), plan.n), dtype)
    eye[np.arange(len(rows)), rows] = 1
    return grouped._walk(plan, ops, eye)[0]


class TestClosedForm:
    """The dense block as a product of one chunk-block entry per chunk."""

    @settings(max_examples=60, deadline=None)
    @given(_folds())
    @example((2, 2, 2, np.complex128, True, 0))  # a -0 imaginary twiddle
    @example((2048, 100, 2048, np.float32, False, 1))
    @example((2048, 2048, 128, np.float64, False, 2))
    def test_bytes_of_the_identity_walk_and_gradients_of_its_vjp(self, case):
        n, d_in, d_out, dtype, fft, seed = case
        rng = np.random.default_rng(seed)
        halves = K.stage_halves(n)
        coeffs = _coefficients(rng, n, dtype, fft)
        plan = K.get_plan(n, len(halves))
        # Up to 64 of the block's rows, the first and last among them.
        rows = np.unique(np.concatenate([[0, d_in - 1],
                                         rng.integers(0, d_in, size=62)]))
        want = _identity_walk(plan, coeffs, dtype, rows)[:, :d_out]
        x = rng.normal(size=(d_in + 3, d_in)).astype(dtype)
        grad = rng.normal(size=(d_in + 3, d_out)).astype(dtype)
        _, ctx = grouped.dense_forward(x, coeffs, plan, d_out)
        W = ctx[3]  # the recorded call's block
        assert W.shape == (d_in, d_out) and W.dtype == dtype
        assert W[rows].tobytes() == want.tobytes()
        ladder = grouped.FrozenLadder(coeffs, dtype, d_in, d_out)
        assert ladder.ops[0][rows].tobytes() == want.tobytes()
        if n <= 512:
            matrix = ButterflyMatrix([ButterflyFactor(n, h, c)
                                      for h, c in zip(halves, coeffs)])
            full = _identity_walk(plan, coeffs, dtype, np.arange(n))
            assert matrix.dense().tobytes() == np.ascontiguousarray(full.T).tobytes()

        # The VJP's stage gradients against grouped_vjp on the padded
        # identity, DENSE_MAX_N of its rows at a time.
        _, got = grouped.dense_vjp(grad, ctx)
        dW = np.zeros((d_in, n), dtype)
        dW[:, :d_out] = x.T @ grad
        want = [0] * len(halves)
        for i in range(0, d_in, grouped.DENSE_MAX_N):
            block = np.arange(i, min(i + grouped.DENSE_MAX_N, d_in))
            eye = np.zeros((len(block), n), dtype)
            eye[block - i, block] = 1
            _, build = K.grouped_forward(eye, coeffs, plan)
            _, part = K.grouped_vjp(dW[block], build)
            want = [w + p for w, p in zip(want, part)]
        scale = max(np.abs(w).max() for w in want)
        relative = 2e-6 if dtype == np.float32 else 5e-15
        for s, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=0, atol=relative * scale,
                                       err_msg=f"stage {s}")


@st.composite
def _ladders(draw):
    """A full ladder at n 2-2048, real or complex, FFT twiddles too."""
    n = draw(st.sampled_from([2 ** p for p in range(1, 12)]))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.complex128]))
    fft = dtype == np.complex128 and draw(st.booleans())
    return n, dtype, fft, draw(st.integers(0, 2**32 - 1))


#: How far, relative to a block's largest entry, a complex128 block may
#: sit from the stage chain: numpy may round a complex multiply with a
#: fused multiply-add, the block's real-parts products never do.
COMPLEX_BLOCK = 1e-14


class TestChunkBlocks:
    """Every chunk block against the chunk's stages applied one at a time
    by ``kernels.stage_forward`` to identity rows: one path joins each
    input to each output, so each entry is the same products in the same
    order, byte for byte in real dtypes."""

    @settings(max_examples=40, deadline=None)
    @given(_ladders())
    @example((2, np.complex128, True, 0))  # a -0 imaginary twiddle
    @example((2048, np.float32, False, 1))
    @example((1024, np.float64, False, 2))
    @example((512, np.complex128, True, 3))
    def test_each_block_is_its_stages_applied_to_identity_rows(self, case):
        n, dtype, fft, seed = case
        rng = np.random.default_rng(seed)
        halves = K.stage_halves(n)
        coeffs = _coefficients(rng, n, dtype, fft)
        plan = K.get_plan(n, len(halves))
        Ms = grouped._chunk_blocks(plan, coeffs, dtype).Ms
        for chunk, M in zip(plan.chunks, Ms):
            # Three blocks (o, j), the first and the last among them:
            # identity row (o T + a) h0 + j goes through the chunk's
            # stages to M[o, j, b, a] in column (o T + b) h0 + j.
            o, j = (np.concatenate([[0, size - 1], rng.integers(0, size, 1)])
                    for size in (chunk.o, chunk.h0))
            t = np.arange(chunk.T)
            index = (o[:, None] * chunk.T + t) * chunk.h0 + j[:, None]
            y = np.zeros((3 * chunk.T, n), dtype)
            y[np.arange(3 * chunk.T), index.ravel()] = 1
            for s in range(chunk.s0, chunk.s0 + chunk.gc):
                y = K.stage_forward(y, coeffs[s], halves[s])
            y = y.reshape(3, chunk.T, n)
            want = y[np.arange(3)[:, None, None], t, index[:, :, None]]
            got = M[o, j]
            assert got.dtype == dtype
            if dtype == np.complex128:
                np.testing.assert_allclose(
                    got, want, rtol=0,
                    atol=COMPLEX_BLOCK * np.abs(want).max())
            else:
                assert got.tobytes() == want.tobytes()


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_gemm_operand_is_the_inputs_dtype(self, rng, dtype, monkeypatch):
        coeffs, halves = _ladder(rng, 512, dtype)
        x = rng.normal(size=(2, 128, 128)).astype(dtype)
        grad = rng.normal(size=(2, 128, 512)).astype(dtype)
        dtypes = set()
        real = backend.matmul

        def spy(a, b, out):
            dtypes.update((a.dtype, b.dtype, out.dtype))
            return real(a, b, out)

        monkeypatch.setattr(backend, "matmul", spy)
        y, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=128, out_features=512)
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        assert ctx[0] == "dense"
        assert dtypes == {np.dtype(dtype)}
        assert {a.dtype for a in (y, gx, *gcoeffs)} == {np.dtype(dtype)}


class TestContextLifetime:
    @pytest.mark.parametrize("n,d_in,d_other", [
        (256, 64, 64),
        # One chunk: the other layer's narrower and wider builds take the
        # plan's scratch again, of which the context keeps nothing.
        (16, 8, 4),
        (16, 8, 16),
    ])
    def test_retained_context_gives_the_same_vjp_twice(self, rng, n, d_in, d_other):
        """``retain_graph=True``: the VJP reads the context and writes only
        pooled scratch, so a second backward sees what the first saw — also
        after another layer has used the same plan in between."""
        coeffs, halves = _ladder(rng, n)
        other, _ = _ladder(rng, n)
        x = rng.normal(size=(128, d_in))
        grad = rng.normal(size=(128, n))
        _, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=d_in, out_features=n)
        assert ctx[0] == "dense"
        first = K.butterfly_apply_vjp(grad, ctx)
        _, ctx_other = K.butterfly_apply(rng.normal(size=(128, d_other)), other,
                                         halves, in_features=d_other, out_features=n)
        assert ctx_other[0] == "dense"
        K.butterfly_apply_vjp(grad, ctx_other)
        second = K.butterfly_apply_vjp(grad, ctx)
        np.testing.assert_array_equal(first[0], second[0])
        for a, b in zip(first[1], second[1]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_retained_dense_context_holds_no_plan_scratch(self, rng, n):
        """Every array the context keeps — ``x``, ``W``, the coefficients'
        copy, both tiers' prefix products — is the caller's or its
        ``take``'s: none shares memory with a buffer of the plan's scratch
        pool, which the next call of this size overwrites."""
        coeffs, halves = _ladder(rng, n)
        _, ctx = K.butterfly_apply(rng.normal(size=(2 * n, n // 2)), coeffs,
                                   halves, in_features=n // 2, out_features=n)
        kind, _, _, saved = ctx
        assert kind == "dense"
        plan = saved[0]

        def arrays(item):
            if isinstance(item, np.ndarray):
                yield item
            elif isinstance(item, (tuple, list)):
                for part in item:
                    yield from arrays(part)

        held = list(arrays(saved))
        scratch = list(plan._pool._tls.pool.values())
        assert held and scratch
        assert not any(np.shares_memory(a, b) for a in held for b in scratch)

    def test_fold_of_the_wrong_width_rejected(self, rng):
        coeffs, halves = _ladder(rng, 64)
        with pytest.raises(ValueError, match="expected input dim 16"):
            K.butterfly_apply(rng.normal(size=(3, 17)), coeffs, halves,
                              in_features=16, out_features=64)
