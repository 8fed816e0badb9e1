"""Golden-parity tests for the fused query-tiled attention kernel.

Oracles:

* :func:`repro.kernels.attention_reference` — the one-shot composite
  softmax attention (seed semantics) that the tiled forward must
  reproduce, in every masking configuration and both policy dtypes;
* finite differences — the analytic one-node VJP must match numeric
  gradients for q, k and v (causal / non-causal / padding mask);
* the autograd wrapper :func:`repro.nn.scaled_dot_attention` checked
  through the shared ``gradcheck`` fixture.

``block`` is forced small in the hand-picked cases, so the backward's
key blocks and the causal forward's query tiles are many; the generated
cases (:class:`TestGeneratedShapes`) also shrink
:data:`~repro.kernels.attention.TILE_SCORES`, so every kind of tile —
query blocks, head runs, batch runs, and their ragged last ones — is
drawn on shapes a test can afford.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels as K
from repro import nn
from repro.kernels import attention as AK
from repro.nn.tensor import Tensor


def _qkv(rng, b=2, h=2, lq=7, lk=7, d=4, dtype=np.float64):
    return (
        rng.normal(size=(b, h, lq, d)).astype(dtype),
        rng.normal(size=(b, h, lk, d)).astype(dtype),
        rng.normal(size=(b, h, lk, d)).astype(dtype),
    )


class TestForwardParity:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("block", [2, 3, 64])
    def test_matches_reference(self, rng, dtype, atol, causal, block):
        q, k, v = _qkv(rng, dtype=dtype)
        out, _ = AK.attention_forward(q, k, v, causal=causal, block=block,
                                      need_ctx=False)
        ref = AK.attention_reference(q, k, v, causal=causal)
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out, ref, atol=atol)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_padding_mask(self, rng, dtype, atol):
        q, k, v = _qkv(rng, dtype=dtype)
        mask = rng.random((2, 7)) > 0.4
        mask[:, 0] = True  # keep at least one valid key per row
        out, _ = AK.attention_forward(q, k, v, key_mask=mask, block=3,
                                      need_ctx=False)
        ref = AK.attention_reference(q, k, v, key_mask=mask)
        np.testing.assert_allclose(out, ref, atol=atol)

    def test_masked_keys_get_exactly_zero_weight(self, rng):
        """Perturbing a masked key must not change the output at all."""
        q, k, v = _qkv(rng)
        mask = np.ones((2, 7), dtype=bool)
        mask[:, 5:] = False
        out, _ = AK.attention_forward(q, k, v, key_mask=mask, block=3,
                                      need_ctx=False)
        k2, v2 = k.copy(), v.copy()
        k2[:, :, 5:] += 100.0
        v2[:, :, 5:] -= 100.0
        out2, _ = AK.attention_forward(q, k2, v2, key_mask=mask, block=3,
                                       need_ctx=False)
        np.testing.assert_array_equal(out, out2)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("causal", [False, True])
    def test_context_logsumexp_is_the_reference_scores(self, rng, dtype, atol, causal):
        """``ctx.lse`` is assembled from the row max and the denominator
        the PV GEMM returns through V's ones column (the scale sits on
        the queries): it must still be the logsumexp of the scores
        :func:`attention_reference` builds, which the VJP recomputes from."""
        q, k, v = _qkv(rng, lq=9, lk=9, dtype=dtype)
        mask = rng.random((2, 9)) > 0.3
        mask[:, 0] = True
        _, ctx = AK.attention_forward(q, k, v, causal=causal, key_mask=mask,
                                      scale=0.3, block=4)
        s = np.matmul(q, k.swapaxes(-1, -2)).astype(np.float64) * 0.3
        s += AK.padding_bias(mask, np.float64)[:, None, None, :]
        if causal:
            s += AK.causal_bias(9, 9, np.float64)
        peak = s.max(axis=-1, keepdims=True)
        lse = (peak + np.log(np.exp(s - peak).sum(axis=-1, keepdims=True)))[..., 0]
        assert ctx.lse.dtype == np.dtype(dtype)
        np.testing.assert_allclose(ctx.lse, lse, atol=atol)

    def test_q_start_matches_per_row_recompute(self, rng):
        """Ragged causal continuation: each row equals its own full attention."""
        b, h, lq, d = 3, 2, 2, 4
        starts = np.array([5, 3, 0])
        lk = int(starts.max()) + lq
        q, k, v = _qkv(rng, b=b, h=h, lq=lq, lk=lk, d=d)
        out, _ = AK.attention_forward(q, k, v, causal=True, q_start=starts,
                                      block=3, need_ctx=False)
        for row, start in enumerate(starts):
            t = int(start) + lq
            ref = AK.attention_reference(
                q[row:row + 1], k[row:row + 1, :, :t], v[row:row + 1, :, :t],
                causal=True,
            )
            np.testing.assert_allclose(out[row], ref[0], atol=1e-12)

    def test_inconsistent_uniform_q_start_rejected(self, rng):
        q, k, v = _qkv(rng, lq=3, lk=8)
        with pytest.raises(ValueError, match="q_start"):
            AK.attention_forward(q, k, v, causal=True,
                                 q_start=np.array([2, 2]), need_ctx=False)

    def test_shape_validation(self, rng):
        q, k, v = _qkv(rng)
        with pytest.raises(ValueError, match="incompatible"):
            AK.attention_forward(q, k[:, :, :, :3], v, need_ctx=False)
        with pytest.raises(ValueError, match="B, H, L, D"):
            AK.attention_forward(q[0], k[0], v[0], need_ctx=False)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_a_fully_masked_key_row_is_the_mean_of_its_values(self, rng, dtype, atol):
        """A batch row whose every key is padding sees every key at the
        same (fill) score: its output is the mean of its values, and its
        logsumexp and gradients stay finite."""
        q, k, v = _qkv(rng, dtype=dtype)
        mask = np.ones((2, 7), dtype=bool)
        mask[1] = False
        out, ctx = AK.attention_forward(q, k, v, key_mask=mask, block=3)
        ref = AK.attention_reference(q, k, v, key_mask=mask)
        np.testing.assert_allclose(out, ref, atol=atol)
        np.testing.assert_allclose(
            out[1], np.broadcast_to(v[1].mean(axis=-2, keepdims=True), out[1].shape),
            atol=atol)
        assert np.isfinite(ctx.lse).all()
        for grad in AK.attention_vjp(np.ones_like(out), ctx):
            assert np.isfinite(grad).all()

    @pytest.mark.parametrize("causal", [False, True])
    def test_no_queries_give_an_empty_result(self, rng, causal):
        q, k, v = _qkv(rng, lq=0, lk=5)
        out, ctx = AK.attention_forward(q, k, v, causal=causal)
        assert out.shape == (2, 2, 0, 4) and ctx.lse.shape == (2, 2, 0)
        gq, gk, gv = AK.attention_vjp(out, ctx)
        assert gq.shape == q.shape
        np.testing.assert_array_equal(gk, 0)
        np.testing.assert_array_equal(gv, 0)

    def test_queries_over_no_keys_are_refused(self, rng):
        q, k, v = _qkv(rng, lq=3, lk=0)
        with pytest.raises(ValueError, match=(
                r"3 queries over no keys: q=\(2, 2, 3, 4\) k=\(2, 2, 0, 4\)")):
            AK.attention_forward(q, k, v)


@contextlib.contextmanager
def _tile_scores(n):
    """Scope :data:`TILE_SCORES` (the ``monkeypatch`` fixture would
    outlive a hypothesis example)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AK, "TILE_SCORES", n)
        yield


@st.composite
def _cases(draw, max_batch=4, ragged=True):
    """Operands, masking arguments and a tile budget that cuts them at
    odd places: ``Lq``/``Lk`` off the tile grid, ``H`` above and below a
    head run, causal suffixes (``Lk > Lq``), ragged ``q_start``, padding
    masks with fully padded tails."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    b, h = draw(st.integers(1, max_batch)), draw(st.integers(1, 5))
    lq, d = draw(st.integers(1, 12)), draw(st.sampled_from([1, 3, 8]))
    causal = draw(st.booleans())
    lk = lq + draw(st.integers(0, 9)) if causal else draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v = _qkv(rng, b=b, h=h, lq=lq, lk=lk, d=d, dtype=dtype)
    kwargs = dict(causal=causal, block=draw(st.sampled_from([1, 2, 5, 128])))
    if causal and ragged and draw(st.booleans()):
        starts = rng.integers(0, lk - lq + 1, size=b)
        starts[rng.integers(b)] = lk - lq  # some row fills the key axis
        kwargs["q_start"] = starts
    if draw(st.booleans()):
        mask = rng.random((b, lk)) > 0.3
        for row in range(b):
            mask[row, rng.integers(1, lk + 1):] = False  # padded tail
        mask[:, 0] = True  # every query keeps one visible key
        kwargs["key_mask"] = mask
    budget = draw(st.sampled_from([1, 7, 16, 40, 128, 1 << 17]))
    return q, k, v, kwargs, budget


class TestGeneratedShapes:
    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_forward_matches_reference(self, case):
        q, k, v, kwargs, budget = case
        with _tile_scores(budget):
            out, ctx = AK.attention_forward(q, k, v, **kwargs)
        ref = AK.attention_reference(
            q, k, v, **{key: kwargs[key] for key in kwargs if key != "block"})
        assert out.dtype == ref.dtype == q.dtype
        atol = 1e-12 if q.dtype == np.float64 else 1e-5
        np.testing.assert_allclose(out, ref, atol=atol)
        scores = np.matmul(q, k.swapaxes(-1, -2)) * ctx.scale
        for bias, lift in ((ctx.bias2d, np.s_[:]), (ctx.bias3d, np.s_[:, None]),
                           (ctx.kbias, np.s_[:, None, None])):
            if bias is not None:
                scores = scores + bias[lift]
        np.testing.assert_allclose(
            ctx.lse, np.logaddexp.reduce(scores, axis=-1), atol=100 * atol)

    @settings(max_examples=40, deadline=None)
    @given(_cases(max_batch=2), st.integers(0, 2**32 - 1))
    def test_vjp_of_the_tiled_context_matches_finite_differences(
            self, case, seed):
        q, k, v, kwargs, budget = case
        q, k, v = (a.astype(np.float64) for a in (q, k, v))
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=q.shape)
        with _tile_scores(budget):
            _, ctx = AK.attention_forward(q, k, v, **kwargs)
            grads = AK.attention_vjp(weights, ctx)

            def loss():
                out, _ = AK.attention_forward(q, k, v, need_ctx=False, **kwargs)
                return float((out * weights).sum())

            eps = 1e-6
            for arr, grad in zip((q, k, v), grads):
                flat = arr.reshape(-1)
                for i in rng.integers(flat.size, size=3):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = loss()
                    flat[i] = orig - eps
                    lo = loss()
                    flat[i] = orig
                    assert abs((hi - lo) / (2 * eps) - grad.reshape(-1)[i]) < 1e-5

    @settings(max_examples=100, deadline=None)
    @given(_cases(ragged=False))
    def test_a_row_is_bitwise_its_solo_run(self, case):
        """The tile schedule follows ``(H, Lq, Lk)``, never ``B``: a row's
        bits do not depend on who shares its batch."""
        q, k, v, kwargs, budget = case
        mask = kwargs.pop("key_mask", None)
        with _tile_scores(budget):
            out, ctx = AK.attention_forward(q, k, v, key_mask=mask, **kwargs)
            for row in range(q.shape[0]):
                one = slice(row, row + 1)
                solo, solo_ctx = AK.attention_forward(
                    q[one], k[one], v[one],
                    key_mask=None if mask is None else mask[one], **kwargs)
                np.testing.assert_array_equal(out[one], solo)
                np.testing.assert_array_equal(ctx.lse[one], solo_ctx.lse)

    @settings(max_examples=100, deadline=None)
    @given(_cases(ragged=False), st.integers(0, 2**32 - 1))
    def test_a_rows_gradients_are_bitwise_its_solo_run(self, case, seed):
        """The VJP walks the forward's tiles: a row's gradients do not
        depend on who shares its batch either."""
        q, k, v, kwargs, budget = case
        mask = kwargs.pop("key_mask", None)
        weights = np.random.default_rng(seed).normal(size=q.shape).astype(q.dtype)
        with _tile_scores(budget):
            _, ctx = AK.attention_forward(q, k, v, key_mask=mask, **kwargs)
            grads = AK.attention_vjp(weights, ctx)
            for row in range(q.shape[0]):
                one = slice(row, row + 1)
                _, solo_ctx = AK.attention_forward(
                    q[one], k[one], v[one],
                    key_mask=None if mask is None else mask[one], **kwargs)
                for grad, solo in zip(grads, AK.attention_vjp(weights[one], solo_ctx)):
                    np.testing.assert_array_equal(grad[one], solo)

    @settings(max_examples=60, deadline=None)
    @given(_cases(max_batch=3), st.integers(0, 2**32 - 1))
    def test_vjp_matches_the_composite_graph(self, case, seed):
        """fp64 gradients at 1e-12 of the op-by-op graph (matmul, bias
        adds, softmax, matmul) recorded under ``use_fused(False)``."""
        q, k, v, kwargs, budget = case
        q, k, v = (a.astype(np.float64) for a in (q, k, v))
        weights = np.random.default_rng(seed).normal(size=q.shape)
        with _tile_scores(budget):
            _, ctx = AK.attention_forward(q, k, v, **kwargs)
            grads = AK.attention_vjp(weights, ctx)
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        qt, kt, vt = leaves
        with K.use_fused(False):
            scores = nn.matmul(qt, nn.transpose(kt, (0, 1, 3, 2))) * ctx.scale
            for bias, lift in ((ctx.bias2d, np.s_[:]), (ctx.bias3d, np.s_[:, None]),
                               (ctx.kbias, np.s_[:, None, None])):
                if bias is not None:
                    scores = scores + Tensor(bias[lift])
            out = nn.matmul(nn.softmax(scores, axis=-1), vt)
            (out * Tensor(weights)).sum().backward()
        for grad, leaf in zip(grads, leaves):
            np.testing.assert_allclose(grad, leaf.grad, rtol=0, atol=1e-12)

    def test_causal_with_more_queries_than_keys_rejected(self, rng):
        q, k, v = _qkv(rng, lq=6, lk=4)
        with pytest.raises(ValueError, match="6 queries over 4 keys"):
            AK.attention_forward(q, k, v, causal=True)

    @pytest.mark.parametrize("geometry,cap,tile", [
        ((4, 1024, 1024), 1024, (1, 1, 128)),   # a block of one head's queries
        ((4, 1024, 1024), 64, (1, 2, 64)),      # capped (causal): 2 heads fit
        ((4, 256, 256), 128, (1, 4, 128)),
        ((8, 128, 256), 128, (1, 4, 128)),      # a run of whole heads
        ((4, 32, 32), 32, (32, 4, 32)),         # a run of whole batch rows
        ((4, 32, 32), 128, (32, 4, 32)),
        ((1, 1, 1 << 20), 1, (1, 1, 1)),        # a key row beyond the budget
    ])
    def test_tile_shape(self, geometry, cap, tile):
        assert AK._tile_shape(*geometry, cap) == tile


#: Per-row score lifts, in units of the dtype's ``log(finfo.max)`` (88.7
#: in fp32, 709.8 in fp64): above 1 an unshifted ``exp`` overflows, near
#: -0.8 a row's denominator crosses the check's floor, below -1 every
#: term underflows.
_LIFTS = (-1.6, -1.05, -0.85, -0.78, -0.4, 0.0, 0.6, 0.97, 1.03, 1.5)


def _lifted(q, k, v, kwargs, budget, lifts):
    """The case with query row ``(b, h, i)``'s scores lifted by
    ``lifts[b, h, i] * log(finfo.max)``, carried by a ones column on the
    keys.  Operands are multiples of 1/4 and the scale is 1/2, so every
    score is exact in either dtype and in either association: the
    kernel and the oracles differ only in their exps and sums."""
    dtype = q.dtype
    lift = np.round(lifts * np.log(np.finfo(dtype).max) * 4) / 4
    quarters = [np.round(a * 4) / 4 for a in (q, k)]
    q = np.concatenate([quarters[0], 2 * lift[..., None]], axis=-1)
    k = np.concatenate([quarters[1], np.ones((*k.shape[:3], 1))], axis=-1)
    v = np.concatenate([v, v[..., :1]], axis=-1)
    return (*(a.astype(dtype) for a in (q, k, v)), dict(kwargs, scale=0.5),
            budget)


@st.composite
def _lifted_cases(draw, dtype=None, **cases):
    """:func:`_cases` with every row lifted by one of :data:`_LIFTS`, so a
    tile mixes overflowing, underflowing and ordinary rows; about half the
    batch rows stay unlifted, so a tile of whole batch rows also puts rows
    that pass alone beside rows that fail."""
    q, k, v, kwargs, budget = draw(_cases(**cases))
    if dtype is not None:
        q, k, v = (a.astype(dtype) for a in (q, k, v))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lifts = rng.choice(_LIFTS, size=q.shape[:3])
    lifts[rng.random(q.shape[0]) < 0.5] = 0.0
    return _lifted(q, k, v, kwargs, budget, lifts)


def _one_lifted_row(dtype):
    """Two batch rows of two queries over three keys, one tile: row 0's
    first query lifted past fp32's overflow (scores above 89), the
    other three queries not."""
    q, k, v = _qkv(np.random.default_rng(0), b=2, h=1, lq=2, lk=3, d=2,
                   dtype=dtype)
    top = 89.5 / np.log(np.finfo(dtype).max)
    return _lifted(q, k, v, dict(causal=False, block=64), 1 << 17,
                   np.array([[[top, 0.0]], [[0.0, 0.0]]]))


@contextlib.contextmanager
def _fallbacks():
    """Count the tiles whose unshifted pass fails its check."""
    failed = []
    check = AK._unshifted_is_exact

    def recorded(pv, floor):
        exact = check(pv, floor)
        failed.append(not exact)
        return exact

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AK, "_unshifted_is_exact", recorded)
        yield failed


def _scores(q, k, ctx):
    """The masked scaled scores the kernel exponentiates (exact here)."""
    scores = np.matmul(q, k.swapaxes(-1, -2)) * ctx.scale
    for bias, lift in ((ctx.bias2d, np.s_[:]), (ctx.bias3d, np.s_[:, None]),
                       (ctx.kbias, np.s_[:, None, None])):
        if bias is not None:
            scores = scores + bias[lift]
    return scores


def _must_fall_back(scores):
    """Whether some row's unshifted pass cannot pass the check: its peak
    overflows ``exp``, or its denominator (at most ``n * exp(peak)``)
    lies below the floor ``n * tiny / eps``.  One unit of margin each."""
    info = np.finfo(scores.dtype)
    peak = scores.max(axis=-1)
    return bool((peak > np.log(info.max) + 1).any()
                or (peak < np.log(info.tiny / info.eps) - 1).any())


class TestUnshiftedCheck:
    """The forward exponentiates scores unshifted and recomputes, shifted,
    only the tiles whose PV block fails the check; these rows straddle
    it (:data:`_LIFTS`)."""

    @settings(max_examples=60, deadline=None)
    @given(_lifted_cases(ragged=False))
    @example(_one_lifted_row(np.float32))
    @example(_one_lifted_row(np.float64))
    def test_lifted_rows_match_the_reference_and_their_solo_runs(self, case):
        q, k, v, kwargs, budget = case
        with _tile_scores(budget), _fallbacks() as failed:
            out, ctx = AK.attention_forward(q, k, v, **kwargs)
        scores = _scores(q, k, ctx)
        assert any(failed) or not _must_fall_back(scores)
        ref = AK.attention_reference(
            q, k, v, **{key: kwargs[key] for key in kwargs if key != "block"})
        atol = 1e-12 if q.dtype == np.float64 else 1e-5
        np.testing.assert_allclose(out, ref, atol=atol)
        np.testing.assert_allclose(
            ctx.lse, np.logaddexp.reduce(scores, axis=-1), atol=100 * atol)
        mask = kwargs.pop("key_mask", None)
        with _tile_scores(budget):
            for row in range(q.shape[0]):
                one = slice(row, row + 1)
                solo, solo_ctx = AK.attention_forward(
                    q[one], k[one], v[one],
                    key_mask=None if mask is None else mask[one], **kwargs)
                np.testing.assert_array_equal(out[one], solo)
                np.testing.assert_array_equal(ctx.lse[one], solo_ctx.lse)

    def test_a_shifted_fp32_row_errs_by_eps_of_its_shifted_scores(self):
        """A float32 row under the check's floor (scores near -93, exact
        quarters) is recomputed in natural units and scaled by ``log2 e``
        after its shift.  With the factor folded into the queries, each
        score errs by ``|s| * eps``, which puts this output 1.4e-5 off."""
        q = np.array([[[[1.75, 0.0, -186.5]]]], dtype=np.float32)
        k = np.array([[[[0.25, -0.5, 1.0], [-0.25, 0.75, 1.0],
                        [-1.75, 0.0, 1.0], [-0.75, -0.5, 1.0]]]], dtype=np.float32)
        v = np.array([[[[3.0, 3.0, 3.0], [3.0, -3.0, -3.0],
                        [3.0, -3.0, -3.0], [-3.0, -3.0, 3.0]]]], dtype=np.float32)
        with _fallbacks() as failed:
            out, ctx = AK.attention_forward(q, k, v, scale=0.5)
        assert failed == [True]
        np.testing.assert_allclose(
            out, AK.attention_reference(q, k, v, scale=0.5), atol=1e-5)
        np.testing.assert_allclose(
            ctx.lse, np.logaddexp.reduce(_scores(q, k, ctx), axis=-1), atol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(_lifted_cases(dtype=np.float64, max_batch=3), st.integers(0, 2**32 - 1))
    @example(_one_lifted_row(np.float64), 0)
    def test_vjp_of_lifted_rows_matches_the_composite_graph(self, case, seed):
        """fp64 gradients at 1e-12 of the op-by-op graph, whose softmax
        subtracts the row max, on rows the forward had to shift.  The
        lift column is the test's device: ``dK`` there sums ``dS * 2 *
        lift`` over rows whose lifts reach 1e3 and cancel, so it is held
        to 1e-12 per unit of the largest lift."""
        q, k, v, kwargs, budget = case
        weights = np.random.default_rng(seed).normal(size=q.shape)
        with _tile_scores(budget), _fallbacks() as failed:
            _, ctx = AK.attention_forward(q, k, v, **kwargs)
            grads = AK.attention_vjp(weights, ctx)
        assert any(failed) or not _must_fall_back(_scores(q, k, ctx))
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        qt, kt, vt = leaves
        with K.use_fused(False):
            scores = nn.matmul(qt, nn.transpose(kt, (0, 1, 3, 2))) * ctx.scale
            for bias, lift in ((ctx.bias2d, np.s_[:]), (ctx.bias3d, np.s_[:, None]),
                               (ctx.kbias, np.s_[:, None, None])):
                if bias is not None:
                    scores = scores + Tensor(bias[lift])
            out = nn.matmul(nn.softmax(scores, axis=-1), vt)
            (out * Tensor(weights)).sum().backward()
        for grad, leaf in zip(grads, leaves):
            np.testing.assert_allclose(grad[..., :-1], leaf.grad[..., :-1],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad[..., -1], leaf.grad[..., -1], rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(q[..., -1]).max()))


def _peaked_rows(peaks, dtype):
    """One query row per peak over two keys, scores ``(peak, peak - 40)``
    exactly (quarters, ``scale`` 1/2), values small enough that a PV
    block under the overflow edge cannot overflow its sum."""
    peaks = np.round(np.asarray(peaks) * 4) / 4
    b = len(peaks)
    q = np.stack([2 * peaks, np.full(b, -80.0)], axis=-1)[:, None, None, :]
    k = np.broadcast_to([[1.0, 0.0], [1.0, 1.0]], (b, 1, 2, 2))
    v = np.broadcast_to([[0.125, 0.0], [-0.125, 0.0]], (b, 1, 2, 2))
    return peaks, [np.ascontiguousarray(a, dtype=dtype) for a in (q, k, v)]


class TestExp2Thresholds:
    """float32 exponentiates ``exp2(s * log2 e)`` (``softmax_exp``): rows
    at the edges of :func:`_unshifted_is_exact` take exactly the
    recompute that natural-log thresholds predict."""

    def test_softmax_exp_is_read_off_the_dtype(self):
        assert AK.softmax_exp(np.float32) == (np.exp2, K.dtype.LOG2E)
        assert AK.softmax_exp(np.float64) == (np.exp, 1.0)
        assert np.exp2(np.float64(K.dtype.LOG2E)) == np.float64(np.e)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_take_the_predicted_recompute(self, dtype):
        info = np.finfo(dtype)
        top, floor = np.log(info.max), np.log(info.tiny / info.eps)
        # Outside _must_fall_back's one-unit margins, and tight around
        # the edges themselves: overflow past log(max), a denominator
        # under the floor 2 * tiny / eps (two keys) below log(2 tiny/eps).
        for peaks, fails in (
            ((top + 1.5, top - 1.5, floor + 1.5, floor - 1.5), None),
            ((top + 0.25, top - 0.25), lambda p: p > top),
            ((floor + np.log(2) + 0.25, floor + np.log(2) - 0.25),
             lambda p: p < floor + np.log(2)),
        ):
            peaks, (q, k, v) = _peaked_rows(peaks, dtype)
            kwargs = dict(scale=0.5)
            for row, peak in enumerate(peaks):
                one = slice(row, row + 1)
                with _fallbacks() as failed:
                    solo, ctx = AK.attention_forward(q[one], k[one], v[one], **kwargs)
                scores = _scores(q[one], k[one], ctx)
                assert scores.max() == peak
                predicted = _must_fall_back(scores) if fails is None else fails(peak)
                assert failed[0] == predicted, (dtype, peak)
            with _fallbacks():
                out, ctx = AK.attention_forward(q, k, v, **kwargs)
            scores = _scores(q, k, ctx)
            ref = AK.attention_reference(q, k, v, **kwargs)
            atol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(out, ref, atol=atol)
            np.testing.assert_allclose(
                ctx.lse, np.logaddexp.reduce(scores, axis=-1), rtol=atol, atol=0)
            for row in range(len(peaks)):  # the batch is one tile
                one = slice(row, row + 1)
                solo, solo_ctx = AK.attention_forward(q[one], k[one], v[one], **kwargs)
                assert out[one].tobytes() == solo.tobytes()
                assert ctx.lse[one].tobytes() == solo_ctx.lse.tobytes()


class TestBiasCache:
    def test_causal_bias_cached_by_geometry_and_dtype(self):
        a = K.causal_bias(8, 8, np.float64)
        assert K.causal_bias(8, 8, np.float64) is a  # cache hit, no rebuild
        assert K.causal_bias(8, 8, np.float32) is not a
        assert K.causal_bias(8, 8, np.float32).dtype == np.float32

    def test_causal_bias_suffix_convention(self):
        bias = K.causal_bias(2, 5, np.float64)
        fill = K.mask_fill_value(np.float64)
        # query 0 sits at absolute position 3: sees keys 0..3
        np.testing.assert_array_equal(bias[0], [0, 0, 0, 0, fill])
        np.testing.assert_array_equal(bias[1], [0, 0, 0, 0, 0])

    def test_eviction_is_lru_not_fifo(self):
        """A hot entry refreshed by hits must survive cache-cap eviction."""
        AK._BIAS_CACHE.clear()
        hot = K.causal_bias(3, 3, np.float64)
        for total in range(4, 4 + AK._BIAS_CACHE_MAX - 1):
            K.causal_bias(1, total, np.float64)
            K.causal_bias(3, 3, np.float64)  # touch the hot entry
        K.causal_bias(2, 2, np.float64)  # overflows the cap; evicts LRU
        assert K.causal_bias(3, 3, np.float64) is hot

    def test_mask_fill_is_dtype_aware(self):
        for dt in (np.float32, np.float64):
            fill = K.mask_fill_value(dt)
            assert np.isfinite(np.dtype(dt).type(fill))
            assert np.exp(np.dtype(dt).type(fill)) == 0.0


class TestGradients:
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_finite_difference_parity_float64(self, rng, gradcheck, causal, masked):
        q, k, v = _qkv(rng, b=1, h=2, lq=5, lk=5, d=3)
        mask = None
        if masked:
            mask = np.ones((1, 5), dtype=bool)
            mask[:, 3:] = False
        gradcheck(
            lambda qt, kt, vt: nn.scaled_dot_attention(
                qt, kt, vt, causal=causal, key_mask=mask, block=2
            ),
            q, k, v,
        )

    def test_finite_difference_parity_float32(self, rng):
        """float32 VJP vs float64 finite differences of the same function."""
        with K.default_dtype("float32"):
            q, k, v = _qkv(rng, b=1, h=1, lq=4, lk=4, d=3, dtype=np.float32)
            out, ctx = AK.attention_forward(q, k, v, causal=True, block=2)
            assert out.dtype == np.float32
            gq, gk, gv = AK.attention_vjp(np.ones_like(out), ctx)
        q64, k64, v64 = (a.astype(np.float64) for a in (q, k, v))

        def loss(q_, k_, v_):
            o, _ = AK.attention_forward(q_, k_, v_, causal=True, block=2,
                                        need_ctx=False)
            return float(o.sum())

        eps = 1e-4
        for arr, grad, name in ((q64, gq, "q"), (k64, gk, "k"), (v64, gv, "v")):
            flat = arr.reshape(-1)
            idxs = [0, flat.size // 2, flat.size - 1]
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss(q64, k64, v64)
                flat[i] = orig - eps
                lo = loss(q64, k64, v64)
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(fd - grad.reshape(-1)[i]) < 5e-3, name

    def test_q_start_vjp_matches_finite_difference(self, rng):
        starts = np.array([3, 1])
        q, k, v = _qkv(rng, b=2, h=1, lq=2, lk=5, d=3)
        qt = Tensor(q, requires_grad=True)
        kt = Tensor(k, requires_grad=True)
        vt = Tensor(v, requires_grad=True)
        out = nn.scaled_dot_attention(qt, kt, vt, causal=True, q_start=starts,
                                      block=2)
        (out * out).sum().backward()

        def loss(q_, k_, v_):
            o, _ = AK.attention_forward(q_, k_, v_, causal=True,
                                        q_start=starts, block=2, need_ctx=False)
            return float((o * o).sum())

        eps = 1e-6
        for arr, grad in ((q, qt.grad), (k, kt.grad), (v, vt.grad)):
            flat = arr.reshape(-1)
            for i in (0, flat.size // 3, flat.size - 1):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss(q, k, v)
                flat[i] = orig - eps
                lo = loss(q, k, v)
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(fd - grad.reshape(-1)[i]) < 1e-5

    def test_single_graph_node(self, rng):
        """The fused op records exactly one backward node over (q, k, v)."""
        q, k, v = _qkv(rng, b=1, h=1, lq=4, lk=4, d=3)
        qt = Tensor(q, requires_grad=True)
        kt = Tensor(k, requires_grad=True)
        vt = Tensor(v, requires_grad=True)
        out = nn.scaled_dot_attention(qt, kt, vt, causal=True)
        assert out._parents == (qt, kt, vt)

    def test_no_ctx_outside_grad(self, rng):
        q, k, v = _qkv(rng)
        with nn.no_grad():
            out = nn.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        assert out._parents == ()


class TestDecodeFastPath:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_uniform_lengths(self, rng, dtype, atol):
        b, h, t, d = 3, 2, 6, 4
        k = rng.normal(size=(b, h, t, d)).astype(dtype)
        v = rng.normal(size=(b, h, t, d)).astype(dtype)
        q = rng.normal(size=(b, h, d)).astype(dtype)
        lengths = np.full(b, t - 1)
        out = AK.attention_decode(q, k, v, lengths=lengths)
        ref = AK.attention_reference(q[:, :, None], k, v)[:, :, 0]
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out, ref, atol=atol)

    def test_ragged_lengths_match_per_row_truncation(self, rng):
        b, h, d = 3, 2, 4
        lengths = np.array([5, 2, 0])
        t = int(lengths.max()) + 1
        k = rng.normal(size=(b, h, t, d))
        v = rng.normal(size=(b, h, t, d))
        q = rng.normal(size=(b, h, d))
        out = AK.attention_decode(q, k, v, lengths=lengths)
        for row, n in enumerate(lengths):
            ref = AK.attention_reference(
                q[row:row + 1, :, None], k[row:row + 1, :, :n + 1],
                v[row:row + 1, :, :n + 1],
            )
            np.testing.assert_allclose(out[row], ref[0, :, 0], atol=1e-12)

    def test_garbage_in_padded_slots_cannot_poison_softmax(self, rng):
        """Stale values in padded cache slots (finite by the KV cache's
        zeros-born buffer invariant, but arbitrarily large) must not
        reach the softmax max or denominator.  Scores from padded slots
        are overwritten before the row max, so even NaN *key* garbage is
        neutralized; stale value-side entries get weight exactly 0."""
        b, h, d = 2, 2, 4
        lengths = np.array([5, 2])
        t = int(lengths.max()) + 1
        k = rng.normal(size=(b, h, t, d))
        v = rng.normal(size=(b, h, t, d))
        q = rng.normal(size=(b, h, d))
        clean = AK.attention_decode(q, k, v, lengths=lengths)
        k2, v2 = k.copy(), v.copy()
        k2[1, :, 3:-1] = 1e5 * np.sign(q[1, :, None])  # dominates valid scores
        k2[1, :, -1] = np.nan
        v2[1, :, 3:] = 1e30
        poisoned = AK.attention_decode(q, k2, v2, lengths=lengths)
        assert np.isfinite(poisoned).all()
        np.testing.assert_array_equal(clean, poisoned)

    def test_uniform_lengths_with_unsliced_capacity_view(self, rng):
        """A capacity-sized (unsliced) cache view must still mask the
        stale tail, even when every row has the same length."""
        b, h, d, cap = 2, 2, 4, 10
        lengths = np.full(b, 5)
        k = rng.normal(size=(b, h, cap, d))
        v = rng.normal(size=(b, h, cap, d))
        k[:, :, 6:] = 1e5  # stale garbage past the visible prefix
        q = rng.normal(size=(b, h, d))
        full_view = AK.attention_decode(q, k, v, lengths=lengths)
        sliced = AK.attention_decode(q, k[:, :, :6], v[:, :, :6],
                                     lengths=lengths)
        np.testing.assert_allclose(full_view, sliced, atol=1e-12)

    def test_rejects_batched_query_axis(self, rng):
        with pytest.raises(ValueError, match="B, H, D"):
            AK.attention_decode(rng.normal(size=(2, 2, 1, 4)),
                                rng.normal(size=(2, 2, 5, 4)),
                                rng.normal(size=(2, 2, 5, 4)))


class TestExpectedMacs:
    def test_closed_form(self):
        assert K.expected_macs(4, 6, 8) == {
            "qk_macs": 4 * 6 * 8, "sv_macs": 4 * 6 * 8, "softmax_elems": 4 * 6,
        }


@contextlib.contextmanager
def _lane_floor(n):
    """Scope :data:`~repro.kernels.attention.LANE_MIN_SCORES`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AK, "LANE_MIN_SCORES", n)
        yield


def _forward_and_grads(q, k, v, kwargs, weights):
    out, ctx = AK.attention_forward(q, k, v, **kwargs)
    return (out.copy(), ctx.lse.copy(),
            *(g.copy() for g in AK.attention_vjp(weights, ctx)))


@st.composite
def _lane_cases(draw):
    """:func:`_lifted_cases` (rows in and out of the shifted recompute,
    either dtype, causal suffixes, ragged starts, padding masks, ``Lq !=
    Lk``) cut to ``B * H <= 6``, with the gradient weights."""
    q, k, v, kwargs, budget = draw(_lifted_cases(max_batch=3))
    heads = max(1, 6 // q.shape[0])
    q, k, v = (a[:, :heads].copy() for a in (q, k, v))
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=q.shape).astype(q.dtype)
    return q, k, v, kwargs, budget, weights


#: `repro serve`'s tiny butterfly decoder (``serve_open``, ``http_stream``).
_SERVE_DECODER = dict(vocab_size=28, n_classes=2, max_len=128, d_hidden=32,
                      n_heads=4, r_ffn=2, n_total=2, seed=0)


class TestLanes:
    """Query tiles (forward) and runs of heads (VJP) are items the caller
    and one helper lane pull from one counter: every byte is the one-lane
    call's, a failure reaches the caller, and shapes under
    :data:`~repro.kernels.attention.LANE_MIN_SCORES` never wake the lane."""

    @settings(max_examples=80, deadline=None)
    @given(_lane_cases())
    def test_two_lanes_are_the_one_lane_bytes(self, case):
        q, k, v, kwargs, budget, weights = case
        with _tile_scores(budget):
            with _lane_floor(1 << 62):
                alone = _forward_and_grads(q, k, v, kwargs, weights)
            with _lane_floor(0):
                shared = _forward_and_grads(q, k, v, kwargs, weights)
        for got, want in zip(shared, alone):
            assert got.tobytes() == want.tobytes()

    def test_the_helper_runs_items(self):
        """Items 0 and 1 meet at a barrier, so each lane holds one."""
        meet = threading.Barrier(2, timeout=60)
        lanes = {}

        def item(i):
            if i < 2:
                meet.wait()
            lanes[i] = threading.get_ident()

        AK._run_items(6, AK.LANE_MIN_SCORES, item)
        assert sorted(lanes) == list(range(6))
        assert lanes[0] != lanes[1]
        assert threading.get_ident() in (lanes[0], lanes[1])

    def test_every_item_runs_once_under_fast_switching(self):
        """The shared counter hands each item to exactly one lane, with
        the interpreter switching threads every microsecond and three
        callers contending for the one lane."""
        ran = [[] for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller(c):
                for rep in range(5):
                    AK._run_items(80, AK.LANE_MIN_SCORES,
                                  lambda i: ran[c].append(80 * rep + i))

            threads = [threading.Thread(target=caller, args=(c,)) for c in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for items in ran:
            assert sorted(items) == list(range(400))

    def test_a_helper_failure_reaches_the_caller(self, rng):
        """The helper's first item raises once both lanes have one; the
        caller re-raises it after the helper stops, and the next call
        gives the one-lane bytes."""
        q, k, v = _qkv(rng, b=1, h=4, lq=512, lk=512, d=8, dtype=np.float32)
        assert 4 * 512 * 512 >= AK.LANE_MIN_SCORES
        with _lane_floor(1 << 62):
            want, _ = AK.attention_forward(q, k, v, need_ctx=False)
        caller, check = threading.get_ident(), AK._unshifted_is_exact
        meet, met = threading.Barrier(2, timeout=60), set()

        def failing(pv, floor):
            if threading.get_ident() not in met:
                met.add(threading.get_ident())
                meet.wait()
            if threading.get_ident() != caller:
                raise RuntimeError("helper lane item")
            return check(pv, floor)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AK, "_unshifted_is_exact", failing)
            with pytest.raises(RuntimeError, match="helper lane item"):
                AK.attention_forward(q, k, v, need_ctx=False)
        got, _ = AK.attention_forward(q, k, v, need_ctx=False)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,build,config,batch,prompt", [
        # serve_open / http_stream: up to four prompts of up to 32 tokens,
        # and a window at max_len.
        ("serve_open", "build_butterfly_decoder", _SERVE_DECODER, 4, 32),
        ("serve_open_window", "build_butterfly_decoder", _SERVE_DECODER, 4, 127),
        # decode_int8: a dense fp32 decoder, waves of eight 16-token prompts.
        ("decode_int8", "build_dense_decoder",
         dict(vocab_size=256, n_classes=2, max_len=96, d_hidden=512, n_heads=8,
              r_ffn=4, n_total=2, dtype="float32", seed=0), 8, 16),
    ])
    def test_serving_prefill_never_wakes_the_lane(
            self, rng, name, build, config, batch, prompt):
        from repro import models

        cfg = models.ModelConfig(**config)
        with cfg.dtype_context():
            model = getattr(models, build)(cfg).eval()
        calls = []
        run_items = AK._run_items

        def spy(count, scores, item):
            calls.append(scores)
            return run_items(count, scores, item)

        def refuse():
            raise AssertionError(f"{name} started the helper lane")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AK, "_run_items", spy)
            patch.setattr(AK, "_helper", refuse)
            cache = model.make_cache(batch)
            tokens = rng.integers(1, cfg.vocab_size, size=(batch, prompt + 1))
            model.prefill(tokens[:, :prompt], cache)
            model.decode_step(tokens[:, prompt], cache)
        assert calls and max(calls) < AK.LANE_MIN_SCORES

    def test_encoder_and_training_step_are_the_one_lane_bytes(self):
        """A FABNet forward and a training step's loss and gradients at
        ``L`` 512, batch 2 (above the floor), against the floor raised."""
        from repro.models import ModelConfig, build_fabnet

        cfg = ModelConfig(vocab_size=32, n_classes=2, max_len=512, d_hidden=64,
                          n_heads=4, r_ffn=2, n_total=2, n_abfly=1,
                          dtype="float32", seed=0)
        tokens = np.random.default_rng(0).integers(0, 32, size=(2, 512))
        assert 2 * 4 * 512 * 512 >= AK.LANE_MIN_SCORES

        def run():
            model = build_fabnet(cfg)
            with cfg.dtype_context():
                with nn.no_grad():
                    logits = model.eval()(tokens).data.copy()
                model.train()
                loss = nn.cross_entropy_logits(model(tokens), np.array([0, 1]))
                loss.backward()
            return [logits, loss.data] + [p.grad for p in model.parameters()]

        shared = run()
        with _lane_floor(1 << 62):
            alone = run()
        for got, want in zip(shared, alone):
            assert got.tobytes() == want.tobytes()
