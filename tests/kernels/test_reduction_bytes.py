"""The decode step's reductions reach the ufuncs directly and keep every byte.

``residual_layer_norm_forward``, ``layer_norm_forward`` and
``attention_decode`` reduce through ``np.add.reduce`` /
``np.maximum.reduce`` and divide by the ``np.intp`` count with
``casting="unsafe"``; the norms take the variance as one ``np.vecdot``
of each centred row.  The oracles below are the same kernels spelled
with ``np.mean``, ``ndarray.max``, ``ndarray.sum`` and ``np.vecdot``'s
``keepdims``; every output (and every array a VJP context keeps) must
have their bytes, at float32 and float64, over the widths the models use
and a few that fold badly.  :class:`TestOnePassVariance` holds the
vecdot variance to a few ulp of the two-pass ``np.mean`` formula.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import mask_fill_value
from repro.nn.tensor import layer_norm_forward

WIDTHS = [1, 7, 32, 33, 128, 768]
LEADS = [(1, 1), (4, 1), (3,), (2, 5), (2, 1024)]
DTYPES = [np.float32, np.float64]
EPS = 1e-5


# ----------------------------------------------------------------------
# Oracles: the reductions spelled through numpy's Python wrappers.
# ----------------------------------------------------------------------
def residual_layer_norm_oracle(x, sub, gamma, beta, eps):
    """``(y, normed, inv)`` of ``layer_norm(x + sub)``."""
    h = x + sub
    h -= h.mean(axis=-1, keepdims=True)
    var = np.vecdot(h, h, keepdims=True) / h.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    h *= inv
    y = h * gamma
    y += beta
    return y, h, inv


def layer_norm_oracle(a, gamma, beta, eps):
    """``(y, normed, inv)``: the variance is ``sum(d * d) / n``, the sum
    one dot product per row."""
    normed = a - a.mean(axis=-1, keepdims=True)
    var = np.vecdot(normed, normed, keepdims=True)
    var /= a.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    normed *= inv
    y = normed * gamma
    y += beta
    return y, normed, inv


def attention_decode_oracle(q, k, v, lengths, scale):
    s = np.matmul(k, q[..., None])[..., 0]
    s *= scale
    t = k.shape[2]
    uniform = bool((lengths == lengths[0]).all())
    if not uniform or t > int(lengths[0]) + 1:
        invalid = np.arange(t)[None, :] > lengths[:, None]
        np.copyto(s, s.dtype.type(mask_fill_value(s.dtype)),
                  where=invalid[:, None, :])
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    ctx = np.matmul(p[:, :, None, :], v)[:, :, 0, :]
    ctx /= p.sum(axis=-1)[..., None]
    return ctx


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _rows(draw_lead, width, dtype, seed, count):
    rng = np.random.default_rng(seed)
    shape = draw_lead + (width,)
    # A shifted, scaled draw: the mean and the variance both carry bits.
    return [(rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
            for _ in range(count)]


#: Drawn cases stay under this many elements (the test's time budget);
#: the explicit examples take the (2, 1024, 768) corner.
MAX_DRAWN = 1 << 18

norm_cases = st.tuples(
    st.sampled_from(LEADS), st.sampled_from(WIDTHS), st.sampled_from(DTYPES),
    st.integers(0, 2**31 - 1),
).filter(lambda case: math.prod(case[0]) * case[1] <= MAX_DRAWN)


class TestLayerNorms:
    @settings(max_examples=20, deadline=None)
    @given(norm_cases)
    @example(((1, 1), 32, np.float32, 0))
    @example(((4, 1), 33, np.float64, 1))
    @example(((2, 1024), 768, np.float32, 2))
    def test_residual_layer_norm(self, case):
        lead, width, dtype, seed = case
        x, sub, gamma, beta = _rows(lead, width, dtype, seed, 4)
        gamma, beta = gamma.reshape(-1, width)[0], beta.reshape(-1, width)[0]
        want, normed, inv = residual_layer_norm_oracle(x, sub, gamma, beta, EPS)
        got, ctx = kernels.residual_layer_norm_forward(
            x, sub, gamma, beta, eps=EPS, need_ctx=False)
        assert ctx is None
        assert_same_bytes(got, want)
        out = np.full_like(want, np.nan)
        got, _ = kernels.residual_layer_norm_forward(
            x, sub, gamma, beta, eps=EPS, need_ctx=False, out=out)
        assert got is out
        assert_same_bytes(out, want)
        got, ctx = kernels.residual_layer_norm_forward(
            x, sub, gamma, beta, eps=EPS, need_ctx=True)
        assert_same_bytes(got, want)
        assert_same_bytes(ctx.normed, normed)
        assert_same_bytes(ctx.inv, inv)

    @settings(max_examples=20, deadline=None)
    @given(norm_cases)
    @example(((1, 1), 32, np.float32, 3))
    @example(((2, 1024), 768, np.float64, 4))
    def test_layer_norm(self, case):
        lead, width, dtype, seed = case
        a, gamma, beta = _rows(lead, width, dtype, seed, 3)
        gamma, beta = gamma.reshape(-1, width)[0], beta.reshape(-1, width)[0]
        want, normed, inv = layer_norm_oracle(a, gamma, beta, EPS)
        got, got_normed, got_inv = layer_norm_forward(a, gamma, beta, EPS)
        assert_same_bytes(got, want)
        assert_same_bytes(got_normed, normed)
        assert_same_bytes(got_inv, inv)
        out = np.full_like(want, np.nan)
        got, none, _ = layer_norm_forward(a, gamma, beta, EPS, out=out)
        assert got is out and none is None
        assert_same_bytes(out, want)

    def test_float16_is_refused(self):
        """``np.mean`` accumulates float16 in float32; a bare
        ``np.add.reduce`` would not, so the dtype is refused instead."""
        half = np.ones((2, 8), np.float16)
        gamma, beta = np.ones(8, np.float16), np.zeros(8, np.float16)
        with pytest.raises(TypeError, match="float16"):
            kernels.residual_layer_norm_forward(half, half, gamma, beta)
        with pytest.raises(TypeError, match="float16"):
            layer_norm_forward(half, gamma, beta)


class TestOnePassVariance:
    """The variance as one ``np.vecdot`` per centred row sums the squares
    in BLAS's order, not ``np.mean``'s pairwise one: in float64 it stays
    within :data:`VAR_ULP` ulp of the two-pass ``np.mean(np.square(d))``
    (4 measured over these rows), and the norms' ``inv`` within
    :data:`INV_ULP` (2 measured)."""

    VAR_ULP = 8
    INV_ULP = 4

    @pytest.mark.parametrize("width", WIDTHS + [4096])
    def test_within_a_few_ulp_of_the_two_pass_mean(self, width):
        for seed in range(8):
            a, sub = _rows((64,), width, np.float64, seed, 2)
            ones, zeros = np.ones(width), np.zeros(width)
            h = a + sub
            h -= h.mean(axis=-1, keepdims=True)
            two_pass = np.mean(np.square(h), axis=-1, keepdims=True)
            one_pass = np.vecdot(h, h, keepdims=True) / width
            assert (np.abs(one_pass - two_pass)
                    <= self.VAR_ULP * np.spacing(two_pass)).all()
            want = 1.0 / np.sqrt(two_pass + EPS)
            _, ctx = kernels.residual_layer_norm_forward(a, sub, ones, zeros, eps=EPS)
            _, _, inv = layer_norm_forward(a + sub, ones, zeros, EPS)
            for got in (ctx.inv, inv):
                assert (np.abs(got - want) <= self.INV_ULP * np.spacing(want)).all()


@st.composite
def decode_cases(draw):
    batch = draw(st.sampled_from([1, 2, 4]))
    heads = draw(st.sampled_from([1, 4]))
    t = draw(st.sampled_from(WIDTHS))
    d = draw(st.sampled_from([1, 8, 33]))
    kind = draw(st.sampled_from(["sliced", "capacity", "ragged"]))
    seed = draw(st.integers(0, 2**31 - 1))
    return batch, heads, t, d, kind, np.dtype(draw(st.sampled_from(DTYPES))), seed


class TestAttentionDecode:
    @settings(max_examples=30, deadline=None)
    @given(decode_cases())
    @example((1, 4, 32, 8, "sliced", np.dtype(np.float32), 0))
    @example((4, 4, 33, 8, "capacity", np.dtype(np.float64), 1))
    @example((4, 1, 768, 33, "ragged", np.dtype(np.float32), 2))
    @example((2, 1, 1, 1, "sliced", np.dtype(np.float64), 3))
    def test_uniform_and_ragged_lengths(self, case):
        batch, heads, t, d, kind, dtype, seed = case
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((batch, heads, d)).astype(dtype)
        k = rng.standard_normal((batch, heads, t, d)).astype(dtype)
        v = rng.standard_normal((batch, heads, t, d)).astype(dtype)
        if kind == "sliced":  # every row sees the whole view
            lengths = np.full(batch, t - 1)
        elif kind == "capacity":  # uniform, with stale slots past the tail
            lengths = np.full(batch, rng.integers(0, t))
        else:
            lengths = rng.integers(0, t, size=batch)
        scale = 1.0 / math.sqrt(d)
        want = attention_decode_oracle(q, k, v, lengths, scale)
        got = kernels.attention_decode(q, k, v, lengths=lengths, scale=scale)
        assert_same_bytes(got, want)
