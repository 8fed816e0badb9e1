"""Property-based tests (hypothesis) for the butterfly/FFT core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly import (
    ButterflyMatrix,
    bit_reversal_permutation,
    fft_butterfly,
    pair_indices,
    stage_halves,
)
from repro.hardware.functional.memory import bank_of, popcount

sizes = st.sampled_from([2, 4, 8, 16, 32, 64])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(n=sizes, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_butterfly_apply_equals_dense(n, seed):
    rng = np.random.default_rng(seed)
    matrix = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=n)
    np.testing.assert_allclose(matrix.apply(x), matrix.dense() @ x, atol=1e-8)


@given(n=sizes, seed=seeds, alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_butterfly_linearity(n, seed, alpha, beta):
    rng = np.random.default_rng(seed)
    matrix = ButterflyMatrix.random(n, rng)
    x, y = rng.normal(size=n), rng.normal(size=n)
    lhs = matrix.apply(alpha * x + beta * y)
    rhs = alpha * matrix.apply(x) + beta * matrix.apply(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


@given(n=sizes, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_fft_matches_numpy(n, seed):
    """The twiddle stages on the bit-reversed input are the DFT."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    got = fft_butterfly(n).apply(x[bit_reversal_permutation(n)])
    np.testing.assert_allclose(got, np.fft.fft(x), atol=1e-8)


@given(n=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]))
@settings(max_examples=20, deadline=None)
def test_bit_reversal_is_involution(n):
    perm = bit_reversal_permutation(n)
    np.testing.assert_array_equal(perm[perm], np.arange(n))


@given(n=st.sampled_from([4, 8, 16, 32, 64]))
@settings(max_examples=20, deadline=None)
def test_every_stage_pairs_partition_elements(n):
    for half in stage_halves(n):
        pairs = pair_indices(n, half)
        assert sorted(pairs.reshape(-1).tolist()) == list(range(n))
        assert all(b - a == half for a, b in pairs)


@given(
    n=st.sampled_from([16, 32, 64, 128]),
    nbanks=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=30, deadline=None)
def test_butterfly_layout_is_bijective(n, nbanks):
    """Every (bank, column) slot holds exactly one element."""
    if nbanks > n:
        return
    slots = set()
    for element in range(n):
        column = element // nbanks
        bank = bank_of(element, n, nbanks, "butterfly")
        slots.add((bank, column))
    assert len(slots) == n


@given(value=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_popcount_matches_python(value):
    assert popcount(value) == bin(value).count("1")


@given(n=sizes, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_butterfly_composition_associative(n, seed):
    """Applying two butterfly matrices in sequence equals applying the
    product of their dense forms."""
    rng = np.random.default_rng(seed)
    m1 = ButterflyMatrix.random(n, rng)
    m2 = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=n)
    np.testing.assert_allclose(
        m2.apply(m1.apply(x)), (m2.dense() @ m1.dense()) @ x, atol=1e-6
    )
