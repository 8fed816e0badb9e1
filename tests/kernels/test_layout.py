"""Index geometry of butterfly stages: pair-major layout invariants.

These are the closed-form indexing expressions every kernel (and the
hardware S2P banked memory) relies on; the tests pin down the geometry
so a regression here cannot hide behind downstream numeric tolerances.
"""

import numpy as np
import pytest

from repro import kernels as K
from repro.kernels import layout as L


class TestPowerOfTwoChecks:
    @pytest.mark.parametrize("n", [2, 4, 64, 1024])
    def test_accepts_powers_of_two(self, n):
        L.check_power_of_two(n)  # no raise

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 12, -8])
    def test_rejects_non_powers(self, n):
        with pytest.raises(ValueError, match="power of two"):
            L.check_power_of_two(n)


class TestStageHalves:
    def test_application_order_is_doubling(self):
        assert L.stage_halves(16) == [1, 2, 4, 8]
        assert L.stage_halves(2) == [1]

    @pytest.mark.parametrize("n", [2, 8, 256])
    def test_num_stages_is_log2(self, n):
        assert L.num_stages(n) == int(np.log2(n))
        assert len(L.stage_halves(n)) == L.num_stages(n)

    def test_check_stage_accepts_every_ladder_stride(self):
        for half in L.stage_halves(64):
            L.check_stage(64, half)

    @pytest.mark.parametrize("half", [0, 64, 3, -1])
    def test_check_stage_rejects_bad_strides(self, half):
        with pytest.raises(ValueError):
            L.check_stage(64, half)

    def test_stage_kernels_refuse_non_power_sizes(self):
        """A stage is one factor of a full ladder: n = 12 (three blocks
        of 4) is refused like the ladder it cannot belong to."""
        for call in (lambda: K.stage_forward(np.ones((1, 12)), np.ones((4, 6)), 2),
                     lambda: K.stage_vjp(np.ones((1, 12)), np.ones((1, 12)),
                                         np.ones((4, 6)), 2)):
            with pytest.raises(ValueError, match="power of two"):
                call()


class TestPairIndices:
    @pytest.mark.parametrize("n,half", [(8, 1), (8, 2), (8, 4), (64, 8)])
    def test_pairs_partition_all_elements(self, n, half):
        pairs = L.pair_indices(n, half)
        assert pairs.shape == (n // 2, 2)
        assert sorted(pairs.reshape(-1).tolist()) == list(range(n))

    @pytest.mark.parametrize("n,half", [(8, 1), (8, 2), (16, 4)])
    def test_pair_stride_and_block_structure(self, n, half):
        pairs = L.pair_indices(n, half)
        # partner is always exactly `half` away...
        assert (pairs[:, 1] - pairs[:, 0] == half).all()
        # ...and both elements sit in the same size-2*half block
        assert (pairs[:, 0] // (2 * half) == pairs[:, 1] // (2 * half)).all()

    def test_explicit_small_case(self):
        np.testing.assert_array_equal(
            L.pair_indices(8, 2), [[0, 2], [1, 3], [4, 6], [5, 7]]
        )

    @pytest.mark.parametrize("n,half", [(8, 1), (8, 2), (8, 4), (64, 16)])
    def test_pair_index_of_inverts_pair_indices(self, n, half):
        pairs = L.pair_indices(n, half)
        for col in (0, 1):  # top and bottom elements map to their row
            np.testing.assert_array_equal(
                L.pair_index_of(pairs[:, col], half), np.arange(n // 2)
            )

    def test_pair_index_of_elementwise_on_arrays(self):
        i = np.arange(8).reshape(2, 4)
        p = L.pair_index_of(i, 2)
        assert p.shape == i.shape


class TestBitReversal:
    def test_explicit_n8(self):
        np.testing.assert_array_equal(
            L.bit_reversal_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 256])
    def test_is_an_involution(self, n):
        perm = L.bit_reversal_permutation(n)
        # bit reversal is its own inverse: applying it twice is identity
        np.testing.assert_array_equal(perm[perm], np.arange(n))

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_is_a_permutation(self, n):
        perm = L.bit_reversal_permutation(n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_matches_fft_recursion_order(self):
        # radix-2 DIT consumes inputs in bit-reversed order; cross-check
        # against numpy by permute-then-butterfly on a size-4 ladder
        n = 16
        perm = L.bit_reversal_permutation(n)
        bits = n.bit_length() - 1
        expected = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
        np.testing.assert_array_equal(perm, expected)

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            L.bit_reversal_permutation(12)
