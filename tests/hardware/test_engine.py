"""Butterfly Engine: value-exactness and access-accuracy of both modes."""

import numpy as np
import pytest

from repro import nn
from repro.butterfly import ButterflyMatrix
from repro.hardware.functional import ButterflyEngine, ButterflyLinearExecutor


class TestButterflyMode:
    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_matches_reference(self, n, rng):
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(n, rng)
        x = rng.normal(size=n)
        np.testing.assert_allclose(engine.run_butterfly(x, matrix), matrix.apply(x),
                                   atol=1e-10)

    @pytest.mark.parametrize("pbu", [1, 2, 4, 8])
    def test_any_parallelism(self, pbu, rng):
        engine = ButterflyEngine(pbu=pbu)
        matrix = ButterflyMatrix.random(32, rng)
        x = rng.normal(size=32)
        np.testing.assert_allclose(engine.run_butterfly(x, matrix), matrix.apply(x),
                                   atol=1e-10)

    def test_no_bank_conflicts(self, rng):
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(64, rng)
        engine.run_butterfly(rng.normal(size=64), matrix)
        assert engine.last_stats.bank_conflicts == 0

    def test_read_cycles_optimal(self, rng):
        """log2(n) stages x n/(2*pbu) cycles each."""
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(64, rng)
        engine.run_butterfly(rng.normal(size=64), matrix)
        assert engine.last_stats.read_cycles == 6 * 64 // 8

    def test_pair_op_count(self, rng):
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(32, rng)
        engine.run_butterfly(rng.normal(size=32), matrix)
        assert engine.last_stats.pair_ops == 5 * 16
        assert engine.last_stats.mult_ops == 4 * 5 * 16

    def test_wrong_size_rejected(self, rng):
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(16, rng)
        with pytest.raises(ValueError, match="size 16"):
            engine.run_butterfly(rng.normal(size=8), matrix)

    def test_invalid_pbu(self):
        with pytest.raises(ValueError, match="pbu"):
            ButterflyEngine(pbu=0)

    @pytest.mark.parametrize("pbu", [3, 6, 12, True, 4.0])
    def test_pbu_must_be_a_power_of_two(self, pbu):
        """``2 * pbu`` banks must divide a power-of-two vector; refused when
        the engine is built, not deep inside its first invocation."""
        with pytest.raises(ValueError, match="pbu must be a power of two"):
            ButterflyEngine(pbu=pbu)

    def test_tile_of_rows(self, rng):
        engine = ButterflyEngine(pbu=2)
        matrix = ButterflyMatrix.random(16, rng)
        x = rng.normal(size=(3, 16))
        np.testing.assert_allclose(engine.run_butterfly(x, matrix),
                                   matrix.apply(x), atol=1e-10)

    def test_wrong_rank_rejected(self, rng):
        engine = ButterflyEngine(pbu=2)
        matrix = ButterflyMatrix.random(16, rng)
        with pytest.raises(ValueError, match="tile of size 16"):
            engine.run_butterfly(rng.normal(size=(2, 3, 16)), matrix)
        with pytest.raises(ValueError, match="tile of size 16"):
            engine.run_fft(rng.normal(size=(2, 3, 16)) + 0j)


class TestFFTMode:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_matches_numpy(self, n, rng):
        engine = ButterflyEngine(pbu=4)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(engine.run_fft(x), np.fft.fft(x), atol=1e-9)

    def test_fft2_matches_numpy(self, rng):
        engine = ButterflyEngine(pbu=4)
        x = rng.normal(size=(8, 16))
        np.testing.assert_allclose(engine.run_fft2(x), np.fft.fft2(x), atol=1e-9)
        # Two invocations: 8 rows of size 16, then 16 columns of size 8.
        assert engine.cumulative_stats.pair_ops == 8 * 8 * 4 + 16 * 4 * 3
        assert engine.last_stats.pair_ops == 16 * 4 * 3

    def test_tile_of_rows(self, rng):
        engine = ButterflyEngine(pbu=4)
        x = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        np.testing.assert_allclose(engine.run_fft(x), np.fft.fft(x, axis=-1), atol=1e-9)

    def test_unified_engine_same_cost_both_modes(self, rng):
        """FFT and butterfly of the same size use identical multiplier and
        cycle counts on the same engine — the paper's efficiency claim."""
        engine = ButterflyEngine(pbu=4)
        matrix = ButterflyMatrix.random(64, rng)
        engine.run_butterfly(rng.normal(size=64), matrix)
        bfly = engine.last_stats
        engine.run_fft(rng.normal(size=64) + 0j)
        fft = engine.last_stats
        assert bfly.mult_ops == fft.mult_ops
        assert bfly.read_cycles == fft.read_cycles
        assert bfly.pair_ops == fft.pair_ops

    def test_no_conflicts_in_fft_mode(self, rng):
        engine = ButterflyEngine(pbu=8)
        engine.run_fft(rng.normal(size=128) + 0j)
        assert engine.last_stats.bank_conflicts == 0


class TestExecutor:
    def test_matches_software_layer(self, rng):
        layer = nn.ButterflyLinear(12, 20, rng=rng)
        executor = ButterflyLinearExecutor(ButterflyEngine(pbu=4))
        x = rng.normal(size=(3, 12))
        ref = layer(nn.Tensor(x)).data
        np.testing.assert_allclose(executor.forward(layer, x), ref, atol=1e-10)

    def test_no_bias_layer(self, rng):
        layer = nn.ButterflyLinear(8, 8, bias=False, rng=rng)
        executor = ButterflyLinearExecutor(ButterflyEngine(pbu=2))
        x = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            executor.forward(layer, x), layer(nn.Tensor(x)).data, atol=1e-10
        )

    def test_an_optimizer_step_rebuilds_the_matrix(self, rng):
        """One matrix per layer, reused until an optimizer step moves a
        stage; the engine then runs the new weights."""
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        engine = ButterflyEngine(pbu=2)
        executor = ButterflyLinearExecutor(engine)
        x = rng.normal(size=(2, 8))
        before = executor.forward(layer, x)
        matrix = executor._matrix(layer)
        assert executor._matrix(layer) is matrix
        optimizer = nn.Adam(layer.parameters(), lr=0.1)
        layer(nn.Tensor(x)).sum().backward()
        optimizer.step()
        out = executor.forward(layer, x)
        assert executor._matrix(layer) is not matrix
        assert np.abs(out - before).min() > 1e-3  # the new weights', not the old
        with nn.no_grad():
            np.testing.assert_allclose(out, layer(nn.Tensor(x)).data, atol=1e-10)

    def test_wrong_input_dim(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        executor = ButterflyLinearExecutor(ButterflyEngine(pbu=2))
        with pytest.raises(ValueError, match="input dim"):
            executor.forward(layer, rng.normal(size=(2, 9)))
