"""Dtype policy: global default and mask fill values."""

import numpy as np
import pytest

from repro.kernels import dtype as D


class TestDefaultDtypePolicy:
    def test_default_is_float64(self):
        assert D.get_default_dtype() == np.dtype(np.float64)

    def test_set_and_restore(self):
        previous = D.set_default_dtype("float32")
        try:
            assert D.get_default_dtype() == np.dtype(np.float32)
        finally:
            D.set_default_dtype(previous)
        assert D.get_default_dtype() == previous

    def test_context_manager_scopes(self):
        before = D.get_default_dtype()
        with D.default_dtype(np.float32) as dt:
            assert dt == np.dtype(np.float32)
            assert D.get_default_dtype() == np.dtype(np.float32)
        assert D.get_default_dtype() == before

    def test_context_restores_on_exception(self):
        before = D.get_default_dtype()
        with pytest.raises(RuntimeError):
            with D.default_dtype("float32"):
                raise RuntimeError("boom")
        assert D.get_default_dtype() == before

    @pytest.mark.parametrize("bad", ["float16", np.int32, "complex128"])
    def test_rejects_non_float_dtypes(self, bad):
        with pytest.raises(ValueError, match="float32 or float64"):
            D.set_default_dtype(bad)


class TestMaskFillValue:
    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_underflows_softmax_exactly(self, dt):
        fill = D.mask_fill_value(dt)
        # exp(fill - rowmax) must be exactly zero for realistic scores
        assert np.exp(np.asarray(fill, dtype=dt) - dt(100.0)) == 0.0

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_stacking_two_biases_stays_finite(self, dt):
        fill = D.mask_fill_value(dt)
        stacked = np.asarray(fill, dtype=dt) + np.asarray(fill, dtype=dt)
        assert np.isfinite(stacked)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_adding_finite_scores_stays_finite(self, dt):
        fill = np.asarray(D.mask_fill_value(dt), dtype=dt)
        assert np.isfinite(fill + dt(1e4)) and np.isfinite(fill - dt(1e4))

    def test_narrower_dtype_gets_narrower_fill(self):
        assert abs(D.mask_fill_value(np.float32)) < abs(
            D.mask_fill_value(np.float64)
        )
