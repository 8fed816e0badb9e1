"""The frozen ladder: ``kernels.butterfly_apply(need_ctx=False)``'s one path.

Value parity against the per-stage reference at every size and shape,
the bitwise row-independence contract the serving engine relies on, the
holder-hosted cache and its counters, and the training path left exactly
where it was.
"""

import numpy as np
import pytest

from repro import kernels as K
from repro import telemetry
from repro.kernels import grouped
from repro.kernels.grouped import FrozenLadder, plan_cache_stats

SIZES = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
LEADS = [(1, 1), (4, 1), (1, 33), (3, 17)]
TOLERANCE = {np.float64: 1e-9, np.float32: 2e-3}


def _ladder(rng, n, dtype=np.float64):
    halves = K.stage_halves(n)
    # ~unit gain per stage keeps float32 outputs O(1) through ten stages
    coeffs = [(rng.normal(size=(4, n // 2)) * 0.7).astype(dtype)
              for _ in halves]
    return coeffs, halves


def _reference(x, coeffs, halves, n, out_features):
    """Zero-pad, per-stage chain, slice: what the frozen operators fold."""
    padded = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    padded[..., : x.shape[-1]] = x
    return K.butterfly_apply_reference(padded, coeffs, halves)[..., :out_features]


def _rectangles(n):
    """Square, FFN-up, FFN-down, ragged both ways, and the degenerate 1x1."""
    shapes = {(n, n), (max(1, n // 4), n), (n, max(1, n // 4)),
              (max(1, n - 1), n // 2 + 1), (max(1, 3 * n // 8), n), (1, 1)}
    return sorted(shapes)


class Holder:
    """Stand-in for the module that owns the stages."""


class Stage:
    """Stand-in for ``nn.Parameter``: ``.data`` plus a version counter."""

    def __init__(self, data):
        self.data = data
        self.version = 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", SIZES)
class TestMatchesReference:
    def test_every_rectangle_and_leading_shape(self, rng, n, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        for d_in, d_out in _rectangles(n):
            for lead in LEADS:
                x = rng.normal(size=lead + (d_in,)).astype(dtype)
                y, ctx = K.butterfly_apply(
                    x, coeffs, halves, need_ctx=False, out_features=d_out)
                expected = _reference(x, coeffs, halves, n, d_out)
                assert ctx is None
                assert y.shape == expected.shape and y.dtype == dtype
                scale = max(1.0, np.abs(expected).max())
                assert np.abs(y - expected).max() / scale < TOLERANCE[dtype], (
                    n, d_in, d_out, lead)

    def test_vector_and_matrix_inputs(self, rng, n, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        for shape in [(n,), (5, n), (2, 3, 4, n)]:
            x = rng.normal(size=shape).astype(dtype)
            y, _ = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
            expected = K.butterfly_apply_reference(x, coeffs, halves)
            np.testing.assert_allclose(
                y, expected, atol=TOLERANCE[dtype] * max(1.0, np.abs(expected).max()))


class TestOperatorGeometry:
    def test_up_to_max_group_stages_is_one_block(self, rng):
        for n in (2, 8, 32):
            coeffs, _ = _ladder(rng, n)
            ladder = FrozenLadder(coeffs, np.float64)
            assert [op.shape for op in ladder.ops] == [(n, n)]

    def test_small_ladders_collapse_to_one_dense_block(self, rng):
        n = grouped.DENSE_MAX_N
        coeffs, _ = _ladder(rng, n)
        ladder = FrozenLadder(coeffs, np.float64, n // 2, n)
        assert [op.shape for op in ladder.ops] == [(n // 2, n)]

    def test_zero_blocks_and_sliced_columns_are_dropped(self, rng):
        """n=512 is chunks of T=32 then T=16.  An FFN-up layer (128 -> 512)
        feeds 4 of the first chunk's 16 blocks, so the second chunk keeps 4
        of its 16 operator rows; an FFN-down layer (512 -> 128) keeps 4 of
        the last chunk's 16 columns."""
        coeffs, _ = _ladder(rng, 512)
        up = FrozenLadder(coeffs, np.float64, 128, 512)
        assert [op.shape for op in up.ops] == [(4, 1, 32, 32), (1, 32, 4, 16)]
        down = FrozenLadder(coeffs, np.float64, 512, 128)
        assert [op.shape for op in down.ops] == [(16, 1, 32, 32), (1, 32, 16, 4)]
        full = FrozenLadder(coeffs, np.float64)
        assert sum(op.size for op in full.ops) == 512 * (32 + 16)

    def test_features_outside_the_ladder_rejected(self, rng):
        coeffs, _ = _ladder(rng, 8)
        with pytest.raises(ValueError, match="in/out features"):
            FrozenLadder(coeffs, np.float64, 9, 8)
        with pytest.raises(ValueError, match="in/out features"):
            FrozenLadder(coeffs, np.float64, 8, 0)

    def test_result_is_owned_not_pooled_scratch(self, rng):
        coeffs, halves = _ladder(rng, 256)
        ladder = FrozenLadder(coeffs, np.float64)
        x = rng.normal(size=(2, 3, 256))
        first = ladder.apply(x)
        kept = first.copy()
        ladder.apply(rng.normal(size=(2, 3, 256)))
        np.testing.assert_array_equal(first, kept)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [32, 64, 512])
class TestRowIndependence:
    """A decode row's bits must not depend on who shares its batch."""

    def test_row_zero_bitwise_equal_across_batch_sizes(self, rng, n, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        ladder = FrozenLadder(coeffs, dtype)
        x = rng.normal(size=(8, 1, n)).astype(dtype)
        solo = ladder.apply(x[:1])
        for batch in range(1, 9):
            np.testing.assert_array_equal(ladder.apply(x[:batch])[0], solo[0])

    def test_every_row_equals_its_solo_run(self, rng, n, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        x = rng.normal(size=(6, 1, n // 2)).astype(dtype)
        batched, _ = K.butterfly_apply(
            x, coeffs, halves, need_ctx=False, out_features=n)
        for row in range(6):
            solo, _ = K.butterfly_apply(
                x[row : row + 1], coeffs, halves, need_ctx=False, out_features=n)
            np.testing.assert_array_equal(batched[row], solo[0])

    def test_prefill_rows_independent_of_batch(self, rng, n, dtype):
        """(B, S, n): each batch entry is its own GEMM with M = S."""
        coeffs, halves = _ladder(rng, n, dtype)
        ladder = FrozenLadder(coeffs, dtype)
        x = rng.normal(size=(3, 9, n)).astype(dtype)
        batched = ladder.apply(x)
        for b in range(3):
            np.testing.assert_array_equal(batched[b], ladder.apply(x[b : b + 1])[0])


class TestHolderCache:
    def _setup(self, rng, n=64):
        coeffs, halves = _ladder(rng, n)
        return [Stage(c) for c in coeffs], halves, Holder()

    def _apply(self, x, stages, halves, holder):
        y, _ = K.butterfly_apply(x, stages, halves, need_ctx=False, holder=holder)
        return y

    def _counts(self):
        stats = plan_cache_stats()
        return stats["frozen_builds"], stats["frozen_hits"]

    def test_built_once_then_reused(self, rng):
        stages, halves, holder = self._setup(rng)
        x = rng.normal(size=(2, 64))
        builds, hits = self._counts()
        first = self._apply(x, stages, halves, holder)
        assert self._counts() == (builds + 1, hits)
        ladder = holder._frozen_ladder[2]
        second = self._apply(x, stages, halves, holder)
        assert self._counts() == (builds + 1, hits + 1)
        assert holder._frozen_ladder[2] is ladder
        np.testing.assert_array_equal(first, second)

    def test_version_bump_and_data_rebind_rebuild(self, rng):
        stages, halves, holder = self._setup(rng)
        x = rng.normal(size=(2, 64))
        self._apply(x, stages, halves, holder)
        # in-place update + version bump (what the optimizers do)
        stages[3].data *= 0.5
        stages[3].version += 1
        builds, _ = self._counts()
        y = self._apply(x, stages, halves, holder)
        assert self._counts()[0] == builds + 1
        arrays = [s.data for s in stages]
        np.testing.assert_allclose(
            y, K.butterfly_apply_reference(x, arrays, halves), atol=1e-9)
        # rebind without touching the version (load_state_dict, quantization)
        stages[0].data = stages[0].data * 2.0
        y = self._apply(x, stages, halves, holder)
        assert self._counts()[0] == builds + 2
        arrays = [s.data for s in stages]
        np.testing.assert_allclose(
            y, K.butterfly_apply_reference(x, arrays, halves), atol=1e-9)
        self._apply(x, stages, halves, holder)
        assert self._counts()[0] == builds + 2

    def test_input_dtype_and_geometry_are_part_of_the_key(self, rng):
        stages, halves, holder = self._setup(rng)
        x = rng.normal(size=(2, 64))
        self._apply(x, stages, halves, holder)
        builds, _ = self._counts()
        y32 = self._apply(x.astype(np.float32), stages, halves, holder)
        assert y32.dtype == np.float64  # float64 stages promote
        assert self._counts()[0] == builds + 1
        narrow, _ = K.butterfly_apply(
            x[:, :16], stages, halves, need_ctx=False, out_features=8,
            holder=holder)
        assert narrow.shape == (2, 8)
        assert self._counts()[0] == builds + 2

    def test_raw_arrays_build_per_call(self, rng):
        coeffs, halves = _ladder(rng, 64)
        x = rng.normal(size=(2, 64))
        builds, hits = self._counts()
        K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        assert self._counts() == (builds + 2, hits)

    def test_unversioned_stages_are_never_cached(self, rng):
        """A holder cannot vouch for raw arrays: nothing says when they change."""
        coeffs, halves = _ladder(rng, 64)
        holder = Holder()
        x = rng.normal(size=(2, 64))
        first = self._apply(x, coeffs, halves, holder)
        coeffs[2][:] *= 0.5  # in place, same array objects
        second = self._apply(x, coeffs, halves, holder)
        assert getattr(holder, "_frozen_ladder", None) is None
        assert np.abs(second - first).max() > 1e-6
        np.testing.assert_allclose(
            second, K.butterfly_apply_reference(x, coeffs, halves), atol=1e-9)

    def test_counters_mirrored_into_telemetry(self, rng):
        stages, halves, holder = self._setup(rng)
        x = rng.normal(size=(2, 64))
        telemetry.clear_all()
        try:
            with telemetry.use_telemetry(True):
                for _ in range(3):
                    self._apply(x, stages, halves, holder)
            snapshot = telemetry.get_registry().snapshot()
        finally:
            telemetry.clear_all()
        assert snapshot["kernels_frozen_ladder_builds_total"]["value"] == 1
        assert snapshot["kernels_frozen_ladder_hits_total"]["value"] == 2

    def test_plan_cache_stats_keeps_its_old_keys(self):
        assert {"hits", "misses", "size", "hit_rate", "frozen_builds",
                "frozen_hits"} == set(plan_cache_stats())


class TestOtherPathsStay:
    def test_complex_stages_take_the_stage_chain(self, rng):
        n = 64
        halves = K.stage_halves(n)
        coeffs = [K.fft_stage_coeffs(n, h) for h in halves]
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        builds = plan_cache_stats()["frozen_builds"]
        y, _ = K.butterfly_apply(
            x[..., K.bit_reversal_permutation(n)], coeffs, halves, need_ctx=False)
        assert plan_cache_stats()["frozen_builds"] == builds
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

    def test_partial_ladder_takes_the_stage_chain(self, rng):
        n = 64
        coeffs, halves = _ladder(rng, n)
        x = rng.normal(size=(3, n))
        builds = plan_cache_stats()["frozen_builds"]
        y, _ = K.butterfly_apply(x, coeffs[:3], halves[:3], need_ctx=False)
        assert plan_cache_stats()["frozen_builds"] == builds
        np.testing.assert_array_equal(
            y, K.butterfly_apply_reference(x, coeffs[:3], halves[:3]))
        with pytest.raises(ValueError, match="out_features"):
            K.butterfly_apply(x, coeffs[:3], halves[:3], need_ctx=False,
                              out_features=8)

    def test_out_features_rejected_when_a_context_is_wanted(self, rng):
        coeffs, halves = _ladder(rng, 64)
        with pytest.raises(ValueError, match="out_features"):
            K.butterfly_apply(rng.normal(size=(3, 64)), coeffs, halves,
                              out_features=8)

    @pytest.mark.parametrize("rows,n,kind", [
        (1, 1024, "stages"),     # below MIN_WORK
        (512, 32, "stages"),     # below MIN_STAGES
        (256, 64, "grouped"),    # at both thresholds
    ])
    def test_training_dispatch_and_bits_unchanged(self, rng, rows, n, kind):
        """With a context wanted, the thresholds still pick the path and the
        bits are those of the per-stage chain / the per-step grouped kernel."""
        coeffs, halves = _ladder(rng, n)
        x = rng.normal(size=(rows, n))
        y, ctx = K.butterfly_apply(x, coeffs, halves)
        assert ctx[0] == kind
        grad = rng.normal(size=y.shape)
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        if kind == "stages":
            np.testing.assert_array_equal(
                y, K.butterfly_apply_reference(x, coeffs, halves))
            g, saved = grad, [x]
            for c, h in zip(coeffs[:-1], halves[:-1]):
                saved.append(K.stage_forward(saved[-1], c, h))
            for s in range(len(coeffs) - 1, -1, -1):
                g, gc = K.stage_vjp(g, saved[s], coeffs[s], halves[s])
                np.testing.assert_array_equal(gcoeffs[s], gc)
            np.testing.assert_array_equal(gx, g)
        else:
            plan = K.get_plan(n, len(halves))
            y2, gctx = K.grouped_forward(x, coeffs, plan)
            np.testing.assert_array_equal(y, y2)
            gx2, gcoeffs2 = K.grouped_vjp(grad, gctx)
            np.testing.assert_array_equal(gx, gx2)
            for a, b in zip(gcoeffs, gcoeffs2):
                np.testing.assert_array_equal(a, b)
