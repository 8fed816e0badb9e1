"""The frozen ladder: a layer's one inference path through the kernels.

Value parity against the per-stage reference at every size and shape,
the bitwise row-independence contract the serving engine relies on, the
layer-owned cache and its counters, and every other caller's dispatch
onto the fused kernels, against the per-stage chain.
"""

import copy
import pickle

import numpy as np
import pytest

from repro import kernels as K
from repro import telemetry
from repro.kernels import grouped
from repro.kernels.grouped import (
    FrozenLadder,
    FrozenLadderCache,
    plan_cache_stats,
)

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
            ladder = FrozenLadder(coeffs, dtype, d_in, d_out)
            for lead in LEADS:
                x = rng.normal(size=lead + (d_in,)).astype(dtype)
                y = ladder.apply(x)
                expected = _reference(x, coeffs, halves, n, d_out)
                assert y.shape == expected.shape and y.dtype == dtype
                scale = max(1.0, np.abs(expected).max())
                assert np.abs(y - expected).max() / scale < TOLERANCE[dtype], (
                    n, d_in, d_out, lead)

    def test_vector_and_matrix_inputs(self, rng, n, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        ladder = FrozenLadder(coeffs, dtype)
        for shape in [(n,), (5, n), (2, 3, 4, n)]:
            x = rng.normal(size=shape).astype(dtype)
            y = ladder.apply(x)
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

    def test_chunked_ladder_slices_only_the_last_chunks_columns(self, rng):
        """n=512 is chunks of T=32 then T=16.  A 512 -> 256 layer keeps 8
        of the last chunk's 16 columns; a 256 -> 512 layer keeps every
        operator whole and zero-fills its input instead."""
        coeffs, _ = _ladder(rng, 512)
        down = FrozenLadder(coeffs, np.float64, 512, 256)
        assert [op.shape for op in down.ops] == [(16, 1, 32, 32), (1, 32, 16, 8)]
        up = FrozenLadder(coeffs, np.float64, 256, 512)
        assert [op.shape for op in up.ops] == [(16, 1, 32, 32), (1, 32, 16, 16)]
        assert all(op.flags.c_contiguous for op in up.ops + down.ops)

    @pytest.mark.parametrize("n,d_in,d_out", [
        (512, 128, 512), (512, 512, 128), (256, 64, 256), (256, 128, 256),
        (1024, 128, 1024),
    ])
    def test_rectangle_within_the_dense_budget_is_one_block(
            self, rng, n, d_in, d_out):
        """The rule prices the folded ``in x out`` block, not ``n x n``:
        an r_ffn=4 FFN's two ladders at d_hidden=128 are single GEMMs."""
        assert d_in * d_out <= grouped.DENSE_MAX_N * n
        coeffs, _ = _ladder(rng, n)
        ladder = FrozenLadder(coeffs, np.float64, d_in, d_out)
        assert [op.shape for op in ladder.ops] == [(d_in, d_out)]

    @pytest.mark.parametrize("n,d_in,d_out", [
        (256, 256, 256), (512, 512, 512), (512, 256, 512), (1024, 256, 1024),
    ])
    def test_rectangle_over_the_dense_budget_stays_chunked(
            self, rng, n, d_in, d_out):
        assert d_in * d_out > grouped.DENSE_MAX_N * n
        coeffs, _ = _ladder(rng, n)
        ladder = FrozenLadder(coeffs, np.float64, d_in, d_out)
        assert len(ladder.ops) == len(ladder.plan.chunks) == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n,d_in,d_out", [
        (512, 128, 512), (512, 512, 128), (256, 64, 256)])
    def test_newly_dense_rectangles_match_the_stage_chain(
            self, rng, n, d_in, d_out, dtype):
        coeffs, halves = _ladder(rng, n, dtype)
        ladder = FrozenLadder(coeffs, dtype, d_in, d_out)
        assert len(ladder.ops) == 1
        for lead in LEADS + [(1, 300)]:
            x = rng.normal(size=lead + (d_in,)).astype(dtype)
            expected = _reference(x, coeffs, halves, n, d_out)
            np.testing.assert_allclose(
                ladder.apply(x), expected,
                atol=TOLERANCE[dtype] * max(1.0, np.abs(expected).max()))

    def test_input_of_the_wrong_width_rejected(self, rng):
        coeffs, _ = _ladder(rng, 64)
        ladder = FrozenLadder(coeffs, np.float64, 48, 64)
        with pytest.raises(ValueError, match="expected input dim 48"):
            ladder.apply(rng.normal(size=(2, 64)))

    def test_features_outside_the_ladder_rejected(self, rng):
        coeffs, _ = _ladder(rng, 8)
        with pytest.raises(ValueError, match="in/out features"):
            FrozenLadder(coeffs, np.float64, 9, 8)
        with pytest.raises(ValueError, match="in/out features"):
            FrozenLadder(coeffs, np.float64, 8, 0)

    def test_layers_sharing_a_plan_do_not_evict_each_others_scratch(self, rng):
        """An up and a down ladder share the n=512 plan and take turns;
        their scratch shapes differ, and the pool must serve both from one
        buffer instead of reallocating on every alternation."""
        coeffs, _ = _ladder(rng, 512)
        up = FrozenLadder(coeffs, np.float64, 256, 512)
        down = FrozenLadder(coeffs, np.float64, 512, 256)
        x_up, x_down = rng.normal(size=(2, 9, 256)), rng.normal(size=(2, 9, 512))
        up.apply(x_up), down.apply(x_down)  # pool sized by the larger of each
        pool = up.plan._pool._tls.pool
        assert pool  # both ladders chunk, so both go through the pool
        before = {key: buf.ctypes.data for key, buf in pool.items()}
        for _ in range(3):
            up.apply(x_up), down.apply(x_down)
        assert {key: buf.ctypes.data for key, buf in pool.items()} == before

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
        """Chunked and dense alike: n // 2 -> n chunks at n=512, the
        FFN rectangles n // 4 <-> n are one block."""
        coeffs, halves = _ladder(rng, n, dtype)
        for d_in, d_out in [(n // 2, n), (n // 4, n), (n, n // 4)]:
            ladder = FrozenLadder(coeffs, dtype, d_in, d_out)
            x = rng.normal(size=(6, 1, d_in)).astype(dtype)
            batched = ladder.apply(x)
            for row in range(6):
                np.testing.assert_array_equal(
                    batched[row], ladder.apply(x[row : row + 1])[0])

    def test_prefill_rows_independent_of_batch(self, rng, n, dtype):
        """(B, S, n): each batch entry is its own GEMM with M = S."""
        coeffs, halves = _ladder(rng, n, dtype)
        for d_in, d_out in [(n, n), (n // 4, n), (n, n // 4)]:
            ladder = FrozenLadder(coeffs, dtype, d_in, d_out)
            x = rng.normal(size=(3, 9, d_in)).astype(dtype)
            batched = ladder.apply(x)
            for b in range(3):
                np.testing.assert_array_equal(
                    batched[b], ladder.apply(x[b : b + 1])[0])


class TestLayerCache:
    def _setup(self, rng, n=64, d_in=None, d_out=None):
        coeffs, halves = _ladder(rng, n)
        cache = FrozenLadderCache(d_in or n, d_out or n)
        return [Stage(c) for c in coeffs], halves, cache

    def _counts(self):
        stats = plan_cache_stats()
        return stats["frozen_builds"], stats["frozen_hits"]

    def _check(self, ladder, x, stages, halves):
        np.testing.assert_allclose(
            ladder.apply(x),
            K.butterfly_apply_reference(x, [s.data for s in stages], halves),
            atol=1e-9)

    def test_built_once_then_reused(self, rng):
        """A lookup builds or returns the ladder; a hit is an apply."""
        stages, halves, cache = self._setup(rng)
        builds, hits = self._counts()
        ladder = cache.get(stages, np.float64)
        assert self._counts() == (builds + 1, hits)
        assert cache.get(stages, np.float64) is ladder
        assert self._counts() == (builds + 1, hits)
        self._check(ladder, rng.normal(size=(2, 64)), stages, halves)
        assert self._counts() == (builds + 1, hits + 1)

    def test_version_bump_and_data_rebind_rebuild(self, rng):
        stages, halves, cache = self._setup(rng)
        x = rng.normal(size=(2, 64))
        first = cache.get(stages, x.dtype)
        # in-place update + version bump (what the optimizers do)
        stages[3].data *= 0.5
        stages[3].version += 1
        builds, _ = self._counts()
        second = cache.get(stages, x.dtype)
        assert second is not first and self._counts()[0] == builds + 1
        self._check(second, x, stages, halves)
        # rebind without touching the version (load_state_dict, quantization)
        stages[0].data = stages[0].data * 2.0
        third = cache.get(stages, x.dtype)
        assert third is not second and self._counts()[0] == builds + 2
        self._check(third, x, stages, halves)
        assert cache.get(stages, x.dtype) is third
        assert self._counts()[0] == builds + 2

    def test_input_dtype_is_part_of_the_key(self, rng):
        stages, halves, cache = self._setup(rng)
        ladder64 = cache.get(stages, np.float64)
        builds, _ = self._counts()
        ladder32 = cache.get(stages, np.float32)
        assert ladder32 is not ladder64 and self._counts()[0] == builds + 1
        assert ladder32.dtype == np.float64  # float64 stages promote
        for stage in stages:
            stage.data = stage.data.astype(np.float32)
        assert cache.get(stages, np.float32).dtype == np.float32

    def test_geometry_comes_from_the_owner(self, rng):
        stages, halves, cache = self._setup(rng, d_in=16, d_out=8)
        ladder = cache.get(stages, np.float64)
        assert (ladder.in_features, ladder.out_features) == (16, 8)
        assert ladder.apply(rng.normal(size=(2, 16))).shape == (2, 8)

    def test_complex_results_get_a_frozen_ladder(self, rng):
        """Complex inputs, or complex (FFT twiddle) stages, build a complex
        ladder like any other dtype; there is no other inference path."""
        stages, halves, cache = self._setup(rng)
        x = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        ladder = cache.get(stages, np.complex128)
        assert ladder.dtype == np.complex128
        self._check(ladder, x, stages, halves)
        fft = [Stage(K.fft_stage_coeffs(64, h)) for h in halves]
        twiddles = FrozenLadderCache(64, 64).get(fft, np.float64)
        assert twiddles.dtype == np.complex128
        x = rng.normal(size=(5, 64))
        np.testing.assert_allclose(
            twiddles.apply(x[:, K.bit_reversal_permutation(64)]),
            np.fft.fft(x), rtol=0, atol=1e-12 * np.abs(np.fft.fft(x)).max())

    def test_copies_and_pickles_start_empty(self, rng):
        stages, halves, cache = self._setup(rng, d_in=16, d_out=8)
        cache.get(stages, np.float64)
        for clone in (copy.deepcopy(cache), pickle.loads(pickle.dumps(cache))):
            assert clone._entry is None
            assert (clone.in_features, clone.out_features) == (16, 8)
        assert cache._entry is not None

    def test_counters_published_when_the_registry_is_read(self, rng):
        stages, halves, cache = self._setup(rng)
        telemetry.clear_all()
        try:
            with telemetry.use_telemetry(True):
                for _ in range(3):
                    cache.get(stages, np.float64).apply(np.ones((1, 64)))
                snapshot = telemetry.get_registry().snapshot()
                text = telemetry.render_prometheus()
        finally:
            telemetry.clear_all()
        assert snapshot["kernels_frozen_ladder_builds_total"]["value"] == 1
        assert snapshot["kernels_frozen_ladder_hits_total"]["value"] == 3
        assert "kernels_frozen_ladder_hits_total 3" in text

    def test_work_done_with_telemetry_off_is_never_counted(self, rng):
        """Builds and applies are counted where they happen: those made
        while telemetry is off do not turn up once it is on."""
        stages, halves, cache = self._setup(rng)
        telemetry.clear_all()
        try:
            with telemetry.use_telemetry(False):
                for _ in range(3):
                    cache.get(stages, np.float64).apply(np.ones((1, 64)))
            with telemetry.use_telemetry(True):
                cache.get(stages, np.float64).apply(np.ones((1, 64)))
                snapshot = telemetry.get_registry().snapshot()
        finally:
            telemetry.clear_all()
        assert "kernels_frozen_ladder_builds_total" not in snapshot
        assert snapshot["kernels_frozen_ladder_hits_total"]["value"] == 1

    def test_a_decoders_hits_are_its_ladder_applies(self, rng):
        """A butterfly decoder's prefill and three decode steps apply every
        butterfly projection of its program once each: ``frozen_hits`` and,
        with telemetry on, ``kernels_frozen_ladder_hits_total`` grow by
        exactly that."""
        from repro import nn
        from repro.models import ModelConfig, build_butterfly_decoder

        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
                          n_heads=4, r_ffn=2, n_total=2, seed=0)
        model = build_butterfly_decoder(cfg).eval()
        tokens = rng.integers(1, cfg.vocab_size, size=(2, 8))
        telemetry.clear_all()
        try:
            with telemetry.use_telemetry(True):
                _, hits = self._counts()
                cache = model.make_cache(2)
                model.prefill(tokens[:, :5], cache)
                for i in range(5, 8):
                    model.decode_step(tokens[:, i], cache)
                _, after = self._counts()
                snapshot = telemetry.get_registry().snapshot()
        finally:
            telemetry.clear_all()
        program = model._program.get(model)
        ladders = sum(isinstance(layer, nn.ButterflyLinear)
                      for _, _, layer in program._slots)
        assert ladders and after - hits == 4 * ladders
        assert snapshot["kernels_frozen_ladder_hits_total"]["value"] == 4 * ladders

    def test_plan_cache_stats_keeps_its_old_keys(self):
        assert {"hits", "misses", "size", "hit_rate", "frozen_builds",
                "frozen_hits"} == set(plan_cache_stats())


def _chain_and_vjp(x, grad, coeffs, halves, d_out):
    """Zero-pad, per-stage chain, slice, and the per-stage VJP back: the
    oracle of the fused kernels, sharing no code with them."""
    n = 2 * coeffs[0].shape[-1]
    padded = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    padded[..., : x.shape[-1]] = x
    full = np.zeros(x.shape[:-1] + (n,), dtype=grad.dtype)
    full[..., :d_out] = grad
    saved = [padded]
    for c, h in zip(coeffs[:-1], halves[:-1]):
        saved.append(K.stage_forward(saved[-1], c, h))
    g, chain = full, [None] * len(coeffs)
    for s in range(len(coeffs) - 1, -1, -1):
        g, chain[s] = K.stage_vjp(g, saved[s], coeffs[s], halves[s])
    y = K.butterfly_apply_reference(padded, coeffs, halves)[..., :d_out]
    return y, g[..., : x.shape[-1]], chain


class TestEveryOtherCaller:
    """``kernels.butterfly_apply``: every full ladder on the fused kernels,
    densified or grouped, whatever its size, rows or dtype."""

    @pytest.mark.parametrize("shape", [(1, 64), (4, 32), (1, 1024), (512, 32),
                                       (1, 2), (4, 16, 256)])
    def test_raw_arrays_take_the_grouped_kernel(self, rng, shape):
        """No holder, nothing to cache against: the bits are the per-call
        grouped kernel's, and nothing is frozen."""
        n = shape[-1]
        coeffs, halves = _ladder(rng, n)
        x = rng.normal(size=shape)
        builds = plan_cache_stats()["frozen_builds"]
        y, ctx = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        assert ctx is None
        assert plan_cache_stats()["frozen_builds"] == builds
        y2, _ = K.grouped_forward(x.reshape(-1, n), coeffs,
                                  K.get_plan(n, len(halves)), need_ctx=False)
        np.testing.assert_array_equal(y, y2.reshape(shape))
        np.testing.assert_allclose(
            y, K.butterfly_apply_reference(x, coeffs, halves), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_complex_stages_take_the_grouped_kernel(self, rng, n):
        halves = K.stage_halves(n)
        coeffs = [K.fft_stage_coeffs(n, h) for h in halves]
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        y, _ = K.butterfly_apply(
            x[..., K.bit_reversal_permutation(n)], coeffs, halves, need_ctx=False)
        want = np.fft.fft(x)
        np.testing.assert_allclose(y, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max() * np.log2(n))

    @pytest.mark.parametrize("rows,n,d_in,d_out,kind", [
        (3, 64, 64, 64, "grouped"),      # rows < in_features
        (128, 32, 20, 32, "dense"),
        (7, 256, 256, 256, "grouped"),   # over the area budget
    ])
    def test_a_recorded_complex_call_matches_the_stage_chain(
            self, rng, rows, n, d_in, d_out, kind):
        """Complex coefficients and inputs on both paths: the output and
        every gradient against ``stage_vjp``'s chain (the unconjugated
        transpose, as for real ladders)."""
        halves = K.stage_halves(n)
        coeffs = [(rng.normal(size=(4, n // 2)) + 1j * rng.normal(size=(4, n // 2)))
                  * 0.5 for _ in halves]
        x = rng.normal(size=(rows, d_in)) + 1j * rng.normal(size=(rows, d_in))
        grad = rng.normal(size=(rows, d_out)) + 1j * rng.normal(size=(rows, d_out))
        y, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=d_in, out_features=d_out)
        assert ctx[0] == kind
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        assert {a.dtype for a in (y, gx, *gcoeffs)} == {np.dtype(np.complex128)}
        want_y, want_gx, chain = _chain_and_vjp(x, grad, coeffs, halves, d_out)
        for got, want in zip((y, gx, *gcoeffs), (want_y, want_gx, *chain)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-11 * np.abs(want).max())

    @pytest.mark.parametrize("halves", [[1, 2, 4], [2, 1, 4, 8], [1], []])
    def test_a_partial_ladder_is_refused(self, rng, halves):
        """Only a whole ``[1, 2, ..., n/2]`` ladder is a ladder here; one
        stage is ``stage_forward``."""
        coeffs = [rng.normal(size=(4, 8)) for _ in halves]
        with pytest.raises(ValueError, match="full ladders only"):
            K.butterfly_apply(rng.normal(size=(2, 16)), coeffs, halves)

    def test_a_size_that_is_no_power_of_two_is_refused(self, rng):
        with pytest.raises(ValueError, match="power of two"):
            K.butterfly_apply(rng.normal(size=(2, 12)),
                              [rng.normal(size=(4, 6))], [2])

    @pytest.mark.parametrize("rows,n,d_in,d_out,kind", [
        (1, 1024, 1024, 1024, "grouped"),  # the chain's old shapes ...
        (4, 32, 32, 32, "grouped"),        # ... rows < in_features
        (512, 32, 32, 32, "dense"),
        (512, 32, 8, 32, "dense"),
        (48, 16, 16, 16, "dense"),
        (1, 2, 1, 1, "dense"),
        (64, 256, 256, 256, "grouped"),    # over the area budget
        (256, 512, 256, 512, "grouped"),   # a fold over the budget
        (64, 512, 128, 512, "grouped"),    # inside it, rows < in_features
        (255, 256, 256, 128, "grouped"),   # ... by one row
        (256, 256, 256, 128, "dense"),
        (256, 64, 64, 64, "dense"),
        (128, 512, 128, 512, "dense"),     # rows == in_features, area == budget
        (512, 512, 512, 128, "dense"),
    ])
    def test_training_dispatch_and_bits(self, rng, rows, n, d_in, d_out, kind):
        """With a context wanted, the dispatch table: a fold inside the
        frozen ladder's area budget that brings at least ``in_features``
        rows runs densified (within rounding of the per-stage chain),
        every other call is the per-step grouped kernel's bits on the
        zero-padded input."""
        coeffs, halves = _ladder(rng, n)
        x = rng.normal(size=(rows, d_in))
        y, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=d_in, out_features=d_out)
        assert ctx[0] == kind
        grad = rng.normal(size=y.shape)
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        if kind == "dense":
            y2, gx2, chain = _chain_and_vjp(x, grad, coeffs, halves, d_out)
            for got, want in zip((y, gx, *gcoeffs), (y2, gx2, *chain)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
            return
        padded = np.zeros((rows, n))
        padded[:, :d_in] = x
        full = np.zeros((rows, n))
        full[:, :d_out] = grad
        plan = K.get_plan(n, len(halves))
        y2, gctx = K.grouped_forward(padded, coeffs, plan)
        gx2, gcoeffs2 = K.grouped_vjp(full, gctx)
        for got, want in zip((y, gx, *gcoeffs),
                             (y2[:, :d_out], gx2[:, :d_in], *gcoeffs2)):
            np.testing.assert_array_equal(got, want)

    def test_a_call_that_wants_no_context_is_never_densified(self, rng):
        """The dense build is paid for by the backward it makes cheap; raw
        no-context callers (``ButterflyMatrix.apply``, a ``Tensor`` call
        that records nothing) keep the grouped kernel's bits."""
        coeffs, halves = _ladder(rng, 64)
        x = rng.normal(size=(256, 64))
        y, ctx = K.butterfly_apply(x, coeffs, halves, need_ctx=False)
        assert ctx is None
        y2, _ = K.grouped_forward(x, coeffs, K.get_plan(64, len(halves)),
                                  need_ctx=False)
        np.testing.assert_array_equal(y, y2)
