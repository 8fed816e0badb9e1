"""Concurrency safety of the kernel-layer caches (plans, scratch, bias).

Kernels run on their caller's thread, and two callers may share a
process (a ``ServerThread`` beside the thread that started it, two
serving engines) — so the grouped-plan cache,
the per-thread dequant scratch pools and the attention bias cache must
tolerate concurrent callers without corrupting results.  Every test
hammers one cache from many threads and asserts the outputs stay
bit-identical to a single-threaded reference.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import kernels
from repro.kernels import attention as AK
from repro.kernels import grouped as GK
from repro.kernels import quant as QK
from repro.nn import QUANT_MODES

N_THREADS = 8
N_CALLS = 12


def _hammer(fn, n_threads=N_THREADS, n_calls=N_CALLS):
    """Run ``fn(thread_idx, call_idx)`` concurrently; re-raise any error."""
    barrier = threading.Barrier(n_threads)

    def worker(t):
        barrier.wait()  # maximize interleaving at the caches
        return [fn(t, c) for c in range(n_calls)]

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(worker, t) for t in range(n_threads)]
        return [f.result() for f in futures]


class TestGroupedPlanCache:
    def test_concurrent_plan_requests_return_one_plan(self):
        GK.get_plan.cache_clear() if hasattr(GK.get_plan, "cache_clear") else None
        plans = _hammer(lambda t, c: GK.get_plan(256, 8))
        flat = [p for row in plans for p in row]
        assert all(p is flat[0] for p in flat)  # one shared immutable plan

    def test_concurrent_butterfly_forward_bit_stable(self, rng):
        n, rows = 128, 8
        halves = kernels.stage_halves(n)
        coeffs = [rng.normal(size=(4, n // 2)) for _ in halves]
        x = rng.normal(size=(rows, n))
        expected, _ = kernels.butterfly_apply(x, coeffs, halves, need_ctx=False)

        def call(t, c):
            y, _ = kernels.butterfly_apply(x, coeffs, halves, need_ctx=False)
            np.testing.assert_array_equal(y, expected)
            return True

        assert all(all(row) for row in _hammer(call))

    def test_concurrent_vjp_bit_stable(self, rng):
        n, rows = 128, 8
        halves = kernels.stage_halves(n)
        coeffs = [rng.normal(size=(4, n // 2)) for _ in halves]
        x = rng.normal(size=(rows, n))
        grad = rng.normal(size=(rows, n))
        _, ctx = kernels.butterfly_apply(x, coeffs, halves)
        gx_ref, gc_ref = kernels.butterfly_apply_vjp(grad, ctx)

        def call(t, c):
            # fresh ctx per call: contexts hold per-call intermediates
            _, local_ctx = kernels.butterfly_apply(x, coeffs, halves)
            gx, gc = kernels.butterfly_apply_vjp(grad, local_ctx)
            np.testing.assert_array_equal(gx, gx_ref)
            for a, b in zip(gc, gc_ref):
                np.testing.assert_array_equal(a, b)
            return True

        assert all(all(row) for row in _hammer(call))

    def test_concurrent_frozen_and_dense_gemms_bit_stable(self, rng):
        """The GEMM paths proper, above the stage chain's size: a chunked
        frozen ladder (its chunk buffers come from the shared plan's
        per-thread pool) and a recorded dense call, from many callers."""
        def ladder(n):
            halves = kernels.stage_halves(n)
            return [rng.normal(size=(4, n // 2)) * 0.7 for _ in halves], halves

        frozen = kernels.FrozenLadder(ladder(1024)[0], np.float64)
        x = rng.normal(size=(2, 8, 1024))
        coeffs, halves = ladder(256)
        xd = rng.normal(size=(128, 64))
        grad = rng.normal(size=(128, 256))

        def run():
            y = frozen.apply(x)
            yd, ctx = kernels.butterfly_apply(xd, coeffs, halves,
                                              in_features=64, out_features=256)
            assert ctx[0] == "dense"
            gx, gcoeffs = kernels.butterfly_apply_vjp(grad, ctx)
            return [np.array(a) for a in (y, yd, gx, *gcoeffs)]

        expected = run()

        def call(t, c):
            for got, want in zip(run(), expected):
                np.testing.assert_array_equal(got, want)
            return True

        assert all(all(row) for row in _hammer(call, n_calls=4))


class TestQuantScratchPool:
    @pytest.mark.parametrize("mode", QUANT_MODES)
    def test_concurrent_linear_bit_stable(self, rng, store_weight, mode):
        q, s = store_weight(mode, rng.normal(size=(64, 96)))
        packed = QK.pack_weight(q, s)
        x = rng.normal(size=(5, 96)).astype(np.float32)
        run = lambda: QK.quantized_linear(x, packed, s)
        expected = run()

        def call(t, c):
            np.testing.assert_array_equal(run(), expected)
            return True

        assert all(all(row) for row in _hammer(call))

    def test_scratch_pools_are_per_thread(self, rng):
        w = rng.normal(size=(32, 64))
        q, s = QK.quantize_per_channel(w)
        packed = QK.pack_weight(q, s)
        x = rng.normal(size=(3, 64)).astype(np.float32)
        pools = {}

        def call(t, c):
            QK.quantized_linear(x, packed, s)
            pools[threading.get_ident()] = QK._SCRATCH._tls.pool
            return True

        _hammer(call, n_threads=4, n_calls=2)
        # distinct threads own distinct pool dicts — no shared buffers
        ids = [id(cache) for cache in pools.values()]
        assert len(set(ids)) == len(ids)

    def test_varied_shapes_respect_the_byte_budget(self, rng, monkeypatch):
        """Each thread's pool stays under the cap whatever shapes it has
        seen: past it a block is an ordinary allocation."""
        monkeypatch.setattr(QK._SCRATCH, "MAX_BYTES", 8 * 1024)

        def call(t, c):
            in_f = 16 + 8 * ((t + c) % 20)
            x = np.ones((2, in_f), dtype=np.float32)
            q, s = QK.quantize_per_channel(np.ones((40, in_f)))
            np.testing.assert_array_equal(
                QK.quantized_linear(x, QK.pack_weight(q, s), s),
                np.full((2, 40), in_f))
            return QK._SCRATCH._tls.bytes <= QK._SCRATCH.MAX_BYTES

        assert all(all(row) for row in _hammer(call))


class TestAttentionBiasCache:
    def test_concurrent_causal_bias_consistent(self):
        AK._BIAS_CACHE.clear()

        def call(t, c):
            seq = 16 + (c % 4) * 16
            bias = AK.causal_bias(seq, seq, np.float32)
            assert bias.shape == (seq, seq)
            # strictly lower-triangular visibility
            assert (bias[np.triu_indices(seq, 1)] != 0).all()
            assert (bias[np.tril_indices(seq)] == 0).all()
            return True

        assert all(all(row) for row in _hammer(call))
        assert len(AK._BIAS_CACHE) <= AK._BIAS_CACHE_MAX

    @pytest.mark.parametrize("lane_floor", [None, 0])
    def test_concurrent_attention_forward_bit_stable(self, rng, monkeypatch,
                                                     lane_floor):
        """With the lane floor at 0, one caller at a time shares the
        helper lane and the others run their items alone."""
        if lane_floor is not None:
            monkeypatch.setattr(AK, "LANE_MIN_SCORES", lane_floor)
        q = rng.normal(size=(2, 2, 32, 8))
        k = rng.normal(size=(2, 2, 32, 8))
        v = rng.normal(size=(2, 2, 32, 8))
        expected, _ = kernels.attention_forward(q, k, v, causal=True, block=8)

        def call(t, c):
            y, _ = kernels.attention_forward(q, k, v, causal=True, block=8)
            np.testing.assert_array_equal(y, expected)
            return True

        assert all(all(row) for row in _hammer(call))

