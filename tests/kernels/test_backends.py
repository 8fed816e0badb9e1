"""Kernel backends: registry semantics and bit parity.

Backends are execution strategies only — the threaded backend shards
disjoint output blocks, so every kernel must produce *byte-identical*
results under ``serial`` and ``threaded``.  The stored-weight kernels'
serial/threaded parity lives with the rest of their obligations in
``tests/test_tier_contract.py``.
"""

import threading

import numpy as np
import pytest

from repro import kernels
from repro.kernels import backend as BK


@pytest.fixture
def threaded():
    """A threaded backend with a deterministic worker count."""
    return BK.ThreadedBackend(workers=4)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = kernels.available_backends()
        assert "serial" in names and "threaded" in names

    def test_default_is_serial(self):
        assert kernels.get_backend().name == "serial"

    def test_resolve_accepts_name_instance_and_none(self, threaded):
        assert kernels.resolve_backend("serial").name == "serial"
        assert kernels.resolve_backend(threaded) is threaded
        assert kernels.resolve_backend(None) is kernels.get_backend()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("gpu")

    def test_use_backend_scopes_and_restores(self):
        before = kernels.get_backend().name
        with kernels.use_backend("threaded") as active:
            assert active.name == "threaded"
            assert kernels.get_backend().name == "threaded"
        assert kernels.get_backend().name == before

    def test_use_backend_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = kernels.get_backend().name

        with kernels.use_backend("threaded"):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert kernels.get_backend().name == "threaded"
        assert seen["other"] == "serial"

    def test_set_backend_round_trip(self):
        previous = kernels.set_backend("threaded")
        try:
            assert kernels.get_backend().name == "threaded"
        finally:
            kernels.set_backend(previous)
        assert kernels.get_backend().name == previous

    def test_register_custom_backend(self):
        class Tagged(BK.SerialBackend):
            name = "tagged"

        kernels.register_backend("tagged", Tagged)
        try:
            assert kernels.resolve_backend("tagged").name == "tagged"
        finally:
            BK._REGISTRY.pop("tagged", None)
            BK._INSTANCES.pop("tagged", None)


class TestThreadedPrimitives:
    def test_matmul_bit_identical_2d(self, rng, threaded):
        a = rng.normal(size=(512, 64))
        b = rng.normal(size=(64, 48))
        out = np.empty((512, 48))
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_matmul_bit_identical_batched(self, rng, threaded):
        a = rng.normal(size=(8, 64, 32))
        b = rng.normal(size=(8, 32, 64))
        out = np.empty((8, 64, 64))
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_matmul_broadcast_operand_not_sliced(self, rng, threaded):
        # one shared (k, n) factor against a batched (b, m, k) operand:
        # the factor has no batch axis and must be broadcast, not sliced
        a = rng.normal(size=(16, 128, 32))
        b = rng.normal(size=(32, 24))
        out = np.empty((16, 128, 24))
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_matmul_square_rows_equal_contraction(self, rng, threaded):
        # regression: square GEMM — the sharded output-row length equals
        # b's contraction length, which the old shape-equality heuristic
        # mistook for a shard axis and K-sliced b (ValueError at runtime)
        a = rng.normal(size=(256, 256))
        b = rng.normal(size=(256, 256))
        out = np.empty((256, 256))
        assert threaded._split_axis(out) == 0  # sharding engages
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_matmul_3d_rows_equal_weight_dim(self, rng, threaded):
        # regression: (B, T, in) @ (in, out) with T == in — the 2-D
        # weight has no row axis and must never be cut along K
        a = rng.normal(size=(2, 192, 192))
        b = rng.normal(size=(192, 128))
        out = np.empty((2, 192, 128))
        assert threaded._split_axis(out) == 1  # the T (row) axis
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_matmul_size1_batch_axis_not_sliced(self, rng, threaded):
        # a size-1 batch axis is broadcast across the shard axis
        a = rng.normal(size=(48, 32, 32))
        b = rng.normal(size=(1, 32, 24))
        out = np.empty((48, 32, 24))
        assert threaded._split_axis(out) == 0  # the batch axis
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_small_matmul_runs_inline(self, rng, threaded):
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(8, 4))
        out = np.empty((4, 4))
        assert threaded._split_axis(out) is None  # below MIN_PARALLEL_ELEMS
        threaded.matmul(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_map_preserves_order(self, threaded):
        got = threaded.map(lambda i: i * i, list(range(37)))
        assert got == [i * i for i in range(37)]

    def test_map_single_item_runs_inline(self, threaded):
        tid = threaded.map(lambda _: threading.get_ident(), [0])
        assert tid == [threading.get_ident()]

    def test_nested_map_does_not_deadlock(self, threaded):
        def outer(i):
            return sum(threaded.map(lambda j: i + j, range(4)))

        got = threaded.map(outer, range(8))
        assert got == [sum(i + j for j in range(4)) for i in range(8)]

    def test_map_propagates_exceptions(self, threaded):
        with pytest.raises(RuntimeError, match="boom"):
            threaded.map(
                lambda i: (_ for _ in ()).throw(RuntimeError("boom")), range(4)
            )

    def test_split_ranges_cover_exactly(self):
        for n in (1, 5, 16, 17):
            for parts in (1, 3, 4, 32):
                ranges = BK._split_ranges(n, parts)
                flat = [i for r in ranges for i in r]
                assert flat == list(range(n))
                assert len(ranges) <= max(1, min(parts, n))

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "3")
        assert BK.ThreadedBackend().workers == 3
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "junk")
        assert BK.ThreadedBackend().workers >= 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestBitParity:
    """Serial and threaded backends must agree byte-for-byte."""

    def test_butterfly_forward_and_vjp(self, rng, dtype, threaded):
        n, rows = 256, 16
        halves = kernels.stage_halves(n)
        coeffs = [rng.normal(size=(4, n // 2)).astype(dtype) for _ in halves]
        x = rng.normal(size=(rows, n)).astype(dtype)
        grad = rng.normal(size=(rows, n)).astype(dtype)
        y_s, ctx_s = kernels.butterfly_apply(x, coeffs, halves)
        y_t, ctx_t = kernels.butterfly_apply(x, coeffs, halves, backend=threaded)
        np.testing.assert_array_equal(y_s, y_t)
        gx_s, gc_s = kernels.butterfly_apply_vjp(grad, ctx_s)
        gx_t, gc_t = kernels.butterfly_apply_vjp(grad, ctx_t, backend=threaded)
        np.testing.assert_array_equal(gx_s, gx_t)
        for a, b in zip(gc_s, gc_t):
            np.testing.assert_array_equal(a, b)

    def test_attention_forward_vjp_decode(self, rng, dtype, threaded):
        b, h, lq, d = 4, 2, 48, 16
        q = rng.normal(size=(b, h, lq, d)).astype(dtype)
        k = rng.normal(size=(b, h, lq, d)).astype(dtype)
        v = rng.normal(size=(b, h, lq, d)).astype(dtype)
        ga = rng.normal(size=(b, h, lq, d)).astype(dtype)
        y_s, ctx_s = kernels.attention_forward(q, k, v, causal=True)
        y_t, ctx_t = kernels.attention_forward(
            q, k, v, causal=True, backend=threaded
        )
        np.testing.assert_array_equal(y_s, y_t)
        for a, b_ in zip(
            kernels.attention_vjp(ga, ctx_s),
            kernels.attention_vjp(ga, ctx_t, backend=threaded),
        ):
            np.testing.assert_array_equal(a, b_)
        dec_s = kernels.attention_decode(q[:, :, -1, :], k, v)
        dec_t = kernels.attention_decode(q[:, :, -1, :], k, v, backend=threaded)
        np.testing.assert_array_equal(dec_s, dec_t)

    def test_active_backend_scoping_matches_explicit(self, rng, dtype):
        n = 256
        halves = kernels.stage_halves(n)
        coeffs = [rng.normal(size=(4, n // 2)).astype(dtype) for _ in halves]
        x = rng.normal(size=(8, n)).astype(dtype)
        y_serial, _ = kernels.butterfly_apply(x, coeffs, halves, need_ctx=False)
        with kernels.use_backend("threaded"):
            y_scoped, _ = kernels.butterfly_apply(x, coeffs, halves, need_ctx=False)
        np.testing.assert_array_equal(y_serial, y_scoped)
