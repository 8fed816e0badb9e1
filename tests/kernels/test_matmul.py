"""The kernel layer's one GEMM entry, ``kernels.backend.matmul``.

The blocked GEMMs of the butterfly ladder (grouped, dense and frozen),
the decode attention step and the fused training projections all go
through it: it is where ``repro chaos`` fires ``kernels.matmul`` and
where a test spies on a kernel's GEMMs.  Its obligations, kernel by
kernel:

* it writes ``np.matmul``'s bytes into the caller's ``out`` at every
  operand layout the kernels hand it, and returns ``out``;
* its fault point fires once per GEMM, before ``out`` is touched;
* a spy that delegates sees every GEMM and changes no byte;
* a fault at any one of a kernel's GEMMs leaves nothing behind: the
  retry gives the clean call's bytes (the serving layer's rollback and
  retry rely on it);
* rows on a leading batch axis are independent: a batch gives the
  bytes of its halves run apart.
"""

import numpy as np
import pytest

from repro import kernels as K
from repro.faults import TransientFault, use_faults
from repro.kernels import backend

DTYPES = [np.float64, np.float32]


def _operands(rng, a_shape, b_shape, dtype):
    return (rng.normal(size=a_shape).astype(dtype),
            rng.normal(size=b_shape).astype(dtype))


# Every operand layout a kernel hands the entry, as (a, b, out) builders.
LAYOUTS = {
    "2d": lambda rng, dt: (*_operands(rng, (512, 64), (64, 48), dt),
                           np.empty((512, 48), dt)),
    "batched": lambda rng, dt: (*_operands(rng, (8, 64, 32), (8, 32, 64), dt),
                                np.empty((8, 64, 64), dt)),
    # one shared (k, n) factor against a batched (b, m, k) operand
    "broadcast_factor": lambda rng, dt: (*_operands(rng, (16, 128, 32), (32, 24), dt),
                                         np.empty((16, 128, 24), dt)),
    "square": lambda rng, dt: (*_operands(rng, (256, 256), (256, 256), dt),
                               np.empty((256, 256), dt)),
    # (B, T, in) @ (in, out) with T == in
    "rows_equal_weight_dim": lambda rng, dt: (
        *_operands(rng, (2, 192, 192), (192, 128), dt), np.empty((2, 192, 128), dt)),
    "size1_batch_axis": lambda rng, dt: (
        *_operands(rng, (48, 32, 32), (1, 32, 24), dt), np.empty((48, 32, 24), dt)),
    "small": lambda rng, dt: (*_operands(rng, (4, 8), (8, 4), dt),
                              np.empty((4, 4), dt)),
    # dense_vjp's dW[:, :out_features]: a column slice of a wider buffer
    "strided_out": lambda rng, dt: (*_operands(rng, (40, 96), (96, 24), dt),
                                    np.empty((40, 64), dt)[:, :24]),
    # _grad_w_into's g2.T: a transposed view as the left operand
    "transposed_operand": lambda rng, dt: (
        rng.normal(size=(96, 40)).astype(dt).T, rng.normal(size=(96, 24)).astype(dt),
        np.empty((40, 24), dt)),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_writes_np_matmul_bytes_into_out(rng, layout, dtype):
    a, b, out = LAYOUTS[layout](rng, dtype)
    assert backend.matmul(a, b, out) is out
    np.testing.assert_array_equal(out, np.matmul(a, b))


class TestFaultPoint:
    def test_fires_with_the_output_size(self, rng):
        a, b, out = LAYOUTS["batched"](rng, np.float64)
        with use_faults("kernels.matmul:transient") as injector:
            with pytest.raises(TransientFault) as err:
                backend.matmul(a, b, out)
        assert err.value.point == "kernels.matmul"
        assert err.value.context == {"elems": out.size}
        assert injector.injected_total == 1

    def test_fault_leaves_out_untouched(self, rng):
        a, b, out = LAYOUTS["2d"](rng, np.float32)
        out[...] = 7.0
        with use_faults("kernels.matmul:transient"):
            with pytest.raises(TransientFault):
                backend.matmul(a, b, out)
        assert (out == 7.0).all()

    def test_one_traversal_per_call(self, rng):
        a, b, out = LAYOUTS["small"](rng, np.float64)
        with use_faults("kernels.matmul:transient:after=3") as injector:
            for _ in range(3):
                backend.matmul(a, b, out)
            with pytest.raises(TransientFault):
                backend.matmul(a, b, out)
            backend.matmul(a, b, out)  # times=1: the fault is spent
        assert injector.snapshot()["rules"][0]["hits"] == 5


def _ladder(rng, n, dtype):
    halves = K.stage_halves(n)
    coeffs = [(rng.normal(size=(4, n // 2)) * 0.7).astype(dtype) for _ in halves]
    return coeffs, halves


def _grouped(rng, dtype):
    """Ladder forward and VJP on the grouped kernel (rows < n)."""
    coeffs, halves = _ladder(rng, 256, dtype)
    x = rng.normal(size=(128, 256)).astype(dtype)
    grad = rng.normal(size=(128, 256)).astype(dtype)

    def run():
        y, ctx = K.butterfly_apply(x, coeffs, halves)
        assert ctx[0] == "grouped"
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        return [y, gx, *gcoeffs]
    return run


def _dense(rng, dtype):
    """A small fold's recorded call: one GEMM each way."""
    coeffs, halves = _ladder(rng, 256, dtype)
    x = rng.normal(size=(2, 64, 64)).astype(dtype)
    grad = rng.normal(size=(2, 64, 256)).astype(dtype)

    def run():
        y, ctx = K.butterfly_apply(x, coeffs, halves,
                                   in_features=64, out_features=256)
        assert ctx[0] == "dense"
        gx, gcoeffs = K.butterfly_apply_vjp(grad, ctx)
        return [y, gx, *gcoeffs]
    return run


def _frozen_chunked(rng, dtype):
    """A ten-stage frozen ladder: one GEMM per chunk."""
    coeffs, _ = _ladder(rng, 1024, dtype)
    ladder = K.FrozenLadder(coeffs, dtype)
    assert len(ladder.ops) > 1
    x = rng.normal(size=(3, 5, 1024)).astype(dtype)
    return lambda: [ladder.apply(x)]


def _frozen_folded(rng, dtype):
    """A fold inside the area budget: the ladder is one (in, out) GEMM."""
    coeffs, _ = _ladder(rng, 256, dtype)
    ladder = K.FrozenLadder(coeffs, dtype, in_features=64, out_features=200)
    assert len(ladder.ops) == 1
    x = rng.normal(size=(3, 7, 64)).astype(dtype)
    return lambda: [ladder.apply(x)]


def _decode(rng, dtype):
    q = rng.normal(size=(3, 2, 16)).astype(dtype)
    k = rng.normal(size=(3, 2, 20, 16)).astype(dtype)
    v = rng.normal(size=(3, 2, 20, 16)).astype(dtype)
    lengths = np.array([19, 7, 12])
    return lambda: [K.attention_decode(q, k, v, lengths=lengths)]


def _linear_act(rng, dtype):
    w = rng.normal(size=(48, 32)).astype(dtype)
    bias = rng.normal(size=48).astype(dtype)
    x = rng.normal(size=(4, 9, 32)).astype(dtype)
    grad = rng.normal(size=(4, 9, 48)).astype(dtype)

    def run():
        y, ctx = K.linear_act_forward(x, w, bias)
        return [y, *K.linear_act_vjp(grad, ctx)]
    return run


KERNELS = {
    "grouped": _grouped,
    "dense": _dense,
    "frozen_chunked": _frozen_chunked,
    "frozen_folded": _frozen_folded,
    "attention_decode": _decode,
    "linear_act": _linear_act,
}


def _copies(arrays):
    return [np.array(a, copy=True) for a in arrays]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestEveryGemmGoesThroughTheEntry:
    def test_spy_sees_every_gemm_and_changes_no_byte(self, rng, monkeypatch,
                                                     kernel, dtype):
        run = KERNELS[kernel](rng, dtype)
        clean = _copies(run())
        with use_faults("kernels.matmul:transient:after=1000000") as injector:
            run()
        gemms = injector.snapshot()["rules"][0]["hits"]
        calls = []
        real = backend.matmul

        def spy(a, b, out):
            calls.append(out.dtype)
            return real(a, b, out)

        monkeypatch.setattr(backend, "matmul", spy)
        _assert_same_bytes(_copies(run()), clean)
        assert gemms >= 1 and len(calls) == gemms
        assert set(calls) == {np.dtype(dtype)}

    def test_fault_at_any_gemm_then_retry_gives_clean_bytes(self, rng, kernel,
                                                            dtype):
        run = KERNELS[kernel](rng, dtype)
        clean = _copies(run())
        with use_faults("kernels.matmul:transient:after=1000000") as injector:
            run()
        gemms = injector.snapshot()["rules"][0]["hits"]
        for k in range(gemms):
            with use_faults(f"kernels.matmul:transient:after={k}"):
                with pytest.raises(TransientFault):
                    run()
            _assert_same_bytes(_copies(run()), clean)


@pytest.mark.parametrize("dtype", DTYPES)
class TestBatchRowsAreIndependent:
    """A batch's leading-axis rows are their own: the batch gives the
    bytes of its two halves run apart."""

    def test_attention_forward_vjp_decode(self, rng, dtype):
        b, h, lq, d = 4, 2, 48, 16
        q, k, v, ga = (rng.normal(size=(b, h, lq, d)).astype(dtype)
                       for _ in range(4))

        def run(rows):
            y, ctx = K.attention_forward(q[rows], k[rows], v[rows], causal=True)
            grads = K.attention_vjp(ga[rows], ctx)
            dec = K.attention_decode(q[rows, :, -1, :], k[rows], v[rows])
            return _copies([y, *grads, dec])

        whole = run(np.s_[:])
        halves = zip(run(np.s_[:2]), run(np.s_[2:]))
        _assert_same_bytes(whole, [np.concatenate(pair) for pair in halves])

    def test_frozen_ladder(self, rng, dtype):
        chunked = K.FrozenLadder(_ladder(rng, 1024, dtype)[0], dtype)
        folded = K.FrozenLadder(_ladder(rng, 256, dtype)[0], dtype,
                                in_features=64, out_features=200)
        for ladder, width in ((chunked, 1024), (folded, 64)):
            x = rng.normal(size=(4, 6, width)).astype(dtype)
            whole = ladder.apply(x)
            parts = np.concatenate([ladder.apply(x[:2]), ladder.apply(x[2:])])
            assert whole.tobytes() == parts.tobytes()
