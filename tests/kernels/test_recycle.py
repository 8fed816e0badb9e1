"""The training step's recycler (:class:`repro.kernels.pool.Recycler`).

Generated sequences of takes, releases and step boundaries, each array
held through a different kind of reference, against the two rules: an
array somebody still refers to is never handed out again, and one nobody
does is; and a request of a dtype and size with nothing kept first
drops the free arrays of every one the step has not asked for.
"""

import contextlib
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.kernels.pool import Recycler
from repro.nn.tensor import Tensor

#: Ways a caller can keep an array alive, none of which is the array.
HOLDERS = {
    "array": lambda a: a,
    "slice": lambda a: a.reshape(-1)[1:],
    "transpose": lambda a: a.T,
    "reshape": lambda a: a.reshape(-1, 1),
    "closure": lambda a: (lambda: a),
    "tensor": lambda a: Tensor(a, dtype=a.dtype),
    "memoryview": memoryview,
    "container": lambda a: {"saved": [a]},
}
SHAPES = [(4, 6), (24,), (6, 4), (3, 8), (5, 5)]  # three of size 24
DTYPES = [np.float32, np.float64, np.int64]


def _span(array):
    start = array.__array_interface__["data"][0]
    return start, start + array.nbytes


def _overlap(a, b):
    return a[0] < b[1] and b[0] < a[1]


@contextlib.contextmanager
def _metrics():
    """Telemetry on a fresh registry; yields a reader of the recycler's metrics."""
    previous = telemetry.set_registry(telemetry.Registry())
    try:
        with telemetry.use_telemetry():
            yield lambda: {
                name[len("training_recycle_"):]: entry["value"]
                for name, entry in telemetry.get_registry().snapshot().items()
                if name.startswith("training_recycle_")
            }
    finally:
        telemetry.set_registry(previous)


@st.composite
def _programs(draw):
    """``("take", shape, dtype, holder)`` / ``("drop", index)`` / ``("step",)``."""
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["take", "take", "drop", "drop", "step"]))
        if kind == "take":
            ops.append(("take", draw(st.sampled_from(SHAPES)),
                        draw(st.sampled_from(DTYPES)),
                        draw(st.sampled_from(sorted(HOLDERS)))))
        elif kind == "drop":
            ops.append(("drop", draw(st.integers(0, 1000))))
        else:
            ops.append(("step",))
    return ops


class TestOwnership:
    @settings(max_examples=150, deadline=None)
    @given(_programs())
    def test_a_held_array_is_never_handed_out_and_a_released_one_is(self, program):
        recycler = Recycler()
        held = []  # (holder, span, key)
        released = {}  # key -> spans of arrays nobody holds any more
        asked = set()  # keys taken since the last step
        hits = misses = 0
        with _metrics() as read, recycler.scope():
            for op in program:
                if op[0] == "step":
                    recycler.next_step()
                    asked.clear()
                    continue
                if op[0] == "drop":
                    if held:
                        _, span, key = held.pop(op[1] % len(held))
                        released.setdefault(key, set()).add(span)
                    continue
                _, shape, dtype, holder = op
                key = (np.dtype(dtype), int(np.prod(shape)))
                asked.add(key)
                array = recycler.empty(shape, dtype)
                assert array.shape == shape and array.dtype == dtype
                span = _span(array)
                assert not any(_overlap(span, other) for _, other, _ in held)
                free = released.get(key, set())
                if free:
                    # A free array of the same dtype and size is reused first.
                    assert span in free
                    free.discard(span)
                    hits += 1
                else:
                    # A key with nothing kept first drops what nobody holds
                    # of the keys not asked for this step.
                    if not any(k == key for _, _, k in held):
                        for other, spans in released.items():
                            if other not in asked:
                                spans.clear()
                    misses += 1
                held.append((HOLDERS[holder](array), span, key))
                del array
            counts = read()
        assert counts.get("hits_total", 0) == hits
        assert counts.get("misses_total", 0) == misses
        kept = sum(k[0].itemsize * k[1] for _, _, k in held)
        kept += sum(k[0].itemsize * k[1] * len(spans) for k, spans in released.items())
        assert counts.get("bytes", 0) == kept

    def test_shape_is_free_size_and_dtype_are_not(self):
        recycler = Recycler()
        with recycler.scope():
            span = _span(recycler.empty((4, 6), np.float64))
            assert _span(recycler.empty((24,), np.float64)) == span
            assert _span(recycler.empty((2, 12), np.float64)) == span
            assert _span(recycler.empty((48,), np.float32)) != span  # same bytes
            assert _span(recycler.empty((25,), np.float64)) != span

    def test_helpers_take_from_the_same_arrays(self):
        recycler = Recycler()
        x = np.arange(6.0).reshape(2, 3)
        with recycler.scope():
            span = _span(recycler.empty((6,), np.float64))
            copy = recycler.copy(x.T)
            assert _span(copy) == span and copy.flags.c_contiguous
            np.testing.assert_array_equal(copy, x.T)
            out = recycler.out(x, np.ones(3, np.float32))
            assert out.shape == (2, 3) and out.dtype == np.float64
            assert _span(out) != span
            assert recycler.copy(x, np.float32).dtype == np.float32
        assert recycler.out(x, x) is None  # outside a scope NumPy allocates


class TestScope:
    def test_outside_a_scope_empty_is_np_empty(self):
        recycler = Recycler()
        array = recycler.empty((4, 6), np.float32)
        assert array.base is None and array.dtype == np.float32  # owns its data
        with recycler.scope():
            assert recycler.empty((4, 6), np.float32).base is not None
        assert recycler.empty((4, 6), np.float32).base is None

    def test_leaving_the_scope_drops_the_arrays(self):
        recycler = Recycler()
        with recycler.scope():
            array = recycler.empty((1024,), np.float64)
            kept = array.base
        assert recycler.empty((1024,), np.float64).base is None
        # What a caller still holds stays valid after the scope.
        array[:] = 1.0
        assert kept.sum() == 1024.0

    def test_threads_are_isolated(self):
        recycler = Recycler()
        seen = {}

        def worker():
            seen["outside"] = recycler.empty((64,), np.float64).base is None
            with recycler.scope():
                seen["span"] = _span(recycler.empty((64,), np.float64))

        with recycler.scope():
            span = _span(recycler.empty((64,), np.float64))  # free from here on
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert seen["outside"]  # the main thread's scope is not the worker's
            assert seen["span"] != span
            assert _span(recycler.empty((64,), np.float64)) == span


class TestCounters:
    def test_hits_misses_and_bytes_keep_their_names(self):
        previous = telemetry.set_registry(telemetry.Registry())
        try:
            with telemetry.use_telemetry():
                recycler = Recycler()
                with recycler.scope():
                    recycler.empty((4,), np.float32)
                    recycler.empty((4,), np.float32)
                    held = recycler.empty((4,), np.float32)
                    snapshot = telemetry.get_registry().snapshot()
                    del held
                after = telemetry.get_registry().snapshot()
        finally:
            telemetry.set_registry(previous)
        counts = {name: entry["value"] for name, entry in snapshot.items()
                  if name.startswith("training_recycle")}
        assert counts == {
            "training_recycle_misses_total": 1,
            "training_recycle_hits_total": 2,
            "training_recycle_bytes": 16,
        }
        assert after["training_recycle_bytes"]["value"] == 0
