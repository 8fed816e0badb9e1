"""A forked child runs long attention on a helper lane of its own.

The parent's helper lane is a thread, and a ``fork`` copies only the
forking thread: a child that posted its items to the inherited lane
would wait for a thread that does not exist.  ``attention.py`` drops the
lane in the child (``os.register_at_fork``), so the child's first call
above the floor starts its own.  The child here must return the parent's
bytes within the timeout; an inherited dead lane hangs it instead.
"""

import multiprocessing

import numpy as np
import pytest

from repro.kernels import attention as AK

#: Above :data:`~repro.kernels.attention.LANE_MIN_SCORES`: 32 query tiles.
SHAPE = (1, 4, 1024, 32)
TIMEOUT_S = 60


def _operands():
    rng = np.random.default_rng(7)
    return [rng.normal(size=SHAPE).astype(np.float32) for _ in range(3)]


def _child(conn) -> None:
    out, _ = AK.attention_forward(*_operands(), need_ctx=False)
    conn.send(out.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this platform")
def test_forked_child_starts_its_own_lane():
    assert SHAPE[0] * SHAPE[1] * SHAPE[2] ** 2 >= AK.LANE_MIN_SCORES
    want, _ = AK.attention_forward(*_operands(), need_ctx=False)
    assert AK._LANE is not None  # the parent's lane is up
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(TIMEOUT_S), "the forked child hung in attention"
        assert receive.recv() == want.tobytes()
        child.join(TIMEOUT_S)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
