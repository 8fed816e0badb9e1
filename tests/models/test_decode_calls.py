"""The decode step at the numpy call floor, counted.

One ``decode_step`` of the tiny serving decoder (the config ``repro
serve`` builds by default, which ``serve_open`` and ``http_stream``
serve) is profiled with ``sys.setprofile``: every Python-level ``call``
event is attributed to numpy's package or to ``repro``'s.  The step's
reductions go straight to the ufuncs and its projections straight to
their frozen operators, so no call may land in numpy's Python wrappers
(``np.mean``, ``ndarray.max`` / ``sum`` / ``all``, ``np.result_type``)
and the ``repro``-level count may not grow past :data:`REPRO_CALLS`.
A gate on counts, not on timings: it fails the same way on every
machine.
"""

from __future__ import annotations

import collections
import os
import sys

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.models import ModelConfig, build_butterfly_decoder
from repro.telemetry import use_telemetry

#: ``repro serve``'s default decoder (``--d-hidden 32 --n-total 2
#: --max-len 128 --seed 0``).
TINY_DECODER = dict(
    vocab_size=28, n_classes=2, max_len=128, d_hidden=32, n_heads=4,
    r_ffn=2, n_total=2, seed=0,
)
#: ``repro``-level calls of one warm step: 12 projections (closure +
#: ``FrozenLadder.apply``), 17 GEMMs, 29 fault points, 15 spans and the
#: kernels between them.  Lower it when a change removes calls.
REPRO_CALLS = 153
#: Two blocks of Q/K/V/out + FFN up/down ladders.
LADDERS = 12

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


@pytest.fixture(scope="module")
def model():
    return build_butterfly_decoder(ModelConfig(**TINY_DECODER)).eval()


def warm_step(model, batch):
    """A cache after a prefill and one step (the program is compiled and
    every pool has its buffers), and the next step's tokens."""
    rng = np.random.default_rng(batch)
    cache = model.make_cache(batch)
    model.prefill(rng.integers(0, TINY_DECODER["vocab_size"], (batch, 5)), cache)
    tokens = rng.integers(0, TINY_DECODER["vocab_size"], batch)
    model.decode_step(tokens, cache)
    return cache, tokens


def count_calls(call):
    """``(numpy, repro)`` Python-level call counts of ``call()``, with the
    numpy functions that were entered."""
    counts = collections.Counter()
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if filename.startswith(NUMPY_DIR):
            counts["numpy"] += 1
            entered[frame.f_code.co_name] += 1
        elif filename.startswith(REPRO_DIR):
            counts["repro"] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts["numpy"], counts["repro"], entered


@pytest.mark.parametrize("batch", [1, 4])
class TestDecodeStepCalls:
    def test_no_numpy_wrapper_is_entered(self, model, batch):
        cache, tokens = warm_step(model, batch)
        numpy_calls, _, entered = count_calls(
            lambda: model.decode_step(tokens, cache))
        assert numpy_calls == 0, dict(entered)

    def test_repro_calls_stay_at_the_floor(self, model, batch):
        cache, tokens = warm_step(model, batch)
        _, repro_calls, _ = count_calls(lambda: model.decode_step(tokens, cache))
        assert repro_calls <= REPRO_CALLS

    def test_every_ladder_still_records_its_span(self, model, batch):
        cache, tokens = warm_step(model, batch)
        telemetry.clear_all()
        try:
            with use_telemetry(True):
                model.decode_step(tokens, cache)
            spans = [record for record in telemetry.span_records()
                     if record.name == "kernels.butterfly_apply"]
        finally:
            telemetry.clear_all()
        assert len(spans) == LADDERS
        assert {span.attrs["path"] for span in spans} == {"frozen"}
