"""Engine-protocol conformance: both engines, one API.

The unified :class:`repro.serving.api.Engine` protocol is the only
supported integration surface for front ends; these tests run the same
behavioural checks against :class:`ServingEngine` and
:class:`ClusterEngine` so the two can never drift apart again, plus the
stream-vs-close race.  Every call names its request by the ``int`` id
``submit`` returned.
"""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.models import ModelConfig, build_butterfly_decoder
import repro.serving
from repro.serving import LoadSheddingAdmission, SamplingParams
from repro.serving import api
from repro.serving.api import Engine
from repro.serving.cluster import ClusterEngine
from repro.serving.engine import ServingEngine
from repro.serving.scheduler import (
    FINISH_CANCELLED,
    FINISH_DEADLINE,
    FINISH_LENGTH,
    FINISH_SHED,
)


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    return build_butterfly_decoder(config).eval()


ENGINES = ["serving", "cluster"]


@pytest.fixture(params=ENGINES)
def engine(request, model):
    if request.param == "serving":
        eng = ServingEngine(model, max_batch_size=4, seed=0)
    else:
        eng = ClusterEngine(
            model, workers=2, max_batch_size=4, seed=0, start_method="fork",
        )
    yield eng
    eng.close()


def _prompt(seed=0, size=4):
    return np.random.default_rng(seed).integers(1, 28, size=size)


class TestProtocolConformance:
    def test_runtime_checkable(self, engine):
        assert isinstance(engine, Engine)

    def test_submit_returns_the_id(self, engine):
        rid = engine.submit(_prompt(), SamplingParams(max_new_tokens=3))
        assert isinstance(rid, int)
        engine.drain(timeout_s=60.0)
        assert engine.result(rid).finish_reason == FINISH_LENGTH

    def test_stream_drives_engine(self, engine):
        rid = engine.submit(_prompt(1), SamplingParams(max_new_tokens=4))
        tokens = list(engine.stream(rid))
        assert len(tokens) == 4
        assert engine.result(rid).finished
        assert tokens == engine.result(rid).tokens

    def test_bare_int_shim(self, engine):
        """The handle is the request id: its int calls the engine the
        same way."""
        rid = engine.submit(_prompt(2), SamplingParams(max_new_tokens=3))
        tokens = list(engine.stream(int(rid)))
        assert len(tokens) == 3
        assert engine.result(int(rid)).finish_reason == FINISH_LENGTH
        assert {int(rid): "x"}[rid] == "x"  # usable as a plain dict key

    def test_cancel(self, engine):
        rid = engine.submit(_prompt(3), SamplingParams(max_new_tokens=64))
        assert engine.cancel(rid) is True
        assert engine.cancel(rid) is False  # already terminal
        assert engine.result(rid).finish_reason == FINISH_CANCELLED
        assert list(engine.stream(rid)) == engine.result(rid).tokens

    def test_has_work_and_step(self, engine):
        assert engine.has_work is False
        rid = engine.submit(_prompt(4), SamplingParams(max_new_tokens=2))
        assert engine.has_work is True
        deadline = time.monotonic() + 30.0
        while engine.has_work and time.monotonic() < deadline:
            engine.step()
            time.sleep(0.002)  # cluster steps are non-blocking pumps
        assert engine.result(rid).finished

    def test_drain_returns_results(self, engine):
        handles = [
            engine.submit(_prompt(10 + i), SamplingParams(max_new_tokens=3))
            for i in range(3)
        ]
        results = engine.drain(timeout_s=60.0)
        for handle in handles:
            assert results[int(handle)].finish_reason == FINISH_LENGTH

    def test_close_flushes_live_requests_to_cancelled(self, engine):
        rid = engine.submit(_prompt(5), SamplingParams(max_new_tokens=64))
        engine.close()
        assert engine.result(rid).finish_reason in (FINISH_CANCELLED, FINISH_LENGTH)
        # close() is idempotent and stream() never hangs afterwards
        engine.close()
        assert list(engine.stream(rid)) == engine.result(rid).tokens

    @pytest.mark.parametrize("bad", [
        [3, 28, 5],     # == vocab_size: raised inside step, never terminal
        [3, -1, 5],     # negative: silently wrapped in the embedding gather
        [],
    ])
    def test_prompt_outside_the_vocabulary_refused_at_submit(self, engine, bad):
        first = engine.submit(_prompt(7), SamplingParams(max_new_tokens=2))
        assert len(list(engine.stream(first))) == 2
        with pytest.raises(ValueError, match="prompt"):
            engine.submit(np.asarray(bad, dtype=np.int64),
                          SamplingParams(max_new_tokens=2))
        assert engine.has_work is False
        second = engine.submit(_prompt(8), SamplingParams(max_new_tokens=2))
        assert int(second) == int(first) + 1  # the refusal consumed no id
        engine.drain(timeout_s=60.0)
        assert engine.result(first).finish_reason == FINISH_LENGTH
        assert engine.result(second).finish_reason == FINISH_LENGTH
        assert engine.metrics_snapshot()["aggregate"]["completed"] == 2

    def test_a_float_prompt_is_refused_at_submit(self, engine):
        """It was truncated to ids (``[1.7, 3.2]`` served ``[1, 3]``)."""
        with pytest.raises(ValueError, match="prompt must be integer ids"):
            engine.submit(np.array([1.7, 3.2]), SamplingParams(max_new_tokens=2))
        assert engine.has_work is False

    @pytest.mark.parametrize("kind", ENGINES)
    def test_every_request_finishes_exactly_once(self, kind, model):
        """Normal finish, cancel, shed, deadline and close-with-live-work:
        each accepted request makes one terminal transition."""
        if kind == "serving":
            engine = ServingEngine(
                model, max_batch_size=1, seed=0,
                admission=LoadSheddingAdmission(max_queue_depth=2),
            )
        else:
            engine = ClusterEngine(
                model, workers=2, max_batch_size=1, seed=0,
                start_method="fork",
                admission=LoadSheddingAdmission(max_queue_depth=2),
            )
        on_finish, transitions = Counter(), Counter()
        metrics_on_finish = engine.metrics.on_finish
        table_finish = engine.requests.finish

        def count_on_finish(request_id, reason):
            on_finish[request_id] += 1
            metrics_on_finish(request_id, reason)

        def count_finish(request_id, reason):
            done = table_finish(request_id, reason)
            transitions[request_id] += done
            return done

        engine.metrics.on_finish = count_on_finish
        engine.requests.finish = count_finish
        long = SamplingParams(max_new_tokens=100_000)

        def reason(rid):
            return engine.result(rid).finish_reason

        try:
            natural = engine.submit(_prompt(20), SamplingParams(max_new_tokens=2))
            assert len(list(engine.stream(natural))) == 2
            cancelled = engine.submit(_prompt(21), long)
            assert engine.cancel(cancelled)
            expiring = engine.submit(
                _prompt(22), SamplingParams(max_new_tokens=100_000, deadline_s=0.3))
            live = [engine.submit(_prompt(23), long)]
            while reason(live[-1]) != FINISH_SHED:
                assert len(live) < 16, "the queue never filled"
                live.append(engine.submit(_prompt(24 + len(live)), long))
            shed = live.pop()
            stop = time.monotonic() + 30.0
            while reason(expiring) is None and time.monotonic() < stop:
                engine.step()
                time.sleep(0.001)
            results = engine.close()
        finally:
            engine.close()
        assert reason(natural) == FINISH_LENGTH
        assert reason(cancelled) == FINISH_CANCELLED
        assert reason(expiring) == FINISH_DEADLINE
        assert reason(shed) == FINISH_SHED
        assert {reason(rid) for rid in live} == {FINISH_CANCELLED}
        assert set(results) == set(on_finish) == set(transitions)
        assert set(on_finish.values()) == set(transitions.values()) == {1}

    def test_health_and_metrics_surface(self, engine):
        health = engine.health()
        assert health["healthy"] is True
        assert health["workers_alive"] >= 1
        assert health["workers_total"] >= 1
        assert set(health["workers"]) == set(range(health["workers_total"]))
        engine.submit(_prompt(6), SamplingParams(max_new_tokens=2))
        engine.drain(timeout_s=60.0)
        snap = engine.metrics_snapshot()
        assert snap["aggregate"]["completed"] == 1
        text = engine.render_prometheus()
        assert "# TYPE" in text


class TestRequestHandle:
    def test_the_id_type_has_one_name(self):
        """The id type has one name."""
        assert not hasattr(api, "SubmitResult")
        assert "SubmitResult" not in repro.serving.__all__


class TestStreamShutdownRace:
    @pytest.mark.parametrize("kind", ENGINES)
    def test_stream_never_hangs_across_shutdown(self, kind, model):
        """A consumer blocked in stream() while another thread closes
        the engine must terminate promptly with a terminal reason, not
        hang (close flushes results while stream() may sit between its
        finished-check and its next step)."""
        if kind == "serving":
            engine = ServingEngine(model, max_batch_size=2, seed=0)
        else:
            engine = ClusterEngine(
                model, workers=2, max_batch_size=2, seed=0,
                start_method="fork",
            )
        rid = engine.submit(_prompt(8), SamplingParams(max_new_tokens=64))
        tokens = []
        error = []

        def consume():
            try:
                tokens.extend(engine.stream(rid))
            except Exception as exc:  # pragma: no cover - failure detail
                error.append(exc)

        consumer = threading.Thread(target=consume)
        consumer.start()
        engine.close()
        consumer.join(timeout=30.0)
        assert not consumer.is_alive(), "stream() hung across close"
        assert not error
        assert engine.result(rid).finish_reason in (FINISH_CANCELLED, FINISH_LENGTH)
