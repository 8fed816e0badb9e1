"""Wave prefill: one model call per run of equal-length prompts, tokens unmoved.

Three layers of evidence that grouping admitted (and window-edge) rows into
one ``prefill`` per run of equal window lengths is invisible in the output:
a generated scheduler test that is blind to batch composition (every request
equals its solo run whatever it was batched with), counted tests with a spy
on ``model.prefill`` / ``DecoderKVCache.merge``, and rollback tests for a
``serving.prefill`` fault in the middle of a wave.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.faults import TransientFault, use_faults
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import (
    ResilienceConfig,
    SamplingParams,
    SchedulerSnapshot,
    ServingEngine,
)
from repro.serving.kv_cache import DecoderKVCache

VOCAB = 28
RESILIENCE = ResilienceConfig()


@functools.lru_cache(maxsize=None)
def served_model(kind, max_len):
    """The fp butterfly decoder, or the int8 replica of a small dense one;
    hypothesis examples share one model (and so one program) per cell."""
    config = ModelConfig(
        vocab_size=VOCAB, n_classes=2, max_len=max_len, d_hidden=32, n_heads=4,
        r_ffn=2, n_total=2, seed=0, dtype="float64" if kind == "fp" else "float32",
    )
    with config.dtype_context():
        if kind == "fp":
            return build_butterfly_decoder(config).eval()
        return nn.quantize_for_inference(build_dense_decoder(config).eval(), mode="int8")


def solo_tokens(model, prompt, params):
    engine = ServingEngine(model, max_batch_size=1, seed=0)
    rid = engine.submit(prompt, params)
    return engine.run()[rid].tokens


@st.composite
def scenarios(draw):
    """``(max_batch_size, max_len, requests)``.  Prompt lengths come from a
    small set, so equal-length runs, singletons and prompts at or past the
    window all occur; budgets of 1-20 tokens reach first-token finishes and
    window-edge refills; a request may be cancelled while queued (at its
    arrival step) or later, running or already finished."""
    max_len = draw(st.sampled_from((16, 24, 32)))
    requests = draw(st.lists(st.fixed_dictionaries({
        "length": st.sampled_from((2, 5, 9, max_len - 1, max_len, max_len + 6)),
        "params": st.builds(
            SamplingParams,
            max_new_tokens=st.just(1) | st.integers(1, 20),
            temperature=st.sampled_from((0.0, 0.8)),
            seed=st.integers(0, 2**16),
            stop_token=st.none() | st.integers(0, VOCAB - 1),
        ),
        "arrival": st.integers(0, 6),
        "cancel_after": st.none() | st.integers(0, 8),
        "prompt_seed": st.integers(0, 2**16),
    }), min_size=1, max_size=10))
    return draw(st.integers(1, 5)), max_len, requests


@pytest.mark.parametrize("kind", ["fp", "int8"])
@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_generated_schedules_match_solo_runs(kind, scenario):
    max_batch_size, max_len, requests = scenario
    model = served_model(kind, max_len)
    engine = ServingEngine(model, max_batch_size=max_batch_size, seed=0)
    scheduler = engine.scheduler
    prompts = [np.random.default_rng(r["prompt_seed"]).integers(0, VOCAB, size=r["length"])
               for r in requests]
    ids, cancelled, terminal = {}, set(), Counter()
    step = 0
    while engine.has_work or step <= max(r["arrival"] for r in requests):
        for index, request in enumerate(requests):
            if request["arrival"] == step:
                ids[index] = engine.submit(prompts[index], request["params"])
        for index, request in enumerate(requests):
            due = request["cancel_after"]
            if due is not None and request["arrival"] + due == step:
                if engine.cancel(ids[index]):
                    cancelled.add(index)
        for event in engine.step():
            assert not terminal[event.request_id], "event after a terminal state"
            terminal[event.request_id] += event.finished
        assert scheduler.batch_size <= max_batch_size
        if scheduler.active:
            assert scheduler.cache.batch == len(scheduler.active)
        else:
            assert scheduler.cache is None
        step += 1
    assert scheduler.cache is None and not scheduler.waiting

    for index, request in enumerate(requests):
        result = engine.result(ids[index])
        want = solo_tokens(model, prompts[index], request["params"])
        if index in cancelled:
            # Queued cancels leave no event, running ones exactly one.
            assert result.finish_reason == "cancelled"
            assert terminal[ids[index]] <= 1
            assert result.tokens == want[:len(result.tokens)]
        else:
            assert result.finish_reason in ("length", "stop")
            assert terminal[ids[index]] == 1
            assert result.tokens == want


# ----------------------------------------------------------------------
# Counted: what the scheduler asks of the model
# ----------------------------------------------------------------------
class PrefillSpy:
    """The served-model protocol around a real model, recording each
    ``prefill``'s tokens and returned logits."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.calls = []

    def eval(self):
        return self

    def make_cache(self, batch):
        return self._model.make_cache(batch)

    def decode_step(self, tokens, cache):
        return self._model.decode_step(tokens, cache)

    def prefill(self, tokens, cache):
        logits = self._model.prefill(tokens, cache)
        self.calls.append((np.array(tokens), logits))
        return logits

    def shapes(self):
        return [tokens.shape for tokens, _ in self.calls]


@pytest.fixture
def spy():
    return PrefillSpy(served_model("fp", 32))


@pytest.fixture
def merges(monkeypatch):
    """Every ``DecoderKVCache.merge`` made while the test runs."""
    calls = []
    real = DecoderKVCache.merge

    def counting(caches):
        calls.append(len(caches))
        return real(caches)

    monkeypatch.setattr(DecoderKVCache, "merge", staticmethod(counting))
    return calls


def _submit(engine, lengths, max_new_tokens=4, first_seed=0):
    prompts = [np.random.default_rng(100 + i).integers(0, VOCAB, size=n)
               for i, n in enumerate(lengths)]
    params = [SamplingParams(max_new_tokens=max_new_tokens, temperature=0.8,
                             seed=first_seed + i) for i in range(len(lengths))]
    return prompts, params, [engine.submit(p, q) for p, q in zip(prompts, params)]


def _assert_rows_are_solo_bytes(spy, prompts_by_row):
    """Each row of a group call's logits is the solo ``prefill`` of that
    prompt, byte for byte — the contract, at the scheduler's call shape."""
    model = served_model("fp", 32)
    rows = [row for _, logits in spy.calls for row in logits]
    assert len(rows) == len(prompts_by_row)
    for row, prompt in zip(rows, prompts_by_row):
        solo = model.prefill(prompt[None, :], model.make_cache(1))[0]
        assert np.array_equal(row, solo)


class TestPrefillCalls:
    def test_equal_length_backlog_is_one_call_and_no_merge(self, spy, merges):
        engine = ServingEngine(spy, max_batch_size=8, seed=0)
        prompts, _, ids = _submit(engine, [6] * 8)
        events = engine.step()
        assert spy.shapes() == [(8, 6)]
        assert merges == []  # the wave's cache is the batch cache
        assert [e.request_id for e in events] == ids
        assert all(e.first and e.index == 0 for e in events)
        _assert_rows_are_solo_bytes(spy, prompts)

    def test_one_call_per_distinct_length_in_first_seen_order(self, spy, merges):
        engine = ServingEngine(spy, max_batch_size=5, seed=0)
        prompts, _, ids = _submit(engine, [8, 8, 16, 8, 4])
        events = engine.step()
        assert spy.shapes() == [(3, 8), (1, 16), (1, 4)]
        assert merges == [3]
        by_run = [0, 1, 3, 2, 4]
        assert [e.request_id for e in events] == [ids[i] for i in by_run]
        assert [s.request.request_id for s in engine.scheduler.active] == \
            [ids[i] for i in by_run]
        assert list(engine.scheduler.cache.lengths) == [8, 8, 8, 16, 4]
        _assert_rows_are_solo_bytes(spy, [prompts[i] for i in by_run])

    def test_wave_joining_a_running_batch_merges_once(self, spy, merges):
        engine = ServingEngine(spy, max_batch_size=8, seed=0)
        _submit(engine, [5, 5], max_new_tokens=6)
        engine.step()
        del spy.calls[:], merges[:]
        _submit(engine, [7, 7, 7], max_new_tokens=6, first_seed=10)
        engine.step()
        assert spy.shapes() == [(3, 7)]
        assert merges == [2]
        assert engine.scheduler.cache.batch == 5

    def test_first_token_finishes_reopen_capacity_in_the_same_step(self, spy, merges):
        engine = ServingEngine(spy, max_batch_size=2, seed=0)
        quick = SamplingParams(max_new_tokens=1, seed=0)
        slow = SamplingParams(max_new_tokens=3, seed=0)
        prompt = np.arange(1, 7)
        ids = [engine.submit(prompt, p) for p in (quick, slow, slow, slow)]
        events = engine.step()
        # Wave one is the first two; the quick one's finish admits a third.
        assert spy.shapes() == [(2, 6), (1, 6)]
        assert [e.request_id for e in events] == ids[:3]
        assert [s.request.request_id for s in engine.scheduler.active] == ids[1:3]
        assert merges == [2] and engine.scheduler.cache.batch == 2
        assert engine.scheduler.queue_depth == 1

    def test_batch_at_the_window_edge_is_one_call_per_step(self, spy):
        max_len = spy.config.max_len
        engine = ServingEngine(spy, max_batch_size=4, seed=0)
        prompts, params, ids = _submit(engine, [max_len - 2] * 3, max_new_tokens=8)
        results = engine.run()
        # Token 1 from the admission prefill, 2-3 decoded up to the edge,
        # 4-8 each from one refill of all three clipped windows.
        assert spy.shapes() == [(3, max_len - 2)] + [(3, max_len)] * 5
        model = served_model("fp", 32)
        for prompt, param, rid in zip(prompts, params, ids):
            assert results[rid].tokens == solo_tokens(model, prompt, param)


# ----------------------------------------------------------------------
# A fault in the middle of a wave
# ----------------------------------------------------------------------
def _state(scheduler):
    return (
        [s.request.request_id for s in scheduler.waiting],
        [s.request.request_id for s in scheduler.active],
        [s.capture_state() for s in list(scheduler.waiting) + scheduler.active],
    )


class TestWaveRollback:
    def _baseline(self, lengths):
        engine = ServingEngine(served_model("fp", 32), max_batch_size=4, seed=0)
        _, _, ids = _submit(engine, lengths)
        results = engine.run()
        return [results[rid].tokens for rid in ids]

    def test_transient_on_third_request_rolls_the_whole_wave_back(self):
        lengths = [6, 6, 6, 6]
        engine = ServingEngine(served_model("fp", 32), max_batch_size=4, seed=0,
                               resilience=RESILIENCE)
        _, _, ids = _submit(engine, lengths)
        scheduler = engine.scheduler
        before = _state(scheduler)
        with use_faults("serving.prefill:transient:after=2"):
            snapshot = SchedulerSnapshot(scheduler)
            with pytest.raises(TransientFault) as raised:
                scheduler.step()
            assert raised.value.request_id == ids[2]
            assert len(scheduler.waiting) < 4  # the wave had been popped
            snapshot.restore()
        assert _state(scheduler) == before and scheduler.cache is None

        with use_faults("serving.prefill:transient:after=2"):
            results = engine.run()
        assert [results[rid].tokens for rid in ids] == self._baseline(lengths)

    def test_fatal_evicts_only_the_named_request(self):
        lengths = [6, 6, 6, 6]
        spy = PrefillSpy(served_model("fp", 32))
        engine = ServingEngine(spy, max_batch_size=4, seed=0, resilience=RESILIENCE)
        _, _, ids = _submit(engine, lengths)
        with use_faults("serving.prefill:fatal:after=2"):
            results = engine.run()
        assert results[ids[2]].finish_reason == "error"
        assert results[ids[2]].tokens == []
        # The rest of its group is served, together, with fault-free tokens.
        assert spy.shapes() == [(3, 6)]
        baseline = self._baseline(lengths)
        for i in (0, 1, 3):
            assert results[ids[i]].finish_reason == "length"
            assert results[ids[i]].tokens == baseline[i]
