"""ServingEngine: continuous batching, streaming, cancel, metrics."""

import numpy as np
import pytest

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    return build_butterfly_decoder(config).eval()


def _prompts(rng, n, vocab=28):
    return [rng.integers(1, vocab, size=4 + i % 5) for i in range(n)]


class TestEndToEnd:
    def test_eight_concurrent_requests_complete(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        ids = [
            engine.submit(p, SamplingParams(max_new_tokens=6, temperature=0.7,
                                            seed=i))
            for i, p in enumerate(_prompts(rng, 8))
        ]
        results = engine.run()
        assert len(results) == 8
        for rid in ids:
            assert results[rid].finish_reason == "length"
            assert len(results[rid].tokens) == 6

    def test_greedy_engine_matches_generate(self, model, rng):
        prompt = rng.integers(1, 28, size=(6,))
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        rid = engine.submit(prompt, SamplingParams(max_new_tokens=8,
                                                   temperature=0.0))
        tokens = engine.run()[rid].tokens
        reference = model.generate(prompt[None, :], 8)[0, prompt.size:]
        np.testing.assert_array_equal(tokens, reference)

    def test_seeded_request_reproducible_across_batchings(self, model, rng):
        """A request's output depends on its seed, not on its batch-mates."""
        prompt = rng.integers(1, 28, size=(5,))
        params = SamplingParams(max_new_tokens=6, temperature=1.0, seed=42)

        solo = ServingEngine(model, max_batch_size=1, seed=0)
        solo_rid = solo.submit(prompt, params)
        solo_tokens = solo.run()[solo_rid].tokens

        crowded = ServingEngine(model, max_batch_size=4, seed=9)
        for i, other in enumerate(_prompts(rng, 3)):
            crowded.submit(other, SamplingParams(max_new_tokens=9,
                                                 temperature=1.0, seed=i))
        rid = crowded.submit(prompt, params)
        crowded_tokens = crowded.run()[rid].tokens
        np.testing.assert_array_equal(solo_tokens, crowded_tokens)

    def test_stop_token_finishes_early(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        # Greedy output is deterministic: find its second token and use it
        # as the stop token so decoding halts at index 1.
        prompt = rng.integers(1, 28, size=(4,))
        greedy = model.generate(prompt[None, :], 4)[0, prompt.size:]
        rid = engine.submit(prompt, SamplingParams(
            max_new_tokens=10, temperature=0.0, stop_token=int(greedy[1]),
        ))
        result = engine.run()[rid]
        assert result.finish_reason == "stop"
        assert result.tokens[-1] == int(greedy[1])
        assert len(result.tokens) == 2

    def test_generation_crosses_sliding_window_edge(self, model, rng):
        """Requests decode past max_len via window re-prefill."""
        prompt = rng.integers(1, 28, size=(30,))  # max_len is 32
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        rid = engine.submit(prompt, SamplingParams(max_new_tokens=8,
                                                   temperature=0.0))
        tokens = engine.run()[rid].tokens
        reference = model.generate(prompt[None, :], 8, use_cache=False)
        np.testing.assert_array_equal(tokens, reference[0, prompt.size:])


class TestSchedulingBehavior:
    def test_batch_never_exceeds_cap(self, model, rng):
        engine = ServingEngine(model, max_batch_size=3, seed=0)
        for p in _prompts(rng, 7):
            engine.submit(p, SamplingParams(max_new_tokens=5, temperature=0.5,
                                            seed=1))
        while engine.has_work:
            engine.step()
            assert engine.scheduler.batch_size <= 3
        assert engine.metrics.aggregate()["completed"] == 7

    def test_compaction_admits_waiting_requests_mid_flight(self, model, rng):
        """Short requests finish, freeing rows that queued requests take."""
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        short = [engine.submit(p, SamplingParams(max_new_tokens=2,
                                                 temperature=0.5, seed=i))
                 for i, p in enumerate(_prompts(rng, 2))]
        long = engine.submit(rng.integers(1, 28, size=5),
                             SamplingParams(max_new_tokens=6, temperature=0.5,
                                            seed=9))
        engine.step()  # admits the two short requests (queue full)
        assert engine.scheduler.queue_depth == 1
        engine.step()  # short requests hit their budget and compact out
        engine.step()  # freed capacity admits the long request
        assert engine.scheduler.queue_depth == 0
        results = engine.run()
        assert all(results[r].finish_reason == "length" for r in short + [long])

    def test_requests_finish_at_different_steps(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        ids = [engine.submit(p, SamplingParams(max_new_tokens=n,
                                               temperature=0.5, seed=n))
               for n, p in zip((2, 5), _prompts(rng, 2))]
        finish_steps = {}
        step = 0
        while engine.has_work:
            step += 1
            for event in engine.step():
                if event.finished:
                    finish_steps[event.request_id] = step
        assert finish_steps[ids[0]] < finish_steps[ids[1]]


class TestCancel:
    def test_cancel_queued_request(self, model, rng):
        engine = ServingEngine(model, max_batch_size=1, seed=0)
        first = engine.submit(rng.integers(1, 28, size=4),
                              SamplingParams(max_new_tokens=4, seed=0))
        queued = engine.submit(rng.integers(1, 28, size=4),
                               SamplingParams(max_new_tokens=4, seed=1))
        engine.step()  # first admitted; second still queued
        assert engine.cancel(queued)
        results = engine.run()
        assert results[queued].finish_reason == "cancelled"
        assert results[queued].tokens == []
        assert results[first].finish_reason == "length"

    def test_cancel_running_request_keeps_partial_tokens(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        rid = engine.submit(rng.integers(1, 28, size=4),
                            SamplingParams(max_new_tokens=10, temperature=0.5,
                                           seed=0))
        engine.step()
        engine.step()
        produced = len(engine.result(rid).tokens)
        assert produced >= 2
        assert engine.cancel(rid)
        engine.run()
        result = engine.result(rid)
        assert result.finish_reason == "cancelled"
        assert len(result.tokens) == produced

    def test_cancel_unknown_or_finished_returns_false(self, model, rng):
        engine = ServingEngine(model, max_batch_size=1, seed=0)
        rid = engine.submit(rng.integers(1, 28, size=3),
                            SamplingParams(max_new_tokens=1))
        engine.run()
        assert not engine.cancel(rid)
        assert not engine.cancel(999)


class TestStreaming:
    def test_stream_yields_exactly_the_generated_tokens(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        background = engine.submit(rng.integers(1, 28, size=4),
                                   SamplingParams(max_new_tokens=3,
                                                  temperature=0.5, seed=1))
        rid = engine.submit(rng.integers(1, 28, size=5),
                            SamplingParams(max_new_tokens=6, temperature=0.5,
                                           seed=2))
        streamed = list(engine.stream(rid))
        assert streamed == engine.result(rid).tokens
        assert len(streamed) == 6
        # the background request advanced alongside the streamed one
        engine.run()
        assert engine.result(background).finish_reason == "length"

    def test_stream_unknown_request_rejected(self, model):
        engine = ServingEngine(model, max_batch_size=1, seed=0)
        with pytest.raises(KeyError):
            next(engine.stream(123))


class TestMetrics:
    def test_aggregate_fields(self, model, rng):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.01
            return clock_value[0]

        engine = ServingEngine(model, max_batch_size=2, seed=0, clock=clock)
        for i, p in enumerate(_prompts(rng, 4)):
            engine.submit(p, SamplingParams(max_new_tokens=3, temperature=0.5,
                                            seed=i))
        engine.run()
        agg = engine.metrics.aggregate()
        assert agg["requests"] == 4 and agg["completed"] == 4
        assert agg["total_new_tokens"] == 12
        assert agg["tokens_per_s"] > 0
        assert agg["mean_ttft_ms"] > 0
        assert agg["max_queue_depth"] >= 2
        assert 0 < agg["mean_batch_size"] <= 2

    def test_per_request_ttft_ordering(self, model, rng):
        """Requests admitted later see larger TTFT under a small batch cap."""
        engine = ServingEngine(model, max_batch_size=1, seed=0)
        first = engine.submit(rng.integers(1, 28, size=4),
                              SamplingParams(max_new_tokens=4, temperature=0.5,
                                             seed=0))
        second = engine.submit(rng.integers(1, 28, size=4),
                               SamplingParams(max_new_tokens=4, temperature=0.5,
                                              seed=1))
        engine.run()
        ttft_first = engine.metrics.requests[first].ttft_s
        ttft_second = engine.metrics.requests[second].ttft_s
        assert ttft_first is not None and ttft_second is not None
        assert ttft_second > ttft_first
