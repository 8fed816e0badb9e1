"""A stateful machine over ``ServingEngine``: random interleavings of
``submit``, ``cancel``, ``tick`` and ``step`` on the tiny ``repro serve``
decoder, with fp weights and no faults.

Prompts run from one token to ``max_len + 4``, so window clipping,
window-edge re-prefills and unequal admission waves all occur.  A
request's deadline is either none or 0.5-3 s, on a fake engine clock
that only ``tick`` advances, so a step sees one instant.  After every
rule the scheduler holds no more rows than its batch size and a cache
exactly as wide as its running rows.  Throughout:

* a request finishes ``deadline`` only at or after its submit time plus
  its ``deadline_s``;
* no request gains a token in a step that began at or past its
  deadline.

At teardown the engine is run dry and then:

* every accepted request made exactly one terminal transition
  (``RequestTable.finish`` returning True) and no step event followed a
  finished one;
* nothing but rows cancelled since the last step is held, and after
  ``drain`` no rows, queue or cache;
* every request that finished ``length`` has the tokens of its solo run
  on a fresh engine, whatever it was batched with.

Bounded at 25 examples of up to 25 rules: 1.3-2.5 s on a 2-vCPU box.
"""

import dataclasses
import functools
from collections import Counter

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine

#: ``repro serve``'s default decoder (``--d-hidden 32 --n-total 2
#: --max-len 128 --seed 0``).
TINY_DECODER = dict(
    vocab_size=28, n_classes=2, max_len=128, d_hidden=32, n_heads=4,
    r_ffn=2, n_total=2, seed=0,
)
MAX_BATCH = 3


@functools.lru_cache(maxsize=None)
def tiny_decoder():
    return build_butterfly_decoder(ModelConfig(**TINY_DECODER)).eval()


@functools.lru_cache(maxsize=None)
def solo_tokens(prompt: tuple, params: SamplingParams) -> list:
    engine = ServingEngine(tiny_decoder(), max_batch_size=1, seed=0)
    rid = engine.submit(np.asarray(prompt, dtype=np.int64), params)
    return engine.run()[rid].tokens


class EngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.engine = ServingEngine(tiny_decoder(), max_batch_size=MAX_BATCH,
                                    seed=0, clock=lambda: self.now)
        self.submitted = {}  # request id -> (prompt, params)
        self.expires_at = {}  # request id -> submit time + deadline_s
        self.ids = []
        self.transitions = Counter()
        self.finished_events = Counter()
        table = self.engine.requests
        table_finish, table_append = table.finish, table.append

        def counted_finish(request_id, reason):
            done = table_finish(request_id, reason)
            self.transitions[request_id] += done
            if done and reason == "deadline":
                assert self.now >= self.expires_at[request_id], \
                    "a deadline finish before the deadline"
            return done

        def checked_append(request_id, token):
            assert self.now < self.expires_at.get(request_id, float("inf")), \
                "a token from a step that began past the deadline"
            table_append(request_id, token)

        table.finish, table.append = counted_finish, checked_append

    @rule(
        length=st.integers(1, TINY_DECODER["max_len"] + 4),
        new_tokens=st.integers(1, 6),
        temperature=st.sampled_from((0.0, 0.8)),
        seed=st.integers(0, 2**16),
        deadline_s=st.none() | st.floats(0.5, 3.0),
    )
    def submit(self, length, new_tokens, temperature, seed, deadline_s):
        prompt = tuple(int(t) for t in np.random.default_rng(seed).integers(
            0, TINY_DECODER["vocab_size"], size=length))
        params = SamplingParams(
            max_new_tokens=new_tokens, temperature=temperature, seed=seed,
            deadline_s=deadline_s)
        rid = self.engine.submit(np.asarray(prompt, dtype=np.int64), params)
        self.submitted[rid] = (prompt, params)
        if deadline_s is not None:
            # The same sum the table stores: the clock has not moved.
            self.expires_at[rid] = self.now + deadline_s
        self.ids.append(rid)

    @rule(seconds=st.floats(0.05, 1.5))
    def tick(self, seconds):
        self.now += seconds

    @precondition(lambda self: self.engine.has_work)
    @rule(data=st.data())
    def cancel(self, data):
        live = [rid for rid in self.ids
                if not self.engine.result(rid).finished]
        assert self.engine.cancel(data.draw(st.sampled_from(live)))

    @rule()
    def step(self):
        for event in self.engine.step():
            assert not self.finished_events[event.request_id], \
                "an event after a terminal one"
            self.finished_events[event.request_id] += event.finished

    @invariant()
    def rows_match_the_cache(self):
        scheduler = self.engine.scheduler
        assert scheduler.batch_size <= MAX_BATCH
        if scheduler.active:
            assert scheduler.cache.batch == len(scheduler.active)
        else:
            assert scheduler.cache is None

    def teardown(self):
        self.engine.run()
        scheduler = self.engine.scheduler
        # A running row cancelled since the last step keeps its cache
        # rows until the next step or close; nothing else is held.
        assert not scheduler.waiting
        assert all(seq.cancelled for seq in scheduler.active)
        self.engine.drain()
        assert not scheduler.active and scheduler.cache is None
        for request_id, (prompt, params) in self.submitted.items():
            assert self.transitions[request_id] == 1
            result = self.engine.result(request_id)
            if result.finish_reason == "length":
                solo = dataclasses.replace(params, deadline_s=None)
                assert result.tokens == solo_tokens(prompt, solo)


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None)
TestEngineMachine = EngineMachine.TestCase
