"""Continuous-batching scheduler: queue, admission, prefill/decode interleave.

One :meth:`ContinuousBatchScheduler.step` advances every in-flight
sequence by exactly one token:

1. rows cancelled since the last step are dropped from the batch cache;
2. running rows take a batched single-token decode against the shared
   KV cache — except rows at the ``max_len`` sliding-window edge, which
   are re-prefilled from their clipped windows (absolute positions shift,
   so cached keys cannot be reused across the slide) with one prefill per
   run of equal window lengths — at the edge every window is ``max_len``
   long, so one call per step — and follow the decoded rows in the batch;
3. finished rows (stop token or per-request token budget) are compacted
   out of the cache;
4. the FIFO prefix of the queue that fits the freed capacity — bounded
   by the batch-size cap — is admitted as one wave and prefilled, again
   with one prefill per run of equal window lengths (the weights stream
   once per run, not once per request),
   each request producing its first token in the same step (its TTFT).
   New rows and their ``first=True`` events are ordered by run — lengths
   as first seen, FIFO within a run — after the rows already running.

The scheduler owns no timing or result bookkeeping; it emits
:class:`StepEvent` records that :class:`repro.serving.engine.ServingEngine`
turns into metrics and per-request results.  Sequences keep dedicated
RNGs (seeded per request) so sampled output is reproducible regardless
of how requests are interleaved into batches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..faults import fault_point
from ..telemetry import counter_inc, span
from .kv_cache import DecoderKVCache
from .sampling import SamplingParams, sample_logits

FINISH_LENGTH = "length"
FINISH_STOP = "stop"
FINISH_CANCELLED = "cancelled"
FINISH_ERROR = "error"
FINISH_DEADLINE = "deadline"
FINISH_SHED = "shed"


def validated_prompt(prompt, vocab_size: int) -> np.ndarray:
    """``prompt`` as a flat int64 array — what both engines' ``submit``
    check before an id is burned.  An id outside ``[0, vocab_size)`` would
    otherwise raise inside ``step`` (a negative one silently wraps in the
    embedding gather) and the request never reach a terminal state."""
    prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
    if prompt.size == 0:
        raise ValueError("request prompt must be non-empty")
    if prompt.min() < 0 or prompt.max() >= vocab_size:
        raise ValueError(
            f"prompt token ids must lie in [0, {vocab_size}), got "
            f"[{prompt.min()}, {prompt.max()}]"
        )
    return prompt


@dataclass(frozen=True)
class Request:
    """A prompt plus sampling parameters, as queued by the engine."""

    request_id: int
    prompt: np.ndarray
    params: SamplingParams


@dataclass(frozen=True)
class StepEvent:
    """One generated-token (or cancellation) event from a scheduler step."""

    request_id: int
    token: Optional[int]
    index: int  # 0-based position among the request's generated tokens
    first: bool
    finished: bool
    finish_reason: Optional[str] = None


class _Sequence:
    """Scheduler-internal state of one in-flight request."""

    __slots__ = ("request", "tokens", "generated", "rng", "cancelled")

    def __init__(self, request: Request, rng: np.random.Generator) -> None:
        self.request = request
        self.tokens: List[int] = [int(t) for t in np.asarray(request.prompt).reshape(-1)]
        self.generated: List[int] = []
        self.rng = rng
        self.cancelled = False

    def window(self, max_len: int) -> np.ndarray:
        return np.asarray(self.tokens[-max_len:], dtype=np.int64)

    def sample(self, logits_row: np.ndarray) -> int:
        fault_point("serving.sample", request_id=self.request.request_id)
        params = self.request.params
        token = int(sample_logits(
            logits_row, temperature=params.temperature,
            top_k=params.top_k, top_p=params.top_p, rng=self.rng,
        ))
        self.generated.append(token)
        self.tokens.append(token)
        return token

    # -- step-snapshot support (repro.serving.resilience) --------------
    def capture_state(self) -> tuple:
        """Everything a retried step must see unchanged: token history
        and the sampling RNG's exact position in its stream."""
        return (
            list(self.tokens), list(self.generated),
            self.rng.bit_generator.state, self.cancelled,
        )

    def restore_state(self, state: tuple) -> None:
        tokens, generated, rng_state, cancelled = state
        self.tokens = list(tokens)
        self.generated = list(generated)
        self.rng.bit_generator.state = rng_state
        self.cancelled = cancelled

    def finish_reason(self) -> Optional[str]:
        params = self.request.params
        if params.stop_token is not None and self.generated[-1] == params.stop_token:
            return FINISH_STOP
        if len(self.generated) >= params.max_new_tokens:
            return FINISH_LENGTH
        return None


class ContinuousBatchScheduler:
    """Interleaves prefill and decode over a bounded, compacting batch."""

    def __init__(
        self,
        model,
        max_batch_size: int = 8,
        seed: int = 0,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        model.eval()
        self.model = model
        self.max_batch_size = max_batch_size
        self.seed = seed
        self.waiting: Deque[_Sequence] = deque()
        self.active: List[_Sequence] = []
        self.cache: Optional[DecoderKVCache] = None

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def batch_size(self) -> int:
        return len(self.active)

    def has_work(self) -> bool:
        return bool(self.waiting or self.active)

    def add_request(self, request: Request) -> None:
        if request.prompt is None or np.asarray(request.prompt).size == 0:
            raise ValueError("request prompt must be non-empty")
        seed = request.params.seed
        if seed is None:
            # Derive a stable per-request stream from the scheduler seed.
            seed_seq = np.random.SeedSequence([self.seed, request.request_id])
            rng = np.random.default_rng(seed_seq)
        else:
            rng = np.random.default_rng(seed)
        self.waiting.append(_Sequence(request, rng))

    def fail_request(
        self, request_id: int, reason: str = FINISH_ERROR
    ) -> Optional[StepEvent]:
        """Evict a queued or running request with a terminal ``reason``.

        The resilience layer calls this when retries are exhausted or a
        fatal fault names a victim: the request leaves the batch (its
        cache row is compacted out) and only *it* fails — the rest of
        the continuous batch keeps decoding.  Returns the terminal
        event, or None when the id is not live.
        """
        for i, seq in enumerate(self.active):
            if seq.request.request_id == request_id:
                self._drop_rows([i])
                return StepEvent(
                    request_id=request_id, token=None,
                    index=len(seq.generated), first=False,
                    finished=True, finish_reason=reason,
                )
        for seq in self.waiting:
            if seq.request.request_id == request_id:
                self.waiting.remove(seq)
                return StepEvent(
                    request_id=request_id, token=None,
                    index=len(seq.generated), first=False,
                    finished=True, finish_reason=reason,
                )
        return None

    def cancel(self, request_id: int) -> bool:
        """Mark a queued or running request cancelled; True if it was live."""
        for seq in self.waiting:
            if seq.request.request_id == request_id:
                self.waiting.remove(seq)
                return True
        for seq in self.active:
            if seq.request.request_id == request_id and not seq.cancelled:
                seq.cancelled = True
                return True
        return False

    # ------------------------------------------------------------------
    def _prefill(
        self, seqs: List[_Sequence]
    ) -> List[Tuple[List[_Sequence], np.ndarray, DecoderKVCache]]:
        """Prefill ``seqs``' clipped windows into fresh caches, one model call per
        run of equal window length: ``(sequences, next-token logits, cache)`` per
        run.  A batched equal-length row is the solo row byte for byte
        (``decode_program``'s row-independence contract)."""
        max_len = self.model.config.max_len
        runs: Dict[int, List[_Sequence]] = {}
        for seq in seqs:
            fault_point("serving.prefill", request_id=seq.request.request_id)
            runs.setdefault(min(len(seq.tokens), max_len), []).append(seq)
        counter_inc("serving_prefill_calls_total", amount=len(runs))
        counter_inc("serving_prefill_rows_total", amount=len(seqs))
        out = []
        with span("serve.prefill", queued=len(self.waiting), calls=len(runs), rows=len(seqs)):
            for run in runs.values():
                cache = self.model.make_cache(len(run))
                windows = np.stack([seq.window(max_len) for seq in run])
                out.append((run, self.model.prefill(windows, cache), cache))
        return out

    def _sample(
        self, seqs: List[_Sequence], logits, first: bool, events: List[StepEvent]
    ) -> List[int]:
        """Sample each row's next token into ``events``; returns the rows that finished."""
        finished = []
        for row, seq in enumerate(seqs):
            token = seq.sample(logits[row])
            reason = seq.finish_reason()
            events.append(StepEvent(
                request_id=seq.request.request_id, token=token,
                index=len(seq.generated) - 1, first=first,
                finished=reason is not None, finish_reason=reason,
            ))
            if reason is not None:
                finished.append(row)
        return finished

    def _drop_rows(self, drop: List[int]) -> None:
        """Compact ``drop`` row indices out of the batch cache and active set."""
        if not drop:
            return
        dropped = set(drop)
        keep = [i for i in range(len(self.active)) if i not in dropped]
        self.active = [self.active[i] for i in keep]
        self.cache = self.cache.select_rows(keep) if keep else None

    # ------------------------------------------------------------------
    def step(self) -> List[StepEvent]:
        """Advance every live sequence by one token; admit new requests."""
        events: List[StepEvent] = []

        # 1. Purge rows cancelled since the previous step.
        cancelled_rows = [i for i, s in enumerate(self.active) if s.cancelled]
        for i in cancelled_rows:
            seq = self.active[i]
            events.append(StepEvent(
                request_id=seq.request.request_id, token=None,
                index=len(seq.generated), first=False,
                finished=True, finish_reason=FINISH_CANCELLED,
            ))
        self._drop_rows(cancelled_rows)

        # 2. Decode the running batch (re-prefilling rows at the window edge).
        finished_rows: List[int] = []
        if self.active:
            with span("serve.decode", batch=len(self.active)):
                full = self.cache.rows_full()
                if not full.any():
                    # Hot path: decode in place on the shared batch cache,
                    # no row copies.
                    fault_point("serving.decode_step", batch=len(self.active))
                    pending = np.asarray(
                        [s.tokens[-1] for s in self.active], dtype=np.int64
                    )
                    row_logits = list(self.model.decode_step(pending, self.cache))
                else:
                    decode_rows = [i for i in range(len(self.active)) if not full[i]]
                    refill_rows = [i for i in range(len(self.active)) if full[i]]

                    # Reorder so cache rows keep matching self.active after
                    # the merge: surviving decode rows first, re-prefilled
                    # appended.
                    decode_seqs = [self.active[i] for i in decode_rows]
                    refill_seqs = [self.active[i] for i in refill_rows]
                    caches = []
                    row_logits = []
                    if decode_seqs:
                        fault_point("serving.decode_step",
                                    batch=len(decode_seqs))
                        decode_cache = self.cache.select_rows(decode_rows)
                        pending = np.asarray(
                            [s.tokens[-1] for s in decode_seqs], dtype=np.int64
                        )
                        logits = self.model.decode_step(pending, decode_cache)
                        row_logits.extend(logits)
                        caches.append(decode_cache)
                    counter_inc("serving_window_refills_total",
                                amount=len(refill_seqs))
                    # The pending token is already in seq.tokens, so the
                    # clipped window ends with it and prefill yields the
                    # same next-token logits a (impossible) decode past
                    # max_len would have.
                    self.active = decode_seqs
                    for run, logits, cache in self._prefill(refill_seqs):
                        self.active.extend(run)
                        row_logits.extend(logits)
                        caches.append(cache)
                    self.cache = DecoderKVCache.merge(caches)

            with span("serve.sample", batch=len(self.active)):
                finished_rows = self._sample(self.active, row_logits, False, events)
        self._drop_rows(finished_rows)

        # 3. Admit the queue's FIFO prefix into the freed capacity as one
        #    wave; go round again only if first-token finishes re-opened it.
        caches = [self.cache] if self.active else []
        reopened = True
        while reopened and self.waiting:
            wave: List[_Sequence] = []
            while (self.waiting
                   and len(self.active) + len(wave) < self.max_batch_size):
                wave.append(self.waiting.popleft())
                counter_inc("serving_admission_accept_total")
            if not wave:
                break
            reopened = False
            for run, logits, cache in self._prefill(wave):
                done = set(self._sample(run, logits, True, events))
                keep = [row for row in range(len(run)) if row not in done]
                if keep:
                    self.active.extend(run[row] for row in keep)
                    caches.append(cache.select_rows(keep) if done else cache)
                reopened = reopened or bool(done)
        if caches:
            self.cache = caches[0] if len(caches) == 1 else DecoderKVCache.merge(caches)
        return events
