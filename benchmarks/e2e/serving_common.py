"""What the three serving workloads share: the request plan, the
single-thread driver over the ``Engine`` protocol, the latency summary,
the timing proxy around the model, and the solo-run token oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from harness import SpeedProbe, Tracer, clock, summarize, time_ms
from repro import kernels
from repro.serving import (
    DecoderKVCache,
    SamplingParams,
    ServingEngine,
    sample_logits,
)

#: The ``repro serve`` default decoder (``cmd_serve`` builds exactly this
#: config from ``--d-hidden 32 --n-total 2 --max-len 128 --seed 0``), so
#: the in-process and HTTP workloads serve bit-identical weights.
TINY_DECODER = dict(
    vocab_size=28, n_classes=2, max_len=128, d_hidden=32, n_heads=4,
    r_ffn=2, n_total=2, seed=0,
)
MAX_BATCH = 4
#: (prompt tokens, new tokens) of eight consecutive requests, in an order
#: drawn per block.  Weighted 2:3:2:1 so that the median request is an
#: (8, 16) one with a quarter of the sample to either side (with four
#: equally likely classes the median falls between two classes and hops
#: from one to the other by seed) and the p95 one a (32, 48) one; fixed
#: counts per block give every seed the same number of tokens.
LENGTH_MIX = (
    (4, 8), (4, 8), (8, 16), (8, 16), (8, 16), (16, 24), (16, 24), (32, 48),
)
TEMPERATURE = 0.8
#: The latency limit behind ``slo_ok_share``.
SLO_TTFT_MS = 100.0
SLO_MEAN_ITL_MS = 10.0
#: Requests compared token by token with a solo run.
ORACLE_SAMPLE = 8


@dataclass
class PlannedRequest:
    index: int
    prompt: List[int]
    max_new_tokens: int
    seed: int


def request_plan(
    seed: int, count: int, vocab: int, mix=LENGTH_MIX
) -> List[PlannedRequest]:
    """``count`` requests: block after block of ``mix`` in a drawn
    order.  Request ``i`` depends only on the draws before it, so a
    shorter plan is a prefix of a longer one and ``serve_open`` and
    ``http_stream`` send the same first requests."""
    rng = np.random.default_rng([seed, 1])
    plan: List[PlannedRequest] = []
    while len(plan) < count:
        for k in rng.permutation(len(mix)):
            prompt_len, new_tokens = mix[k]
            prompt = rng.integers(1, vocab, size=prompt_len).tolist()
            plan.append(
                PlannedRequest(len(plan), prompt, new_tokens, seed=len(plan)))
    return plan[:count]


@dataclass
class RequestRecord:
    """Client-side timeline of one request (seconds on ``clock``)."""

    request: PlannedRequest
    due: float
    sent: float = 0.0
    admitted: float = 0.0  # start of the engine step that produced token 0
    token_times: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    finish_reason: Optional[str] = None
    #: the speed probe's slowdown while the request's phase ran; the
    #: latency summary divides by it, the SLO is judged on real time.
    slowdown: float = 1.0

    @property
    def ok(self) -> bool:
        return (
            self.finish_reason == "length"
            and len(self.tokens) == self.request.max_new_tokens
        )

    @property
    def ttft_ms(self) -> float:
        return (self.token_times[0] - self.due) * 1e3

    @property
    def latency_ms(self) -> float:
        return (self.token_times[-1] - self.due) * 1e3

    @property
    def gaps_ms(self) -> List[float]:
        return (np.diff(self.token_times) * 1e3).tolist()

    @property
    def meets_slo(self) -> bool:
        if not self.ok or self.ttft_ms > SLO_TTFT_MS:
            return False
        gaps = self.gaps_ms
        return not gaps or float(np.mean(gaps)) <= SLO_MEAN_ITL_MS


def latency_summary(groups: Sequence[Sequence[RequestRecord]]) -> Dict[str, object]:
    """TTFT / inter-token gap / end-to-end latency of the requests that
    produced tokens, summarized over ``groups`` of records (rounds, or
    chronological groups), and the share of requests *sent* that met
    the SLO."""
    served = [[r for r in group if r.token_times] for group in groups]
    records = [r for group in groups for r in group]
    return {
        "op": summarize([[r.latency_ms / r.slowdown for r in g] for g in served]),
        "ttft": summarize([[r.ttft_ms / r.slowdown for r in g] for g in served]),
        "itl": summarize(
            [[gap / r.slowdown for r in g for gap in r.gaps_ms] for g in served]),
        "slo_ok_share": sum(r.meets_slo for r in records) / len(records),
    }


@dataclass
class StepLog:
    """Per engine step: when it ended and how many tokens it emitted."""

    end_times: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)


def saturated_rate(
    records: Sequence[RequestRecord], steps: StepLog, t0: float, max_batch: int
) -> float:
    """Tokens/s of a backlog while it could still fill the batch: from
    ``t0`` until fewer than ``max_batch`` requests were unfinished.  The
    drain after that runs at whatever occupancy the last requests'
    lengths leave, which says nothing about the engine."""
    finishes = sorted(r.token_times[-1] for r in records if r.token_times)
    if not finishes:
        raise RuntimeError("backlog produced no tokens")
    cut = finishes[max(0, len(finishes) - max_batch)]
    tokens = sum(n for end, n in zip(steps.end_times, steps.tokens) if end <= cut)
    return tokens / (cut - t0)


def sampling_params(request: PlannedRequest) -> SamplingParams:
    return SamplingParams(
        max_new_tokens=request.max_new_tokens, temperature=TEMPERATURE,
        seed=request.seed,
    )


def drive(
    engine, plan: Sequence[PlannedRequest], due_offsets: Sequence[float],
    tracer: Tracer, probe: SpeedProbe,
) -> tuple:
    """Send ``plan`` on schedule from one thread and step the engine.

    ``due_offsets[i]`` is when request ``i`` is due, in seconds from the
    call; all zeros makes a backlog.  An open loop: a request is sent
    when due whether or not earlier ones finished, and every latency is
    counted from the due time, so a stall is charged to the requests it
    delays.  While nothing is due and the engine is idle the thread
    spins instead of sleeping: on the reference microVM a halted vCPU
    makes the steps after every pause 1-1.7x slower by a factor that
    changes from run to run, and the generator thread *is* the engine
    thread, so spinning starves nothing.

    Uses only the ``Engine`` protocol — ``submit``, ``step``,
    ``has_work``, ``result`` — reading new tokens off ``result`` after
    each step, as the HTTP dispatcher does, and ticking the speed probe
    there.  Every record gets the probe's slowdown over the whole call.
    Returns ``(records, steps, t0)``.
    """
    probe.tick()
    t0 = clock()
    records = [RequestRecord(req, t0 + due) for req, due in zip(plan, due_offsets)]
    steps = StepLog()
    live: Dict[int, RequestRecord] = {}
    next_up = 0
    while next_up < len(records) or live:
        now = clock()
        while next_up < len(records) and records[next_up].due <= now:
            record = records[next_up]
            next_up += 1
            record.sent = clock()
            with tracer.span("serving.submit", record.request.index):
                handle = engine.submit(
                    np.asarray(record.request.prompt, dtype=np.int64),
                    sampling_params(record.request),
                )
            live[int(handle)] = record
        if engine.has_work:
            step_start = clock()
            with tracer.span("serving.step"):
                engine.step()
            now = clock()
            emitted = 0
            with tracer.span("bench.collect_tokens"):
                for request_id in list(live):
                    record = live[request_id]
                    result = engine.result(request_id)
                    fresh = result.tokens[len(record.tokens):]
                    if fresh:
                        if not record.tokens:
                            record.admitted = step_start
                        record.tokens.extend(fresh)
                        record.token_times.extend([now] * len(fresh))
                        emitted += len(fresh)
                    if result.finished:
                        record.finish_reason = result.finish_reason
                        del live[request_id]
            steps.end_times.append(now)
            steps.tokens.append(emitted)
            probe.tick()
        elif next_up < len(records):
            with tracer.span("bench.wait_for_arrival"):
                while (remaining := records[next_up].due - clock()) > 0:
                    if remaining > 1e-3:
                        probe.tick()
        else:
            # The engine is idle with requests unaccounted for: they
            # ended without a step (refused at submit) and count as
            # failed through ``RequestRecord.ok``.
            for request_id, record in live.items():
                record.finish_reason = engine.result(request_id).finish_reason
            break
    slowdown = probe.slowdown(t0, clock())
    for record in records:
        record.slowdown = slowdown
    return records, steps, t0


class TimedModel:
    """Timing proxy around the decoder handed to ``ServingEngine``.

    Implements the incremental-decoding protocol the scheduler calls
    (``config``, ``eval``, ``make_cache``, ``prefill``, ``decode_step``)
    and records one span per call, nested under the benchmark's
    ``serving.step`` span, plus the token and row counts at the same
    boundary.
    """

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer
        self.config = model.config
        self.prefill_tokens = 0
        self.decode_rows = 0

    def eval(self):
        self._model.eval()
        return self

    def make_cache(self, batch: int):
        with self._tracer.span("models.make_cache"):
            return self._model.make_cache(batch)

    def prefill(self, tokens, cache):
        self.prefill_tokens += int(np.asarray(tokens).size)
        with self._tracer.span("models.prefill"):
            return self._model.prefill(tokens, cache)

    def decode_step(self, tokens, cache):
        self.decode_rows += len(tokens)
        with self._tracer.span("models.decode_step"):
            return self._model.decode_step(tokens, cache)


def serving_layer_metrics(tracer: Tracer, timed: TimedModel) -> Dict[str, float]:
    """``serving.*`` and ``models.*`` metrics of a traced window, from
    the spans around the benchmark's ``Engine`` calls and the proxy's
    spans and counts nested under them."""
    return {
        "serving.submit_s": tracer.total("serving.submit"),
        "serving.step_s": tracer.total("serving.step"),
        "serving.steps": tracer.count("serving.step"),
        "serving.step_self_s": tracer.self_times().get("serving.step", 0.0),
        "models.prefill_s": tracer.total("models.prefill"),
        "models.prefill_calls": tracer.count("models.prefill"),
        "models.prefill_tokens": timed.prefill_tokens,
        "models.decode_step_s": tracer.total("models.decode_step"),
        "models.decode_step_calls": tracer.count("models.decode_step"),
        "models.decode_rows": timed.decode_rows,
        "models.make_cache_s": tracer.total("models.make_cache"),
    }


def solo_tokens(model, request: PlannedRequest) -> List[int]:
    """The request's tokens when it is the only one in the engine."""
    engine = ServingEngine(model, max_batch_size=1)
    handle = engine.submit(
        np.asarray(request.prompt, dtype=np.int64), sampling_params(request)
    )
    engine.drain(timeout_s=60.0)
    return list(handle.result().tokens)


def oracle_sample(count: int) -> List[int]:
    """Indices of the requests checked against a solo run: evenly spread
    over the first ``count`` requests of the plan."""
    return np.linspace(0, count - 1, ORACLE_SAMPLE).astype(int).tolist()


def count_failures(records, model, sample_from: int) -> int:
    """Requests that did not finish ``length`` with exactly their token
    budget, plus sampled ones whose tokens differ from a solo run."""
    failed = {r.request.index for r in records if not r.ok}
    by_index = {r.request.index: r for r in records}
    for index in oracle_sample(sample_from):
        record = by_index[index]
        if record.tokens != solo_tokens(model, record.request):
            failed.add(index)
    return len(failed)


def serving_probes(model, batch: int, context: int) -> Dict[str, float]:
    """Standalone probes of the serving primitives at the workload's
    shapes: ``batch`` rows at ``context`` cached tokens."""
    cfg = model.config
    rng = np.random.default_rng(0)
    running = model.make_cache(batch - 1)
    joining = model.make_cache(1)
    full = DecoderKVCache.merge([running, joining])
    keep = list(range(batch - 1))
    d_head = cfg.d_hidden // cfg.n_heads
    dtype = full.dtype
    q = rng.standard_normal((batch, cfg.n_heads, d_head)).astype(dtype)
    kv = rng.standard_normal((batch, cfg.n_heads, context, d_head)).astype(dtype)
    lengths = np.full(batch, context - 1, dtype=np.int64)
    logits = rng.standard_normal(cfg.vocab_size)
    sample_rng = np.random.default_rng(0)
    return {
        "serving.kv_merge_ms": time_ms(
            lambda: DecoderKVCache.merge([running, joining]), 200),
        "serving.kv_select_rows_ms": time_ms(
            lambda: full.select_rows(keep), 200),
        "serving.sample_logits_ms": time_ms(
            lambda: sample_logits(logits, temperature=TEMPERATURE, rng=sample_rng),
            500),
        "kernels.attention_decode_ms": time_ms(
            lambda: kernels.attention_decode(q, kv, kv, lengths=lengths), 500),
    }
