"""``serve_open`` and ``decode_int8``: the in-process ``ServingEngine``
under an open-loop arrival schedule and under a weight-bound backlog."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

import harness
from harness import clock, poisson_arrivals
from repro import kernels, nn
from repro.kernels.grouped import plan_cache_stats
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import ServingEngine
from serving_common import (
    MAX_BATCH,
    TINY_DECODER,
    RequestRecord,
    StepLog,
    TimedModel,
    count_failures,
    drive,
    latency_summary,
    request_plan,
    saturated_rate,
    serving_layer_metrics,
    serving_probes,
)
from wl_fabnet import plan_cache_hit_rate
from workload import Measured, Workload


class Phase(NamedTuple):
    """One plan served to completion on a fresh engine."""

    records: List[RequestRecord]
    steps: StepLog
    t0: float
    #: the engine's own ``mean_batch_size`` (``metrics_snapshot()``).
    batch_mean: float

    @property
    def slowdown(self) -> float:
        return self.records[0].slowdown

    def rate(self, max_batch: int) -> float:
        """Rescaled tokens/s while the phase could fill the batch."""
        return self.slowdown * saturated_rate(
            self.records, self.steps, self.t0, max_batch)


def serve(model, max_batch: int, plan, due_offsets, tracer: harness.Tracer,
          probe: harness.SpeedProbe) -> Phase:
    """One phase on a fresh engine over ``model`` (in the traced pass,
    the window's timing proxy around it)."""
    engine = ServingEngine(model, max_batch_size=max_batch)
    try:
        records, steps, t0 = drive(engine, plan, due_offsets, tracer, probe)
        batch_mean = engine.metrics_snapshot()["aggregate"]["mean_batch_size"]
    finally:
        engine.close()
    return Phase(records, steps, t0, batch_mean)


def traced_model(model, tracer: harness.Tracer):
    return TimedModel(model, tracer) if tracer.enabled else model


def window_layer_metrics(model, tracer: harness.Tracer, loaded: Sequence[Phase],
                         cache_before: dict) -> Dict[str, float]:
    """Layer metrics of a serving window; ``loaded`` are the phases the
    latency metrics come from."""
    layer = {"kernels.plan_cache_hit_rate": plan_cache_hit_rate(
        cache_before, plan_cache_stats())}
    if tracer.enabled:
        layer.update(serving_layer_metrics(tracer, model))
        layer["serving.batch_mean"] = float(
            np.mean([phase.batch_mean for phase in loaded]))
    return layer


class ServeOpen(Workload):
    name = "serve_open"
    #: arrivals per second; this box drains a backlog at about 65.
    LOW_RATE, HIGH_RATE = 15.0, 30.0
    LOW_COUNT = 16
    #: A round is ``OPEN_COUNT`` arrivals at ``HIGH_RATE`` served to
    #: completion, then a backlog of ``BACKLOG_COUNT`` submitted at once.
    #: Rounds, not one long phase of each, so that a slow spell of the
    #: box falls on some rounds of both kinds and the rest stay clean.
    ROUNDS, OPEN_COUNT, BACKLOG_COUNT = 7, 36, 24

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        rounds = self.count(self.ROUNDS, at_least=4)
        per_round = self.OPEN_COUNT + self.BACKLOG_COUNT
        plan = request_plan(
            seed, self.LOW_COUNT + rounds * per_round, TINY_DECODER["vocab_size"])
        rng = np.random.default_rng([seed, 2])
        self.low = (plan[: self.LOW_COUNT],
                    poisson_arrivals(rng, self.LOW_RATE, self.LOW_COUNT))
        self.rounds = []
        for start in range(self.LOW_COUNT, len(plan), per_round):
            split = start + self.OPEN_COUNT
            self.rounds.append((
                (plan[start:split],
                 poisson_arrivals(rng, self.HIGH_RATE, self.OPEN_COUNT)),
                (plan[split:start + per_round], [0.0] * self.BACKLOG_COUNT),
            ))
        self.input_hash = harness.input_hash(
            [[r.prompt, r.max_new_tokens, r.seed] for r in plan],
            self.low[1], [opened[1] for opened, _ in self.rounds],
        )

    def setup(self) -> None:
        self.model = build_butterfly_decoder(ModelConfig(**TINY_DECODER)).eval()
        warm = self.low[0][: 2 * MAX_BATCH]
        serve(self.model, MAX_BATCH, warm, [0.0] * len(warm),
              harness.Tracer(False), self.probe)

    def measure(self, tracer: harness.Tracer) -> Measured:
        cache_before = plan_cache_stats()
        model = traced_model(self.model, tracer)
        window_start = clock()
        low = serve(model, MAX_BATCH, *self.low, tracer, self.probe)
        opened, backlogs = [], []
        for open_phase, backlog_phase in self.rounds:
            opened.append(
                serve(model, MAX_BATCH, *open_phase, tracer, self.probe))
            backlogs.append(
                serve(model, MAX_BATCH, *backlog_phase, tracer, self.probe))
        window = clock() - window_start
        loaded = latency_summary([phase.records for phase in opened])
        unloaded = latency_summary([low.records])
        arrivals = [r for phase in opened for r in phase.records]
        layer = window_layer_metrics(model, tracer, opened, cache_before)
        layer.update({
            "serving.queue_wait_p50_ms": float(np.median(
                [(r.admitted - r.due) * 1e3 for r in arrivals if r.token_times])),
            "serving.generator_late_p95_ms": float(np.percentile(
                [(r.sent - r.due) * 1e3 for r in arrivals], 95)),
            "serving.lowrate_ttft_p50_ms": unloaded["ttft"]["p50"],
            "serving.lowrate_itl_p50_ms": unloaded["itl"]["p50"],
        })
        return Measured(
            window_s=window,
            attempted=len(low.records) + sum(
                len(phase.records) for phase in opened + backlogs),
            # Below saturation an open loop's throughput is the offered
            # rate, so only the backlogs measure the engine's.
            rates=[phase.rate(MAX_BATCH) for phase in backlogs],
            slowdowns=[phase.slowdown for phase in opened],
            op=loaded["op"], ttft=loaded["ttft"], itl=loaded["itl"],
            slo_ok_share=loaded["slo_ok_share"],
            outputs=[r for phase in [low, *opened, *backlogs]
                     for r in phase.records],
            layer=layer,
        )

    def check(self, measured: Measured) -> int:
        return count_failures(
            measured.outputs, self.model, sample_from=COMMON_ORACLE_PREFIX)

    def probes(self) -> Dict[str, float]:
        return serving_probes(self.model, batch=MAX_BATCH, context=40)


#: ``serve_open`` and ``http_stream`` check the same eight requests of
#: their shared plan prefix, so their sampled tokens can be compared.
COMMON_ORACLE_PREFIX = 120


class DecodeInt8(Workload):
    name = "decode_int8"
    DECODER = dict(
        vocab_size=256, n_classes=2, max_len=96, d_hidden=512, n_heads=8,
        r_ffn=4, n_total=2, dtype="float32", seed=0,
    )
    BATCH = 8
    PROMPT_LEN, NEW_TOKENS = 16, 48
    #: A wave is ``BATCH`` requests submitted at once and run to
    #: completion: equal lengths make a longer backlog run as the same
    #: waves anyway, and timing each from its own start keeps a request's
    #: latency from being its place in the queue.
    WAVES = 12
    #: documented bound on max |int8 - fp32| logits over max |fp32|.
    REL_DRIFT_BOUND = 0.05

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.plan = request_plan(
            seed, self.count(self.WAVES) * self.BATCH,
            self.DECODER["vocab_size"],
            mix=((self.PROMPT_LEN, self.NEW_TOKENS),),
        )
        self.input_hash = harness.input_hash(
            [[r.prompt, r.max_new_tokens, r.seed] for r in self.plan])

    def setup(self) -> None:
        self.config = ModelConfig(**self.DECODER)
        self.model = build_dense_decoder(self.config).eval()
        t0 = clock()
        self.replica = nn.quantize_for_inference(self.model, mode="int8")
        self.quantize_s = clock() - t0
        self._wave(self.replica, self.plan[: self.BATCH], harness.Tracer(False))

    def _wave(self, model, plan, tracer: harness.Tracer) -> Phase:
        return serve(
            model, self.BATCH, plan, [0.0] * len(plan), tracer, self.probe)

    def setup_layer_metrics(self) -> Dict[str, float]:
        return {
            "nn.quantize_for_inference_s": self.quantize_s,
            "nn.weight_bytes": nn.weight_memory_bytes(self.replica),
        }

    def measure(self, tracer: harness.Tracer) -> Measured:
        cache_before = plan_cache_stats()
        model = traced_model(self.replica, tracer)
        window_start = clock()
        waves = [
            self._wave(model, self.plan[start:start + self.BATCH], tracer)
            for start in range(0, len(self.plan), self.BATCH)
        ]
        window = clock() - window_start
        summary = latency_summary([wave.records for wave in waves])
        layer = window_layer_metrics(model, tracer, waves, cache_before)
        return Measured(
            window_s=window,
            attempted=len(self.plan),
            rates=[wave.rate(self.BATCH) for wave in waves],
            slowdowns=[wave.slowdown for wave in waves],
            op=summary["op"], ttft=summary["ttft"], itl=summary["itl"],
            outputs=[r for wave in waves for r in wave.records],
            layer=layer,
        )

    def check(self, measured: Measured) -> int:
        """Every request complete and sampled ones equal to a solo run on
        the replica; the replica's logits within the documented drift of
        the fp32 model's on the workload's prompts."""
        failed = count_failures(
            measured.outputs, self.replica, sample_from=len(self.plan))
        tokens = np.asarray([r.prompt for r in self.plan[: self.BATCH]])
        with self.config.dtype_context(), nn.no_grad():
            reference = self.model(tokens).data
            drift = np.abs(self.replica(tokens).data - reference).max()
        if drift / np.abs(reference).max() > self.REL_DRIFT_BOUND:
            return len(self.plan)
        return failed

    def probes(self) -> Dict[str, float]:
        out = serving_probes(
            self.replica, batch=self.BATCH,
            context=self.PROMPT_LEN + self.NEW_TOKENS // 2)
        # The widest streamed weight: the FFN up-projection.
        layer = self.replica.blocks[0].ffn.fc1
        x = np.random.default_rng(0).standard_normal(
            (self.BATCH, layer.in_features)).astype(np.float32)
        ms = harness.time_ms(
            lambda: kernels.quantized_linear(
                x, layer.q_weight, layer.scales, layer.bias), 200)
        # Bytes are computed from tensor sizes, not counted by hardware.
        moved = layer.q_weight.nbytes + layer.scales.nbytes + x.nbytes
        out.update({
            "kernels.quantized_linear_ms": ms,
            "kernels.quantized_linear_bytes": moved,
            "kernels.quantized_linear_gbps": moved / (ms * 1e-3) / 1e9,
        })
        return out
