"""``hw_sim``: host time of the functional accelerator simulator, with
every simulated statistic required to repeat exactly."""

from __future__ import annotations

from typing import Dict

import numpy as np

import harness
from harness import clock
from repro import nn
from repro.hardware.config import AcceleratorConfig
from repro.hardware.functional import (
    ButterflyAccelerator,
    ButterflyEngine,
    ButterflyLinearExecutor,
)
from repro.hardware.perf import ButterflyPerformanceModel, WorkloadSpec
from repro.models import ModelConfig, build_fabnet
from workload import Measured, Workload

MAX_ABS_ERROR = 1e-9


class ProbedEngine(ButterflyEngine):
    """The Butterfly Engine with the speed probe ticked at its public
    per-vector entry points: one simulated sample takes about a second,
    far longer than the machine holds one speed, and the benchmark makes
    no call of its own in between."""

    def __init__(self, probe: harness.SpeedProbe, **kwargs) -> None:
        super().__init__(**kwargs)
        self._probe = probe

    def run_butterfly(self, x, matrix):
        self._probe.tick()
        return super().run_butterfly(x, matrix)

    def run_fft(self, x):
        self._probe.tick()
        return super().run_fft(x)


class CountingEngine(ProbedEngine):
    """The traced pass's engine: the same entry points timed as spans,
    and ``last_stats`` summed after each one.  (``AcceleratorTrace`` keeps
    only the last row of every ``run_butterfly_rows`` call.)"""

    def __init__(self, probe: harness.SpeedProbe, tracer: harness.Tracer, **kwargs) -> None:
        super().__init__(probe, **kwargs)
        self._tracer = tracer
        self.totals = {"pair_ops": 0, "mult_ops": 0, "bank_conflicts": 0}

    def _account(self) -> None:
        for name in self.totals:
            self.totals[name] += getattr(self.last_stats, name)

    def run_butterfly(self, x, matrix):
        with self._tracer.span("hardware.butterfly_engine"):
            out = super().run_butterfly(x, matrix)
        self._account()
        return out

    def run_fft(self, x):
        with self._tracer.span("hardware.fft_engine"):
            out = super().run_fft(x)
        self._account()
        return out


class Timed:
    """Timing proxy: every public method call of ``target`` becomes one
    span called ``name``; attributes pass through."""

    def __init__(self, target, name: str, tracer: harness.Tracer) -> None:
        self._target = target
        self._name = name
        self._tracer = tracer

    def __getattr__(self, attribute):
        value = getattr(self._target, attribute)
        if not callable(value):
            return value

        def timed(*args, **kwargs):
            with self._tracer.span(self._name):
                return value(*args, **kwargs)

        return timed


class HwSim(Workload):
    name = "hw_sim"
    SEQ_LEN = 16
    SAMPLES = 12
    MODEL = dict(
        vocab_size=64, n_classes=2, max_len=SEQ_LEN, d_hidden=64, n_heads=4,
        r_ffn=4, n_total=2, n_abfly=1, dtype="float64", seed=0,
    )
    ACCELERATOR = AcceleratorConfig(pqk=8, psv=8)

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        rng = np.random.default_rng([seed, 3])
        self.samples = rng.integers(
            0, self.MODEL["vocab_size"],
            size=(self.count(self.SAMPLES), 1, self.SEQ_LEN))
        self.input_hash = harness.input_hash(self.samples)

    def setup(self) -> None:
        self.config = ModelConfig(**self.MODEL)
        self.model = build_fabnet(self.config).eval()
        # Warm-up: one sample fills the simulator's schedule caches.
        self._accelerator(harness.Tracer(False)).run_encoder(
            self.model, self.samples[0])

    def _accelerator(self, tracer: harness.Tracer) -> ButterflyAccelerator:
        accelerator = ButterflyAccelerator(self.ACCELERATOR)
        pbu = self.ACCELERATOR.pbu
        engine = (CountingEngine(self.probe, tracer, pbu=pbu) if tracer.enabled
                  else ProbedEngine(self.probe, pbu=pbu))
        accelerator.engine = engine
        accelerator.executor = ButterflyLinearExecutor(engine)
        if tracer.enabled:
            accelerator.attention = Timed(
                accelerator.attention, "hardware.attention", tracer)
            accelerator.postp = Timed(
                accelerator.postp, "hardware.postproc", tracer)
        return accelerator

    def measure(self, tracer: harness.Tracer) -> Measured:
        accelerator = self._accelerator(tracer)
        logits, spans = [], []
        for i, tokens in enumerate(self.samples):
            start = clock()
            with tracer.span("hardware.run_encoder", i):
                logits.append(accelerator.run_encoder(self.model, tokens))
            spans.append((start, clock()))
        layer: Dict[str, float] = {}
        if tracer.enabled:
            layer = self._layer_metrics(accelerator, tracer)
        return Measured.of_operations(
            self.probe, spans, self.SEQ_LEN,
            outputs=(logits, accelerator.trace.bank_conflicts),
            layer=layer,
        )

    def _layer_metrics(self, accelerator, tracer) -> Dict[str, float]:
        totals = accelerator.engine.totals
        engine_s = (tracer.total("hardware.butterfly_engine")
                    + tracer.total("hardware.fft_engine"))
        cfg = self.config
        report = ButterflyPerformanceModel(self.ACCELERATOR).model_latency(
            WorkloadSpec(
                seq_len=self.SEQ_LEN, d_hidden=cfg.d_hidden, r_ffn=cfg.r_ffn,
                n_total=cfg.n_total, n_abfly=cfg.n_abfly, n_heads=cfg.n_heads,
            ))
        return {
            "hardware.butterfly_engine_s": tracer.total("hardware.butterfly_engine"),
            "hardware.fft_engine_s": tracer.total("hardware.fft_engine"),
            "hardware.attention_s": tracer.total("hardware.attention"),
            "hardware.postproc_s": tracer.total("hardware.postproc"),
            "hardware.host_us_per_pair_op": engine_s * 1e6 / totals["pair_ops"],
            "hardware.pair_ops": totals["pair_ops"],
            "hardware.mult_ops": totals["mult_ops"],
            "hardware.bank_conflicts": totals["bank_conflicts"],
            # run_encoder zeroes the attention units' counters into its
            # trace after each attention call, so the trace holds the sums.
            "hardware.qk_macs": accelerator.trace.qk_macs,
            "hardware.sv_macs": accelerator.trace.sv_macs,
            "hardware.model_cycles": report.total_cycles,
            "hardware.model_latency_ms": report.latency_ms,
        }

    def check(self, measured: Measured) -> int:
        """Simulated logits equal the software model's, and no access hit
        a busy bank."""
        logits, bank_conflicts = measured.outputs
        bank_conflicts += measured.layer.get("hardware.bank_conflicts", 0)
        if bank_conflicts:
            return len(logits)
        with self.config.dtype_context(), nn.no_grad():
            return sum(
                np.abs(out - self.model(tokens).data).max() > MAX_ABS_ERROR
                for out, tokens in zip(logits, self.samples)
            )
