"""Accuracy oracles for the co-design search.

The paper obtains each design point's accuracy by training FABNet on the
target LRA task — hundreds of GPU hours over the grid.  We provide two
oracles with one interface:

* :class:`TrainedAccuracyOracle` — actually trains a small FABNet on the
  synthetic task (used by the examples; exact but slow for full grids).
* :class:`SurrogateAccuracyOracle` — a calibrated capacity model used by
  the Fig. 18 benchmark.  Accuracy approaches the task's ceiling (the
  paper's Table III FABNet accuracy) as model capacity grows, with a
  saturating-exponential deficit and small deterministic per-point noise;
  this reproduces the qualitative structure of the paper's scatter (a
  Pareto front where tiny models lose accuracy and big ones saturate).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..hardware.perf import WorkloadSpec

# Table III: optimized FABNet accuracy per LRA task.
TASK_ACCURACY_CEILING = {
    "listops": 0.374,
    "text": 0.626,
    "retrieval": 0.801,
    "image": 0.398,
    "pathfinder": 0.679,
}

# Table III: vanilla Transformer accuracy (reference for accuracy-loss
# constraints).
TASK_TRANSFORMER_ACCURACY = {
    "listops": 0.373,
    "text": 0.637,
    "retrieval": 0.783,
    "image": 0.379,
    "pathfinder": 0.709,
}


class AccuracyOracle(Protocol):
    """Anything that maps a workload spec to a task accuracy."""

    def accuracy(self, spec: WorkloadSpec) -> float:  # pragma: no cover
        ...


@dataclass
class SurrogateAccuracyOracle:
    """Calibrated capacity->accuracy surrogate.

    ``capacity = n_total * (log2(d_hidden) + log2(r_ffn)) + boost * n_abfly``;
    ``accuracy = ceiling - deficit * exp(-capacity / tau) + noise``.

    Calibration: a {d=64, n=2, r=4} FABNet sits within ~1% of the ceiling
    (the paper's Fig. 18 winner satisfies the <1% constraint) while a
    {d=64, n=1, r=1} point loses several points.
    """

    task: str = "text"
    deficit: float = 0.25
    tau: float = 3.8
    abfly_boost: float = 3.0
    noise_scale: float = 0.004
    chance_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.task not in TASK_ACCURACY_CEILING:
            raise ValueError(
                f"unknown task {self.task!r}; choose from {sorted(TASK_ACCURACY_CEILING)}"
            )

    def capacity(self, spec: WorkloadSpec) -> float:
        return (
            spec.n_total * (math.log2(spec.d_hidden) + math.log2(max(1, spec.r_ffn)))
            + self.abfly_boost * spec.n_abfly
        )

    def accuracy(self, spec: WorkloadSpec) -> float:
        ceiling = TASK_ACCURACY_CEILING[self.task]
        cap = self.capacity(spec)
        acc = ceiling - self.deficit * math.exp(-cap / self.tau)
        # Deterministic per-point jitter so the scatter is not a clean curve,
        # seeded from a stable digest (``hash`` of a str is salted per process).
        rng = np.random.default_rng([zlib.crc32(self.task.encode()), spec.d_hidden,
                                     spec.r_ffn, spec.n_total, spec.n_abfly])
        acc += float(rng.normal(0.0, self.noise_scale))
        floor = self.chance_floor if ceiling > self.chance_floor else 1.0 / 10.0
        return float(min(max(acc, floor * 0.2), ceiling + 3 * self.noise_scale))


@dataclass
class TrainedAccuracyOracle:
    """Train a small FABNet on a synthetic LRA task and report accuracy.

    Exact but slow; intended for spot-checking a handful of design points
    (see ``examples/codesign_search.py``).
    """

    task: str = "text"
    seq_len: int = 64
    n_samples: int = 240
    epochs: int = 3
    lr: float = 3e-3
    seed: int = 0

    def accuracy(self, spec: WorkloadSpec) -> float:
        from ..data import load_task
        from ..models import ModelConfig, build_fabnet
        from ..training import train_model_on_task

        kwargs = {"n_samples": self.n_samples, "seed": self.seed}
        if self.task in ("image", "pathfinder"):
            grid = int(round(math.sqrt(self.seq_len)))
            kwargs["grid"] = grid
        else:
            kwargs["seq_len"] = self.seq_len
        dataset = load_task(self.task, **kwargs)
        config = ModelConfig(
            vocab_size=dataset.vocab_size,
            n_classes=dataset.n_classes,
            max_len=dataset.seq_len,
            d_hidden=min(spec.d_hidden, 128),  # keep CPU training tractable
            n_heads=spec.n_heads,
            r_ffn=spec.r_ffn,
            n_total=spec.n_total,
            n_abfly=spec.n_abfly,
            seed=self.seed,
        )
        model = build_fabnet(config)
        result = train_model_on_task(
            model, dataset, epochs=self.epochs, lr=self.lr, seed=self.seed
        )
        return result.best_test_accuracy
