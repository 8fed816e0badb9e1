"""Training loop for the LRA classification experiments."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import nn
from ..data.base import TaskDataset
from ..kernels.pool import STEP
from ..telemetry import gauge_set, span


def _model_dtype_context(model: nn.Module):
    """The dtype policy scope of the model's (or its encoder's) config, if
    any: a ``dtype="float32"`` model trains and evaluates in float32."""
    config = getattr(model, "config", None) or getattr(
        getattr(model, "encoder", None), "config", None)
    return getattr(config, "dtype_context", contextlib.nullcontext)()


@dataclass
class TrainResult:
    """History and final metrics of one training run.

    ``tokens_per_s`` is the whole-fit training throughput (elements of
    every training batch over wall time, evaluation included — the same
    denominator as ``wall_time_s``); ``phase_seconds`` breaks the fit
    into ``forward`` / ``backward`` / ``optimizer`` cumulative seconds.
    """

    train_losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    test_accuracies: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    train_tokens: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracies[-1] if self.test_accuracies else 0.0

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracies) if self.test_accuracies else 0.0

    @property
    def tokens_per_s(self) -> Optional[float]:
        if self.wall_time_s <= 0.0 or not self.train_tokens:
            return None
        return self.train_tokens / self.wall_time_s


class Trainer:
    """Minimal epoch-based trainer with per-epoch test evaluation.

    ``model`` is an :class:`EncoderClassifier` or, for the paired
    Retrieval task, a :class:`DualEncoderClassifier`.
    """

    def __init__(
        self,
        model: nn.Module,
        lr: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        """``lr`` must be finite and positive, ``batch_size`` an integer of
        at least 1 (a bool is refused)."""
        if (isinstance(batch_size, bool)
                or not isinstance(batch_size, (int, np.integer)) or batch_size < 1):
            raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
        self.model = model
        self.optimizer = nn.Adam(model.parameters(), lr=lr)
        self.batch_size = int(batch_size)
        self.rng = np.random.default_rng(seed)
        self.log = log

    # ------------------------------------------------------------------
    def evaluate(self, dataset: TaskDataset) -> float:
        """Return accuracy on the dataset's test split.

        Runs under the model config's dtype policy, like :meth:`fit`, so
        standalone evaluation of a float32 model stays float32, and leaves
        the model in the mode it found it in.
        """
        x, y = dataset.x_test, dataset.y_test
        training = self.model.training
        self.model.eval()
        correct = 0
        try:
            with _model_dtype_context(self.model), nn.no_grad():
                for start in range(0, len(y), self.batch_size):
                    logits = self.model(x[start : start + self.batch_size])
                    correct += int((logits.data.argmax(axis=-1)
                                    == y[start : start + self.batch_size]).sum())
        finally:
            self.model.train(training)
        return correct / len(y)

    def fit(self, dataset: TaskDataset, epochs: int = 5) -> TrainResult:
        """Train for ``epochs`` epochs, recording loss and accuracies.

        Runs under the model config's dtype policy (see
        :meth:`repro.models.ModelConfig.dtype_context`), every step in the
        buffers the last one used: the fit holds
        :data:`repro.kernels.pool.STEP` and drops its buffers on exit.
        """
        with _model_dtype_context(self.model), STEP.held():
            return self._fit(dataset, epochs)

    def _fit(self, dataset: TaskDataset, epochs: int) -> TrainResult:
        result = TrainResult()
        phases = result.phase_seconds
        phases.update({"forward": 0.0, "backward": 0.0, "optimizer": 0.0})

        @contextlib.contextmanager
        def _phase(name: str):
            t0 = time.perf_counter()
            with span(f"train.{name}"):
                try:
                    yield
                finally:
                    phases[name] += time.perf_counter() - t0

        start_time = time.time()
        self.model.train()
        for epoch in range(epochs):
            epoch_losses: List[float] = []
            epoch_correct = 0
            epoch_count = 0
            for xb, yb in dataset.batches(self.batch_size, self.rng):
                with _phase("forward"):
                    logits = self.model(xb)
                    loss = nn.cross_entropy_logits(logits, yb)
                # Record train metrics from the forward results *before*
                # backward() — it eagerly releases the graph's saved
                # activations, so nothing about the batch should be
                # derived from graph state afterwards.
                epoch_losses.append(loss.item())
                epoch_correct += int((logits.data.argmax(axis=-1) == yb).sum())
                epoch_count += len(yb)
                result.train_tokens += int(np.asarray(xb).size)
                with _phase("backward"):
                    self.optimizer.zero_grad()
                    loss.backward()
                with _phase("optimizer"):
                    self.optimizer.step()
                # Drop the batch's graph roots so the logits/loss arrays
                # are reclaimed before the next forward allocates.
                del logits, loss
            train_loss = float(np.mean(epoch_losses))
            train_acc = epoch_correct / epoch_count
            test_acc = self.evaluate(dataset)
            result.train_losses.append(train_loss)
            result.train_accuracies.append(train_acc)
            result.test_accuracies.append(test_acc)
            if self.log is not None:
                self.log(
                    f"epoch {epoch + 1}/{epochs}: loss={train_loss:.4f} "
                    f"train_acc={train_acc:.3f} test_acc={test_acc:.3f}"
                )
        result.wall_time_s = time.time() - start_time
        rate = result.tokens_per_s
        if rate is not None:
            gauge_set("training_tokens_per_s", rate)
        return result


def train_model_on_task(
    model: nn.Module,
    dataset: TaskDataset,
    epochs: int = 5,
    lr: float = 1e-3,
    batch_size: int = 32,
    seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Convenience wrapper: build a Trainer and fit."""
    trainer = Trainer(model, lr=lr, batch_size=batch_size, seed=seed, log=log)
    return trainer.fit(dataset, epochs=epochs)
