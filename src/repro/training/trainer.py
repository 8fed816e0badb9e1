"""Training loop for the LRA classification experiments."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import nn
from ..data.base import TaskDataset
from ..kernels.pool import RECYCLER
from ..telemetry import gauge_set, span


def _model_dtype_context(model: nn.Module):
    """The dtype policy scope declared by the model's config, if any.

    Models built from a :class:`~repro.models.ModelConfig` carry the
    config's ``dtype`` choice; training honors it automatically so a
    ``dtype="float32"`` model is actually trained in float32 (activations
    created inside the loop follow the parameters instead of silently
    upcasting to the global default).
    """
    config = getattr(model, "config", None)
    if config is None:
        encoder = getattr(model, "encoder", None)
        config = getattr(encoder, "config", None)
    if config is not None and hasattr(config, "dtype_context"):
        return config.dtype_context()
    return contextlib.nullcontext()


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
        weight_decay: float = 0.0,
        batch_size: int = 32,
        seed: int = 0,
        grad_clip: Optional[float] = None,
        patience: Optional[int] = None,
        use_masks: bool = False,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        """``grad_clip`` bounds the global gradient norm; ``patience``
        stops training after that many epochs without a new best test
        accuracy (early stopping); ``use_masks`` feeds the dataset's
        padding masks to the model (requires length annotations)."""
        self.model = model
        self.optimizer = nn.Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.grad_clip = grad_clip
        self.patience = patience
        self.use_masks = use_masks
        self.log = log

    # ------------------------------------------------------------------
    def evaluate(self, dataset: TaskDataset, split: str = "test") -> float:
        """Return accuracy on a dataset split.

        Runs under the model config's dtype policy, like :meth:`fit`, so
        standalone evaluation of a float32 model stays float32.
        """
        with _model_dtype_context(self.model):
            return self._evaluate(dataset, split)

    def _evaluate(self, dataset: TaskDataset, split: str) -> float:
        self.model.eval()
        x, y = (
            (dataset.x_test, dataset.y_test)
            if split == "test"
            else (dataset.x_train, dataset.y_train)
        )
        masks = dataset.masks(split) if self.use_masks else None
        correct = 0
        with nn.no_grad():
            for start in range(0, len(y), self.batch_size):
                xb = x[start : start + self.batch_size]
                yb = y[start : start + self.batch_size]
                if masks is not None:
                    logits = self.model(xb, mask=masks[start : start + self.batch_size])
                else:
                    logits = self.model(xb)
                correct += int((logits.data.argmax(axis=-1) == yb).sum())
        self.model.train()
        return correct / len(y)

    def fit(self, dataset: TaskDataset, epochs: int = 5) -> TrainResult:
        """Train for ``epochs`` epochs, recording loss and accuracies.

        Runs under the model config's dtype policy (see
        :meth:`repro.models.ModelConfig.dtype_context`), each step in the
        arrays the last one released (:data:`repro.kernels.pool.RECYCLER`):
        not re-entrant.
        """
        with _model_dtype_context(self.model), RECYCLER.scope():
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
        best_acc = -1.0
        epochs_since_best = 0
        for epoch in range(epochs):
            epoch_losses: List[float] = []
            epoch_correct = 0
            epoch_count = 0
            if self.use_masks:
                batch_iter = (
                    (xb, yb, mb)
                    for xb, yb, mb in dataset.batches_with_masks(
                        self.batch_size, self.rng
                    )
                )
            else:
                batch_iter = (
                    (xb, yb, None)
                    for xb, yb in dataset.batches(self.batch_size, self.rng)
                )
            for xb, yb, mb in batch_iter:
                RECYCLER.next_step()
                with _phase("forward"):
                    logits = (self.model(xb, mask=mb) if mb is not None
                              else self.model(xb))
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
                    if self.grad_clip is not None:
                        nn.optim.clip_grad_norm(
                            self.model.parameters(), self.grad_clip
                        )
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
            if test_acc > best_acc:
                best_acc = test_acc
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if self.patience is not None and epochs_since_best >= self.patience:
                    if self.log is not None:
                        self.log(f"early stop after epoch {epoch + 1}")
                    break
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
