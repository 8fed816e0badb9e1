"""Common dataset container for the synthetic Long-Range-Arena tasks.

The paper evaluates on five LRA tasks (ListOps, Text, Retrieval, Image,
Pathfinder).  The real dataset is a 33 GB download; we substitute
procedurally generated tasks that keep each task's defining property —
long token sequences whose labels depend on interactions across the whole
sequence — at a scale where numpy CPU training converges in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass
class TaskDataset:
    """A generated classification task.

    ``x_*`` arrays hold integer token ids.  For single-sequence tasks the
    shape is ``(n, seq_len)``; for the paired Retrieval task it is
    ``(n, 2, seq_len)`` and ``paired`` is True.
    """

    name: str
    vocab_size: int
    n_classes: int
    seq_len: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    paired: bool = False

    def __post_init__(self) -> None:
        for split, (x, y) in (
            ("train", (self.x_train, self.y_train)),
            ("test", (self.x_test, self.y_test)),
        ):
            if len(x) != len(y):
                raise ValueError(f"{split}: {len(x)} inputs vs {len(y)} labels")
            if x.max(initial=0) >= self.vocab_size:
                raise ValueError(f"{split}: token id exceeds vocab_size {self.vocab_size}")
            if y.max(initial=0) >= self.n_classes:
                raise ValueError(f"{split}: label exceeds n_classes {self.n_classes}")
        expected_ndim = 3 if self.paired else 2
        if self.x_train.ndim != expected_ndim:
            raise ValueError(
                f"expected {expected_ndim}-d inputs for paired={self.paired}, "
                f"got shape {self.x_train.shape}"
            )

    @property
    def n_train(self) -> int:
        return len(self.y_train)

    @property
    def n_test(self) -> int:
        return len(self.y_test)

    def batches(
        self, batch_size: int, rng: np.random.Generator, split: str = "train"
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled (tokens, labels) mini-batches from a split."""
        x, y = (
            (self.x_train, self.y_train) if split == "train" else (self.x_test, self.y_test)
        )
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            yield x[idx], y[idx]


def train_test_split(
    x: np.ndarray, y: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split arrays into train/test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = rng.permutation(len(y))
    n_test = max(1, int(len(y) * test_fraction))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]
