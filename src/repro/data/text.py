"""Synthetic LRA-Text: byte-level document classification.

LRA-Text is byte-level IMDb sentiment.  We substitute a two-lexicon
generative model: documents are sequences of character-level "words"
drawn from a positive or negative lexicon, mixed with shared neutral
words.  The label is the dominant lexicon.  The sentiment signal is
distributed over the entire document, so a model must aggregate evidence
across the full sequence, as in the real task.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import TaskDataset

PAD = 0
SPACE = 1
CHAR_BASE = 2
N_CHARS = 26
VOCAB_SIZE = CHAR_BASE + N_CHARS  # 28


def _make_lexicon(rng: np.random.Generator, n_words: int, word_len: int) -> List[np.ndarray]:
    return [
        rng.integers(CHAR_BASE, CHAR_BASE + N_CHARS, size=word_len).astype(np.int64)
        for _ in range(n_words)
    ]


def generate_text(
    n_samples: int = 512,
    seq_len: int = 256,
    n_lexicon_words: int = 12,
    word_len: int = 4,
    signal_ratio: float = 0.35,
    seed: int = 0,
    test_fraction: float = 0.25,
) -> TaskDataset:
    """Generate byte-level documents labeled by their dominant lexicon.

    ``signal_ratio`` is the fraction of words drawn from the label's
    lexicon; the rest come from a shared neutral lexicon, so a classifier
    must pool weak evidence across the document.
    """
    rng = np.random.default_rng(seed)
    positive = _make_lexicon(rng, n_lexicon_words, word_len)
    negative = _make_lexicon(rng, n_lexicon_words, word_len)
    neutral = _make_lexicon(rng, 4 * n_lexicon_words, word_len)

    xs = np.zeros((n_samples, seq_len), dtype=np.int64)
    ys = rng.integers(0, 2, size=n_samples).astype(np.int64)
    for i in range(n_samples):
        lexicon = positive if ys[i] == 1 else negative
        pos = 0
        while pos + word_len + 1 <= seq_len:
            source = lexicon if rng.random() < signal_ratio else neutral
            word = source[int(rng.integers(0, len(source)))]
            xs[i, pos : pos + word_len] = word
            pos += word_len
            xs[i, pos] = SPACE
            pos += 1
    order = rng.permutation(n_samples)
    n_test = max(1, int(n_samples * test_fraction))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return TaskDataset(
        name="text",
        vocab_size=VOCAB_SIZE,
        n_classes=2,
        seq_len=seq_len,
        x_train=xs[train_idx],
        y_train=ys[train_idx],
        x_test=xs[test_idx],
        y_test=ys[test_idx],
    )
