"""Vectorized token sampling shared by ``generate`` and the serving engine.

The seed ``ButterflyDecoderLM.generate`` sampled with a per-row Python
loop over ``rng.choice``; this module replaces it with the Gumbel-max
trick (``argmax(logits/T + G)`` with ``G ~ Gumbel(0, 1)`` draws exactly
from the softmax distribution), which vectorizes over the batch and
composes with top-k / top-p (nucleus) filtering.  All functions operate
on plain numpy logits so both the model's ``generate`` loop and the
per-request samplers in :mod:`repro.serving.engine` use the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SamplingParams:
    """Per-request decoding parameters.

    ``temperature == 0`` selects greedy decoding (top-k/top-p are then
    ignored).  ``top_k == 0`` and ``top_p == 1.0`` disable the
    respective filters.  ``seed`` makes the request's sampling stream
    reproducible regardless of how it is batched with other requests.
    The integer fields take a Python or numpy integer, never a bool or a
    float, and ``seed`` must be ``>= 0``.
    ``deadline_s`` is a finite wall-clock budget measured from submission
    on the engine's injectable clock; a request still unfinished past it
    is cancelled with ``finish_reason="deadline"`` (see
    :mod:`repro.serving.resilience`).
    """

    max_new_tokens: int = 16
    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0
    seed: Optional[int] = None
    stop_token: Optional[int] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        # A float or bool would pass the range tests below and then fail
        # (or round) inside a decode step, so integers are checked by type.
        for name, optional in (("max_new_tokens", False), ("top_k", False),
                               ("seed", True), ("stop_token", True)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        # Written so that NaN fails each test: it compares false to all.
        if not 0.0 <= self.temperature < float("inf"):
            raise ValueError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.deadline_s is not None and not 0.0 < self.deadline_s < float("inf"):
            raise ValueError(
                f"deadline_s must be finite and positive, got {self.deadline_s}"
            )


def filter_logits(logits: np.ndarray, top_k: int = 0, top_p: float = 1.0) -> np.ndarray:
    """Mask logits outside the top-k / nucleus support with ``-inf``.

    Operates row-wise on ``(..., vocab)`` logits.  Top-k keeps every
    entry tied with the k-th largest (so ties never drop below k
    candidates); top-p keeps the smallest prefix of the
    probability-sorted vocabulary whose mass reaches ``top_p`` (the
    most probable token is always kept).
    """
    logits = np.array(logits, dtype=np.float64, copy=True)
    vocab = logits.shape[-1]
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    if 0 < top_k < vocab:
        kth = np.partition(logits, -top_k, axis=-1)[..., -top_k, None]
        logits[logits < kth] = -np.inf
    if top_p < 1.0:
        order = np.argsort(-logits, axis=-1)
        ranked = np.take_along_axis(logits, order, axis=-1)
        shifted = ranked - ranked[..., :1]
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        cumulative = np.cumsum(probs, axis=-1)
        keep_ranked = (cumulative - probs) < top_p
        keep_ranked[..., 0] = True
        keep = np.zeros_like(keep_ranked)
        np.put_along_axis(keep, order, keep_ranked, axis=-1)
        logits[~keep] = -np.inf
    return logits


def sample_logits(
    logits: np.ndarray,
    temperature: float = 0.0,
    top_k: int = 0,
    top_p: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Draw next tokens from ``(..., vocab)`` logits, vectorized.

    Greedy argmax when ``temperature <= 0``; otherwise temperature
    scaling, optional top-k / top-p filtering, and a Gumbel-max draw.
    Returns an integer array with the leading shape of ``logits``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if temperature <= 0.0:
        return logits.argmax(axis=-1)
    filtered = filter_logits(logits / temperature, top_k=top_k, top_p=top_p)
    rng = rng or np.random.default_rng()
    uniform = np.clip(rng.random(filtered.shape), 1e-12, 1.0 - 1e-12)
    gumbel = -np.log(-np.log(uniform))
    return np.argmax(filtered + gumbel, axis=-1)
