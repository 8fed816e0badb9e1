"""Core neural-network layers built on the autograd engine."""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from . import tensor as F
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Dense affine layer ``y = x W^T + b`` with Xavier-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter.drawn(
            functools.partial(rng.uniform, -bound, bound), out_features, in_features)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear_act(x, self.weight, self.bias)


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter.drawn(
            functools.partial(rng.normal, 0.0, 0.02), num_embeddings, embedding_dim)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


def token_ids(tokens, vocab_size: int, name: str = "tokens") -> np.ndarray:
    """``tokens`` as int64 ids in ``[0, vocab_size)``, the one check every
    model entry and the serving ``submit`` share: a float id would be
    truncated by the embedding gather, a negative one wrap to the last
    row and one past the vocabulary fail deep in a kernel."""
    tokens = np.asarray(tokens)
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer ids, got dtype {tokens.dtype}")
    if tokens.size:
        low = np.minimum.reduce(tokens, axis=None)
        high = np.maximum.reduce(tokens, axis=None)
        if low < 0 or high >= vocab_size:
            raise ValueError(
                f"{name} must lie in [0, {vocab_size}), got [{low}, {high}]")
    return tokens.astype(np.int64, copy=False)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)
