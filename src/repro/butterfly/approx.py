"""Approximating dense matrices with butterfly factorizations.

Section II-B of the paper motivates butterfly matrices as "universal
representations of structured matrices" with strong expressiveness even
on unstructured data.  This module makes that measurable:

* :func:`fit_butterfly` — gradient-fit a butterfly factorization to an
  arbitrary dense matrix using the library's own autograd.
* :func:`approximation_error` — relative Frobenius error of the fit.

This is also the practical migration path for users: take a trained dense
layer, fit a butterfly, and fine-tune — the compression recipe the paper
applies to BERT-class models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..nn.butterfly_layer import ButterflyLinear

# NOTE: repro.nn depends on repro.butterfly (the layer wraps the factor
# math), so this module imports repro.nn lazily inside functions to keep
# the package import graph acyclic.


@dataclass
class FitResult:
    """Outcome of a butterfly fit."""

    layer: "ButterflyLinear"
    losses: List[float] = field(default_factory=list)


def approximation_error(layer: "ButterflyLinear", target: np.ndarray) -> float:
    """Relative Frobenius error ||B - T||_F / ||T||_F of the current fit."""
    approx = layer.dense_weight()
    denom = np.linalg.norm(target)
    if denom == 0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - target) / denom)


def fit_butterfly(
    target: np.ndarray,
    steps: int = 300,
    lr: float = 0.05,
    rng: Optional[np.random.Generator] = None,
) -> FitResult:
    """Fit a butterfly factorization to a dense ``out x in`` matrix.

    Minimizes ``||B x - T x||^2`` over random probe batches with Adam —
    equivalent in expectation to the Frobenius objective but exercising
    the same training path a user would fine-tune with.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ValueError(f"target must be a matrix, got shape {target.shape}")
    out_features, in_features = target.shape
    from ..nn import tensor as F
    from ..nn.butterfly_layer import ButterflyLinear
    from ..nn.optim import Adam
    from ..nn.tensor import Tensor

    rng = rng or np.random.default_rng(0)
    layer = ButterflyLinear(in_features, out_features, bias=False, rng=rng)
    optimizer = Adam(layer.parameters(), lr=lr)
    result = FitResult(layer=layer)
    batch = max(16, 2 * in_features)
    for _ in range(steps):
        x = rng.normal(size=(batch, in_features))
        pred = layer(Tensor(x))
        want = Tensor(x @ target.T)
        loss = F.mean((pred - want) ** 2)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        result.losses.append(loss.item())
    return result


def compare_with_truncated_svd(
    target: np.ndarray, fit: FitResult, rank: Optional[int] = None
) -> dict:
    """Compare the butterfly fit against a parameter-matched low-rank one.

    The low-rank baseline keeps the top-``rank`` singular triplets, where
    ``rank`` defaults to the value whose parameter count matches the
    butterfly's (the fair comparison behind Table II's low-rank rows).
    """
    target = np.asarray(target, dtype=np.float64)
    out_features, in_features = target.shape
    if rank is None:
        budget = sum(p.size for p in fit.layer.stage_parameters())
        rank = max(1, budget // (in_features + out_features))
    u, s, vt = np.linalg.svd(target, full_matrices=False)
    lowrank = (u[:, :rank] * s[:rank]) @ vt[:rank]
    denom = np.linalg.norm(target)
    return {
        "rank": rank,
        "butterfly_error": approximation_error(fit.layer, target),
        "lowrank_error": float(np.linalg.norm(lowrank - target) / denom),
    }
