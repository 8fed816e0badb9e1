"""Trainable butterfly linear layer (the paper's compression primitive).

``ButterflyLinear`` replaces a dense ``out x in`` weight matrix with a
product of ``log2 n`` butterfly factors (``n`` = smallest power of two
covering both dimensions), reducing parameters and multiplications from
``O(in * out)`` to ``O(n log n)``.  Rectangular shapes are handled by
zero-padding the input to ``n`` and truncating the output, the standard
construction used by the butterfly literature the paper builds on
(Dao et al., Kaleidoscope).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..butterfly.factor import stage_halves
from ..butterfly.matrix import ButterflyMatrix, butterfly_flops
from ..butterfly.factor import ButterflyFactor
from ..kernels import FrozenLadderCache
from ..kernels.layout import next_power_of_two
from . import tensor as F
from .module import Module, Parameter
from .tensor import Tensor


class ButterflyLinear(Module):
    """Butterfly-factorized linear layer ``y = B x + b``.

    Args:
        in_features: input dimension (any positive integer).
        out_features: output dimension (any positive integer).
        bias: include an additive bias.
        rng: random generator for initialization.

    The internal butterfly size is ``n = next_pow2(max(in, out, 2))``; one
    stage parameter tensor of shape ``(4, n/2)`` exists per stage, matching
    the coefficient layout consumed by the hardware Butterfly Unit model.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"features must be positive, got in={in_features}, out={out_features}"
            )
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        # At least 2: a ladder has one stage or more.
        self.n = next_power_of_two(max(in_features, out_features, 2))
        self.halves = stage_halves(self.n)
        sample = functools.partial(rng.normal, 0.0, 1.0 / np.sqrt(2.0))
        for i, _half in enumerate(self.halves):
            setattr(self, f"stage_{i}", Parameter.drawn(sample, 4, self.n // 2))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        # The ladder's fused inference operators, rebuilt when a stage
        # parameter's (version, data) or the input dtype changes.
        self._frozen = FrozenLadderCache(in_features, out_features)

    # ------------------------------------------------------------------
    def stage_parameters(self) -> list[Parameter]:
        """Stage coefficient tensors in application order."""
        return [getattr(self, f"stage_{i}") for i in range(len(self.halves))]

    def frozen_ladder(self, dtype):
        """This layer's inference operator for ``dtype`` inputs — the
        :class:`~repro.kernels.FrozenLadder` built once per weight
        version (what a decoder's inference program applies)."""
        return self._frozen.get(self.stage_parameters(), dtype)

    def forward(self, x: Tensor) -> Tensor:
        # Inference runs the frozen operators (fold built in); a recorded
        # call is one autograd node whose kernel entry owns the fold, its
        # input-width check included.
        if not F.is_grad_enabled():
            ladder = self.frozen_ladder(x.dtype)
            out = Tensor(ladder.apply(x.data), dtype=ladder.dtype)
        else:
            out = F.butterfly_apply(
                x, self.stage_parameters(), self.halves,
                in_features=self.in_features, out_features=self.out_features,
            )
        if self.bias is not None:
            out = out + self.bias
        return out

    # ------------------------------------------------------------------
    def to_butterfly_matrix(self) -> ButterflyMatrix:
        """Snapshot the current weights as a numpy ButterflyMatrix."""
        factors = [
            ButterflyFactor(self.n, half, coeffs.data.copy())
            for half, coeffs in zip(self.halves, self.stage_parameters())
        ]
        return ButterflyMatrix(factors)

    def dense_weight(self) -> np.ndarray:
        """Equivalent dense ``out x in`` weight matrix (for verification)."""
        full = self.to_butterfly_matrix().dense()
        return full[: self.out_features, : self.in_features]

    def flops(self, rows: int = 1) -> int:
        """Forward FLOPs for ``rows`` input vectors (fast butterfly apply)."""
        total = butterfly_flops(self.n, rows)
        if self.bias is not None:
            total += rows * self.out_features
        return total
