"""The Adam update (Kingma & Ba)."""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .module import Parameter

#: The moment decay rates and the denominator's floor: one value each.
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam over a parameter list; the learning rate is its one setting."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Allocation-free Adam step (same math as the textbook update).

        Every moment/update expression is an in-place ``out=`` ufunc over
        one persistent scratch buffer per parameter.
        """
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        for p, m, v, buf in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            np.multiply(m, BETA1, out=m)
            np.multiply(grad, 1.0 - BETA1, out=buf)
            np.add(m, buf, out=m)
            np.multiply(v, BETA2, out=v)
            np.multiply(grad, grad, out=buf)
            np.multiply(buf, 1.0 - BETA2, out=buf)
            np.add(v, buf, out=v)
            # update = (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=buf)
            np.sqrt(buf, out=buf)
            np.add(buf, EPS, out=buf)
            np.divide(m, buf, out=buf)
            np.divide(buf, bias1, out=buf)
            np.multiply(buf, self.lr, out=buf)
            np.subtract(p.data, buf, out=p.data)
            p.bump_version()  # invalidate kernel caches (e.g. cached W^T)
