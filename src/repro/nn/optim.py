"""First-order optimizers: the Adam update and its base class."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .module import Parameter


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with decoupled weight decay option."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        """Allocation-free Adam step (same math as the textbook update).

        Every moment/update expression is an in-place ``out=`` ufunc over
        one persistent scratch buffer per parameter; the decoupled weight
        decay ``p -= lr * wd * p`` is folded into a single in-place
        rescale of the parameter, which is algebraically identical to
        adding ``wd * p`` to the update.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v, buf in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            np.add(m, buf, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=buf)
            np.multiply(buf, 1.0 - self.beta2, out=buf)
            np.add(v, buf, out=v)
            # update = (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=buf)
            np.sqrt(buf, out=buf)
            np.add(buf, self.eps, out=buf)
            np.divide(m, buf, out=buf)
            np.divide(buf, bias1, out=buf)
            if self.weight_decay:
                np.multiply(p.data, 1.0 - self.lr * self.weight_decay, out=p.data)
            np.multiply(buf, self.lr, out=buf)
            np.subtract(p.data, buf, out=p.data)
            p.bump_version()  # invalidate kernel caches (e.g. cached W^T)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    # Single vectorized pass: one BLAS dot per gradient (no squared-grad
    # temporaries, no per-parameter Python-float round-trips), one numpy
    # reduction over the per-parameter partial sums.
    sq = np.array([np.dot(g.reshape(-1), g.reshape(-1)) for g in grads])
    total = np.sqrt(sq.sum())
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            np.multiply(g, scale, out=g)
    return float(total)
