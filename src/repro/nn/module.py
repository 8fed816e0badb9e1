"""Module/Parameter system mirroring the small subset of ``torch.nn`` we need."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..kernels.quant import block_rows
from .tensor import Tensor, get_default_dtype


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter.

    Parameters carry a monotonically increasing ``version`` counter that
    the optimizers bump after every in-place update.  Kernel-side caches
    keyed on parameter contents — e.g. the fused linear projection's
    cached ``W^T`` (:func:`repro.kernels.cached_transpose`) — validate
    against this counter (plus ``data`` identity, which covers outright
    rebinds), so a stale cache can never survive a weight update.
    """

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.version = 0  # update counter consumed by kernel-side caches

    @classmethod
    def drawn(cls, sample: Callable[..., np.ndarray], rows: int, cols: int) -> "Parameter":
        """A ``(rows, cols)`` parameter in the policy dtype holding
        ``sample(size=(rows, cols))``'s values, drawn straight into it in
        :func:`~repro.kernels.quant.block_rows` row blocks of float64.  A
        generator's stream does not depend on how its draws are split, so
        the bytes are those of one full-size draw cast to the policy
        dtype, without that float64 draw's memory."""
        data = np.empty((rows, cols), get_default_dtype())
        step = block_rows(cols, np.dtype(np.float64).itemsize)
        for start in range(0, rows, step):
            block = data[start:start + step]
            block[...] = sample(size=block.shape)
        return cls(data)

    def bump_version(self) -> None:
        """Record that ``data`` was mutated in place (invalidates caches)."""
        self.version += 1


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are auto-registered,
    so ``named_parameters`` and ``state_dict`` walk the full tree.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].copy()
            param.bump_version()


class ModuleList(Module):
    """Hold sub-modules in a list, registering each one."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self._modules[str(len(self._items))] = module
            self._items.append(module)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)
