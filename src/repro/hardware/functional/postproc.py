"""Post-processing Processor (PostP): shortcut addition + layer norm.

Paper Figure 6(a): PostP executes residual (shortcut) addition and layer
normalization between engine invocations, reading the shortcut operand
from the dedicated shortcut buffer.  We also model the activation unit
used inside the FFN (GELU), which in RTL is a piecewise/LUT evaluator.
"""

from __future__ import annotations

import numpy as np

_GELU_C = np.sqrt(2.0 / np.pi)


class PostProcessor:
    """Value-accurate PostP with operation counting."""

    def __init__(self) -> None:
        self.shortcut_adds = 0
        self.layernorm_rows = 0
        self.activation_elems = 0

    def shortcut_add(self, x: np.ndarray, shortcut: np.ndarray) -> np.ndarray:
        if x.shape != shortcut.shape:
            raise ValueError(f"shape mismatch {x.shape} vs {shortcut.shape}")
        self.shortcut_adds += x.size
        return x + shortcut

    def layer_norm(
        self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
    ) -> np.ndarray:
        """Normalize the last axis; one pass per row as in the RTL."""
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self.layernorm_rows += int(np.prod(x.shape[:-1]))
        return (x - mu) / np.sqrt(var + eps) * gamma + beta

    def gelu(self, x: np.ndarray) -> np.ndarray:
        """GELU (tanh form), matching :func:`repro.nn.tensor.gelu`."""
        self.activation_elems += x.size
        # The cube as ``kernels.gelu_forward`` spells it, for its bytes.
        inner = _GELU_C * (x + 0.044715 * (x * x * x))
        return 0.5 * x * (1.0 + np.tanh(inner))
