"""Post-processing Processor (PostP): shortcut addition + layer norm.

Paper Figure 6(a): PostP executes residual (shortcut) addition and layer
normalization between engine invocations, reading the shortcut operand
from the dedicated shortcut buffer.  We also model the activation unit
used inside the FFN (GELU), which in RTL is a piecewise/LUT evaluator.
"""

from __future__ import annotations

import numpy as np

# ``kernels.gelu_forward``'s constants, spelled as it spells them:
# ``0.5 (1 + tanh(c (x + 0.044715 x^3))) == 1 / (1 + 2^(x (A + B x^2)))``.
_GELU_A = -2.0 * float(np.sqrt(2.0 / np.pi)) * 1.4426950408889634  # log2(e)
_GELU_B = _GELU_A * 0.044715


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
        """Normalize the last axis; one pass per row as in the RTL.  The
        arithmetic of ``ndarray.mean`` / ``var``, without their wrappers."""
        n = x.shape[-1]
        centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
        self.layernorm_rows += x.size // n
        return centred / np.sqrt(var + eps) * gamma + beta

    def gelu(self, x: np.ndarray) -> np.ndarray:
        """GELU (tanh form), matching :func:`repro.nn.tensor.gelu`."""
        self.activation_elems += x.size
        # ``kernels.gelu_forward``'s arithmetic, for its bytes; below
        # x ~ -21 (float64) ``exp2`` overflows by design and GELU is -0.
        with np.errstate(over="ignore"):
            return x / (1.0 + np.exp2(x * (_GELU_A + _GELU_B * (x * x))))
