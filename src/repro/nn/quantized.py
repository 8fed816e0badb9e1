"""Reduced-storage inference: ``QuantizedLinear`` and ``quantize_for_inference``.

:func:`quantize_for_inference` takes a trained model and returns a
*storage-tier replica*: a deep copy in which every dense
:class:`~repro.nn.layers.Linear` (including the attention Q/K/V/output
projections and the LM head) is swapped for a :class:`QuantizedLinear`
over int8 codes (:mod:`repro.kernels.quant`).  The stored format is the
one in :data:`QUANT_MODES`: ``"int8"`` per-channel symmetric codes plus
fp32 scales, quantized by :func:`repro.kernels.quantize_per_channel`.
The original model is left untouched — training paths never see
quantized weights; the replica is decode/prefill only and raises if run
in training mode.

Only dense weights are stored: narrow storage pays for itself by cutting
the traffic of large operands.  A :class:`~repro.nn.butterfly_layer.
ButterflyLinear` keeps its fp stage coefficients and runs its
:class:`~repro.kernels.FrozenLadder`, the same operator the fp model's
inference program runs.  Embeddings, LayerNorm affines and biases stay
in floating point too: they are a vanishing fraction of the weight bytes
and the accelerator keeps its accumulators and normalization in wider
precision.

The replica keeps the incremental-decoding protocol of the source model
(``make_cache`` / ``prefill`` / ``decode_step`` / ``generate``), so it
drops into :class:`repro.serving.ServingEngine` unchanged — that is what
``ServingEngine(model, quantize="int8")`` does.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from .. import QUANT_MODES  # stored formats: spelled once, in the package root
from ..kernels import quant as QK
from .layers import Linear
from .module import Module, ModuleList, Sequential
from .tensor import Tensor


def check_mode(mode) -> None:
    """Refuse a stored-format name that is not in :data:`QUANT_MODES`,
    before any weight is touched."""
    if mode not in QUANT_MODES:
        raise ValueError(
            "quantize mode must be 'int8' (the one stored weight format), "
            f"got {mode!r}")


class QuantizedLinear(Module):
    """Inference-only dense layer over a stored ``(out, in)`` weight.

    Built from int8 codes with per-channel fp32 ``scales``; the triple
    is validated and the codes are packed here, once, into the blocks
    the GEMM reads (``q_weight`` is that
    :class:`~repro.kernels.PackedWeight`, the only copy held; ``dtype``
    is the dtype the layer will compute in, which sizes the blocks).
    Forward runs the dequant-on-the-fly GEMM
    (:func:`repro.kernels.quantized_linear`); no gradients are recorded
    (the returned tensor is a constant leaf), and calling it in training
    mode raises.
    """

    def __init__(
        self,
        q_weight,
        scales: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        self.bias = None if bias is None else np.asarray(bias)
        self.q_weight = QK.pack_weight(
            q_weight, scales, self.bias, itemsize=np.dtype(dtype).itemsize)
        self.out_features, self.in_features = self.q_weight.shape
        self.scales = scales
        self.training = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The layer on a plain ``(..., in)`` array, in ``x``'s own dtype."""
        return QK.quantized_linear(x, self.q_weight, self.scales, self.bias)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError(
                "QuantizedLinear is inference-only; quantize_for_inference "
                "replicas cannot be trained"
            )
        return Tensor(self.apply(x.data))

    def weight_nbytes(self) -> int:
        """Bytes held by the stored weight (codes + scales + bias)."""
        held = (self.q_weight, self.scales, self.bias)
        return sum(a.nbytes for a in held if a is not None)


def weight_memory_bytes(model: Module) -> int:
    """Total weight bytes of a model: fp parameters + stored-weight buffers.

    Parameters reachable through quantized modules are gone (replaced by
    int8 codes + scales, counted via ``weight_nbytes``);
    everything else is the ``nbytes`` of its parameter arrays.
    """
    total = sum(p.data.nbytes for p in model.parameters())
    for module in _walk(model):
        if isinstance(module, QuantizedLinear):
            total += module.weight_nbytes()
    return total


def _walk(module: Module):
    yield module
    for child in module._modules.values():
        yield from _walk(child)


def _linears(module: Module, prefix: str = ""):
    """``(owner, name, layer, path)`` of every dense Linear."""
    for name, child in list(module._modules.items()):  # swapped under us
        path = f"{prefix}{name}"
        if isinstance(child, Linear):
            yield module, name, child, path
        else:
            yield from _linears(child, f"{path}.")


def _check_storable(path: str, layer: Linear) -> None:
    """Refuse a weight int8 would store as garbage without a word:
    ``nan`` / ``inf`` (codes of 0 under a ``nan`` or ``inf`` scale)."""
    if not np.isfinite(layer.weight.data).all():
        raise ValueError(
            f"{path}: weight has non-finite values; cannot be stored as int8")


def _stored_twin(layer: Linear) -> QuantizedLinear:
    """The stored-weight counterpart of one Linear."""
    w = layer.weight.data
    q_weight, scales = QK.quantize_per_channel(w)
    bias = None if layer.bias is None else layer.bias.data.copy()
    return QuantizedLinear(q_weight, scales, bias, dtype=w.dtype)


def quantize_for_inference(model: Module, mode: str = "int8") -> Module:
    """Return a reduced-storage inference replica (original untouched).

    Every ``Linear`` in the copied module tree — attention projections,
    FFN layers, the LM head — becomes a :class:`QuantizedLinear` over
    per-channel symmetric int8 codes; every ``ButterflyLinear`` stays as
    it is.  ``mode`` names the stored format and must be ``"int8"``
    (:data:`QUANT_MODES`); any other name is refused.  A non-finite
    weight is refused by layer path before any layer is swapped.

    The replica is in eval mode and inference-only: its quantized
    modules raise in training mode, and its ``state_dict`` no longer
    carries the quantized weights (it is a serving artifact, not a
    checkpoint — persist the original model instead).
    """
    check_mode(mode)
    # The replica shares the source's Linears until it swaps them out, so
    # no fp weight is copied only to be dropped; ``eval`` waits for the
    # swap, so it sets no flag on a shared layer.
    shared = {id(layer): layer for _, _, layer, _ in _linears(model)}
    quantized = copy.deepcopy(model, shared)
    for _, _, layer, path in _linears(quantized):
        _check_storable(path, layer)
    swapped = 0
    # A second walk, not a list: a swapped-out layer's fp weight is freed
    # as the walk moves on, not held until the last layer is stored.
    for owner, name, layer, _ in _linears(quantized):
        replacement = _stored_twin(layer)
        owner._modules[name] = replacement
        object.__setattr__(owner, name, replacement)
        if isinstance(owner, (ModuleList, Sequential)):
            # Container forwards iterate _items, not _modules.
            owner._items[int(name)] = replacement
        swapped += 1
    if not swapped:
        raise ValueError("model has no Linear layers to quantize")
    return quantized.eval()
