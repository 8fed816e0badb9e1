"""Reduced-storage inference modules and ``quantize_for_inference``.

:func:`quantize_for_inference` takes a trained model and returns a
*storage-tier replica*: a deep copy in which every dense :class:`~repro.
nn.layers.Linear` and :class:`~repro.nn.butterfly_layer.ButterflyLinear`
(including the attention Q/K/V/output projections and the LM head) is
swapped for its stored-weight counterpart (:mod:`repro.kernels.quant`).
The stored format is the one in :data:`QUANT_MODES`: ``"int8"``
per-channel symmetric codes plus fp32 scales, quantized by
:func:`repro.kernels.quantize_per_channel`.  The original model is left
untouched — training paths never see quantized weights; the replica is
decode/prefill only and raises if run in training mode.

Embeddings, LayerNorm affines and biases stay in floating point: they
are a vanishing fraction of the weight bytes (the GEMM weights dominate)
and the accelerator keeps its accumulators and normalization in wider
precision too.

The replica keeps the incremental-decoding protocol of the source model
(``make_cache`` / ``prefill`` / ``decode_step`` / ``generate``), so it
drops into :class:`repro.serving.ServingEngine` unchanged — that is what
``ServingEngine(model, quantize="int8")`` does.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..kernels import quant as QK
from .butterfly_layer import ButterflyLinear
from .layers import Linear
from .module import Module, ModuleList, Sequential
from .tensor import Tensor
from . import tensor as F

#: Stored formats understood by :func:`quantize_for_inference`.  The one
#: place the tier list is spelled: :func:`check_mode` (and so
#: ``ServingEngine`` / ``ClusterEngine(quantize=...)``) and the CLI's
#: ``--quantize`` choices derive from it.
QUANT_MODES = ("int8",)


def check_mode(mode) -> None:
    """Refuse a stored-format name that is not in :data:`QUANT_MODES`,
    before any weight is touched."""
    if mode not in QUANT_MODES:
        raise ValueError(
            "quantize mode must be 'int8' (the one stored weight format), "
            f"got {mode!r}")


def _nbytes(*arrays: Optional[np.ndarray]) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


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
        return _nbytes(self.q_weight, self.scales, self.bias)

    def dense_weight(self) -> np.ndarray:
        """Dequantized ``(out, in)`` weight (verification / drift analysis)."""
        return QK.dequantize(
            self.q_weight.unpack(), self.scales, dtype=np.float64)


class QuantizedButterflyLinear(Module):
    """Inference-only butterfly ladder over stored stage coefficients.

    Mirrors :class:`~repro.nn.butterfly_layer.ButterflyLinear.forward`
    (pad to the internal power-of-two size, apply the ladder, truncate,
    add bias) but dequantizes each ``(4, n/2)`` stage on the fly and
    rides the shared fused grouped kernel
    (:func:`repro.kernels.quantized_butterfly_apply`).  ``q_stages`` are
    int8 codes with four fp32 ``stage_scales`` each.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        n: int,
        halves: List[int],
        q_stages: List[np.ndarray],
        stage_scales: List[np.ndarray],
        bias: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.n = n
        self.halves = list(halves)
        self.q_stages = q_stages
        self.stage_scales = stage_scales
        self.bias = None if bias is None else np.asarray(bias)
        self.training = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The layer on a plain ``(..., in)`` array, in ``x``'s own dtype
        (what the decoder's inference program calls)."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input dim {self.in_features}, got {x.shape[-1]}"
            )
        if self.in_features < self.n:
            pad = [(0, 0)] * (x.ndim - 1) + [(0, self.n - self.in_features)]
            x = np.pad(x, pad)
        out = QK.quantized_butterfly_apply(
            x, self.q_stages, self.stage_scales, self.halves
        )
        if self.out_features < self.n:
            out = out[..., : self.out_features]
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError(
                "QuantizedButterflyLinear is inference-only; "
                "quantize_for_inference replicas cannot be trained"
            )
        return Tensor(self.apply(x.data))

    def weight_nbytes(self) -> int:
        """Bytes held by the stored ladder (stages + scales + bias)."""
        return _nbytes(*self.q_stages, *self.stage_scales, self.bias)

    def dense_weight(self) -> np.ndarray:
        """Dequantized dense ``(out, in)`` equivalent (verification only)."""
        from ..butterfly.factor import ButterflyFactor
        from ..butterfly.matrix import ButterflyMatrix

        coeffs = QK.dequantize_butterfly_stages(
            self.q_stages, self.stage_scales, dtype=np.float64
        )
        factors = [
            ButterflyFactor(self.n, half, c)
            for half, c in zip(self.halves, coeffs)
        ]
        full = ButterflyMatrix(factors).dense()
        return full[: self.out_features, : self.in_features]


_QUANTIZED = (QuantizedLinear, QuantizedButterflyLinear)


@dataclass
class QuantizationReport:
    """What :func:`quantize_for_inference` did to a model.

    ``fp_weight_bytes`` / ``quant_weight_bytes`` cover the *whole* model
    (quantized GEMM weights plus the fp parameters left in place), so
    ``memory_ratio`` is the end-to-end weight-footprint ratio.  Logit-drift
    fields are populated only when calibration tokens are supplied.
    """

    layers_quantized: int
    butterfly_layers_quantized: int
    calibration: str
    fp_weight_bytes: int
    quant_weight_bytes: int
    mode: str = "int8"
    weight_rmse: Dict[str, float] = field(default_factory=dict)
    max_logit_drift: Optional[float] = None
    mean_logit_drift: Optional[float] = None

    @property
    def memory_ratio(self) -> float:
        """Quantized weight bytes as a fraction of the fp footprint."""
        return self.quant_weight_bytes / max(1, self.fp_weight_bytes)


def weight_memory_bytes(model: Module) -> int:
    """Total weight bytes of a model: fp parameters + stored-weight buffers.

    Parameters reachable through quantized modules are gone (replaced by
    int8 codes + scales, counted via ``weight_nbytes``);
    everything else is the ``nbytes`` of its parameter arrays.
    """
    total = sum(p.data.nbytes for p in model.parameters())
    for module in _walk(model):
        if isinstance(module, _QUANTIZED):
            total += module.weight_nbytes()
    return total


def _walk(module: Module):
    yield module
    for child in module._modules.values():
        yield from _walk(child)


def _bias_copy(layer: Module) -> Optional[np.ndarray]:
    return None if layer.bias is None else layer.bias.data.copy()


def _quantizable(module: Module, prefix: str = ""):
    """``(owner, name, layer, path)`` of every Linear / ButterflyLinear."""
    for name, child in list(module._modules.items()):  # swapped under us
        path = f"{prefix}{name}"
        if isinstance(child, (Linear, ButterflyLinear)):
            yield module, name, child, path
        else:
            yield from _quantizable(child, f"{path}.")


def _fp_weights(layer: Module) -> List[np.ndarray]:
    if isinstance(layer, Linear):
        return [layer.weight.data]
    return [p.data for p in layer.stage_parameters()]


def _check_storable(path: str, layer: Module) -> None:
    """Refuse a weight int8 would store as garbage without a word:
    ``nan`` / ``inf`` (codes of 0 under a ``nan`` or ``inf`` scale)."""
    peak = np.max([  # nan propagates through max / min
        (w.max(initial=0.0), -w.min(initial=0.0)) for w in _fp_weights(layer)])
    if not np.isfinite(peak):
        raise ValueError(
            f"{path}: weight has non-finite values; cannot be stored as int8")


def _stored_twin(
    layer: Module, path: str, calibration: str, report: QuantizationReport,
) -> Module:
    """The stored-weight counterpart of one Linear / ButterflyLinear."""
    weights = _fp_weights(layer)
    if isinstance(layer, Linear):
        w, = weights
        q_weight, scales = QK.quantize_per_channel(w, calibration=calibration)
        report.layers_quantized += 1
        report.weight_rmse[path] = QK.quantization_rmse(w, q_weight, scales)
        return QuantizedLinear(q_weight, scales, _bias_copy(layer), dtype=w.dtype)
    q_stages, stage_scales = QK.quantize_butterfly_stages(
        weights, calibration=calibration
    )
    report.butterfly_layers_quantized += 1
    return QuantizedButterflyLinear(
        layer.in_features, layer.out_features, layer.n, layer.halves,
        q_stages, stage_scales, _bias_copy(layer),
    )


def _swap_quantizable(
    model: Module, calibration: str, report: QuantizationReport,
) -> None:
    """Replace every Linear / ButterflyLinear below ``model`` with its
    stored twin — after all of them were found storable, so a refusal
    names its layer before anything was swapped."""
    for _, _, layer, path in _quantizable(model):
        _check_storable(path, layer)
    # A second walk, not a list: a swapped-out layer's fp weight is freed
    # as the walk moves on, not held until the last layer is stored.
    for owner, name, layer, path in _quantizable(model):
        replacement = _stored_twin(layer, path, calibration, report)
        owner._modules[name] = replacement
        object.__setattr__(owner, name, replacement)
        if isinstance(owner, (ModuleList, Sequential)):
            # Container forwards iterate _items, not _modules.
            owner._items[int(name)] = replacement


def quantize_for_inference(
    model: Module,
    calibration: str = "absmax",
    sample_tokens: Optional[np.ndarray] = None,
    max_logit_drift: Optional[float] = None,
    mode: str = "int8",
) -> Module:
    """Return a reduced-storage inference replica (original untouched).

    Every ``Linear`` / ``ButterflyLinear`` in the copied module tree —
    attention projections, FFN layers, the LM head — becomes its
    :class:`QuantizedLinear` / :class:`QuantizedButterflyLinear` twin
    over per-channel symmetric int8 codes.  ``mode`` names the stored
    format and must be ``"int8"`` (:data:`QUANT_MODES`); any other name
    is refused.  ``calibration`` selects the scale search (``"absmax"``
    or ``"mse"``, see :func:`repro.kernels.calibrate_scales`).

    ``sample_tokens`` (an int token batch accepted by ``model``) runs a
    drift calibration pass: both models are evaluated and the max/mean
    absolute logit difference is recorded in the replica's
    ``quantization_report``.  With ``max_logit_drift`` set, a drift above
    the bound raises ``ValueError`` instead of returning a silently
    degraded replica.

    The replica is in eval mode and inference-only: its quantized
    modules raise in training mode, and its ``state_dict`` no longer
    carries the quantized weights (it is a serving artifact, not a
    checkpoint — persist the original model instead).
    """
    check_mode(mode)
    QK.check_calibration(calibration)
    quantized = copy.deepcopy(model).eval()
    report = QuantizationReport(
        layers_quantized=0,
        butterfly_layers_quantized=0,
        calibration=calibration,
        fp_weight_bytes=weight_memory_bytes(model),
        quant_weight_bytes=0,
        mode=mode,
    )
    _swap_quantizable(quantized, calibration, report)
    if report.layers_quantized + report.butterfly_layers_quantized == 0:
        raise ValueError(
            "model has no Linear/ButterflyLinear layers to quantize"
        )
    report.quant_weight_bytes = weight_memory_bytes(quantized)
    if sample_tokens is not None:
        sample_tokens = np.asarray(sample_tokens, dtype=np.int64)
        model_training = model.training
        model.eval()
        try:
            with F.no_grad():
                reference = model(sample_tokens).data
                drifted = quantized(sample_tokens).data
        finally:
            model.train(model_training)
        drift = np.abs(drifted - reference)
        report.max_logit_drift = float(drift.max())
        report.mean_logit_drift = float(drift.mean())
        if max_logit_drift is not None and report.max_logit_drift > max_logit_drift:
            raise ValueError(
                f"quantized logit drift {report.max_logit_drift:.3e} exceeds "
                f"the requested bound {max_logit_drift:.3e} "
                "(try calibration='mse' or keep this model in fp)"
            )
    quantized.quantization_report = report
    return quantized
