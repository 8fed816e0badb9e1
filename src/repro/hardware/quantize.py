"""Reduced-precision datapath modeling: fp16 arithmetic and int8 weights.

The paper's accelerator computes in 16-bit half-precision floating point
(Section VI-A) and stores operands in narrow buffers.  Our functional
simulator runs in float64 for exact cross-validation; this module
quantifies what the real datapath does:

* ``quantize_fp16`` — round values to fp16 and back (IEEE 754 binary16,
  numpy's native behaviour, including overflow to inf).
* ``Fp16ButterflyEngine`` — a butterfly engine whose every pair-operation
  result is rounded to fp16, modeling the precision of the RTL datapath.
* ``quantization_error_report`` — per-layer-size error statistics of the
  fp16 butterfly against the float64 reference.
* ``accuracy_under_fp16`` — run a trained model with fp16-rounded
  activations through the encoder and report the accuracy delta, which
  the paper implicitly claims is negligible by evaluating fp16 hardware
  against fp32-trained models.

Int8 weight storage (the narrowest buffer configuration) has a runnable
software counterpart in :mod:`repro.kernels.quant`; the hardware model
here implements the *same* per-channel symmetric scheme independently
and a **verify mode** asserts bit-level agreement of the two quantizers
— codes, scales and dequantized values — so the simulator's quantized
accuracy/resource numbers and the serving engine's ``quantize="int8"``
path are guaranteed to describe one datapath:

* ``quantize_int8`` — the hardware quantizer model (per-channel
  symmetric, round-half-to-even, saturate at ±127, fp32 scales).
* ``verify_int8_quantizer`` — the bit-level cross-check against
  :func:`repro.kernels.quantize_per_channel`.
* ``Int8ButterflyEngine`` — a banked-memory engine running on int8
  stage weights (dequantized operands; activations stay wide, matching
  the software weight-only scheme), with codes verified against
  :func:`repro.kernels.quantize_butterfly_stages`.
* ``int8_quantization_error_report`` / ``accuracy_under_int8`` — error
  and accuracy deltas of the int8 weight path (the latter evaluates the
  actual :func:`repro.nn.quantize_for_inference` replica, closing the
  hardware/software loop).

The fp16 stored format is lossy by design; ``storage_tier_drift_report``
bounds its drift against the wide reference instead (int8's bound is
the error report above).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..butterfly.factor import ButterflyFactor
from ..butterfly.matrix import ButterflyMatrix
from ..kernels import quant as _QK
from .functional.engine import ButterflyEngine


def quantize_fp16(values: np.ndarray) -> np.ndarray:
    """Round to IEEE binary16 and back to float64."""
    arr = np.asarray(values)
    with np.errstate(over="ignore"):  # values beyond fp16 range become inf
        if np.iscomplexobj(arr):
            return (
                arr.real.astype(np.float16).astype(np.float64)
                + 1j * arr.imag.astype(np.float16).astype(np.float64)
            )
        return arr.astype(np.float16).astype(np.float64)


class Fp16ButterflyEngine(ButterflyEngine):
    """Butterfly engine that rounds every stage output to fp16.

    Inherits the banked-memory access behaviour; only arithmetic
    precision changes, mirroring a 16-bit RTL datapath with fp16
    registers between stages: operands and coefficients are rounded as
    they are loaded, and each stage's results as they are written back.
    """

    def _stage_output(self, results):
        return quantize_fp16(results)

    def _run_stages(self, x, factors, mode):
        factors = [type(f)(f.n, f.half, quantize_fp16(f.coeffs)) for f in factors]
        return super()._run_stages(quantize_fp16(x), factors, mode)


@dataclass
class QuantizationErrorReport:
    """Relative error statistics of a reduced-precision engine vs float64."""

    n: int
    max_rel_error: float
    mean_rel_error: float

    def acceptable(self, threshold: float = 0.05) -> bool:
        """Reduced-precision butterfly error stays in the few-percent range."""
        return self.max_rel_error < threshold


def _engine_error_report(
    engine_cls: type, n: int, rng: Optional[np.random.Generator], rows: int
) -> QuantizationErrorReport:
    """Butterfly error of one reduced-precision engine class vs float64."""
    rng = rng or np.random.default_rng(0)
    matrix = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=(rows, n))
    exact = matrix.apply(x)
    approx = engine_cls(pbu=4).run_butterfly(x, matrix)
    scale = np.abs(exact).max()
    rel = np.abs(approx - exact) / max(scale, 1e-30)
    return QuantizationErrorReport(
        n=n,
        max_rel_error=float(rel.max()),
        mean_rel_error=float(rel.mean()),
    )


def quantization_error_report(
    n: int, rng: Optional[np.random.Generator] = None, rows: int = 16
) -> QuantizationErrorReport:
    """Measure fp16 butterfly error against the float64 reference."""
    return _engine_error_report(Fp16ButterflyEngine, n, rng, rows)


def accuracy_under_fp16(
    model, tokens: np.ndarray, labels: np.ndarray
) -> Dict[str, float]:
    """Compare model accuracy with float64 vs fp16-rounded parameters.

    Rounds every parameter to fp16 (weights are what the accelerator
    stores in its 16-bit buffers), evaluates, and restores the weights.
    Works for classifiers (labels of shape (batch,)) and language models
    (labels of shape (batch, seq) matching the per-position argmax).
    """
    from .. import nn

    tokens = np.asarray(tokens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    model.eval()
    with nn.no_grad():
        exact = model(tokens).data
    saved = model.state_dict()
    try:
        for param in model.parameters():
            param.data = quantize_fp16(param.data)
        with nn.no_grad():
            quantized = model(tokens).data
    finally:
        model.load_state_dict(saved)
    exact_acc = float((exact.argmax(-1) == labels).mean())
    quant_acc = float((quantized.argmax(-1) == labels).mean())
    return {
        "accuracy_fp64": exact_acc,
        "accuracy_fp16": quant_acc,
        "accuracy_delta": quant_acc - exact_acc,
        "max_logit_error": float(np.abs(quantized - exact).max()),
    }


# ======================================================================
# Int8 weight datapath
# ======================================================================
def quantize_int8(
    values: np.ndarray, calibration: str = "absmax"
) -> "tuple[np.ndarray, np.ndarray]":
    """The hardware quantizer model: per-channel symmetric int8 codes.

    Spelled out independently of :mod:`repro.kernels.quant` on purpose —
    this is the arithmetic the RTL weight loader performs (one fp32
    scale register per output channel, round-half-to-even as in the
    IEEE-compliant datapath, saturation at ±127 so negation stays
    closed) and :func:`verify_int8_quantizer` asserts bit-level
    agreement between the two implementations.
    """
    w = np.asarray(values)
    if w.ndim != 2:
        raise ValueError(f"expected (channels, elements) weights, got {w.shape}")
    if np.iscomplexobj(w):
        raise ValueError("int8 weight quantization models the real datapath")
    if calibration == "absmax":
        peak = np.abs(w).max(axis=1)
        scales = np.where(peak > 0.0, peak / 127.0, 1.0).astype(np.float32)
    elif calibration == "mse":
        scales = _QK.calibrate_scales(w)
    else:
        raise ValueError(
            f"calibration must be 'absmax' or 'mse', got {calibration!r}"
        )
    codes = np.rint(w / scales[:, None])
    codes = np.minimum(np.maximum(codes, -127.0), 127.0).astype(np.int8)
    return codes, scales


def verify_int8_quantizer(
    weights: np.ndarray, calibration: str = "absmax"
) -> Dict[str, float]:
    """Assert bit-level agreement of the hardware and kernel quantizers.

    Both sides quantize ``weights``; codes must be identical integers,
    scales identical fp32 bit patterns, and the dequantized weights
    identical fp64 values.  Raises ``RuntimeError`` on any divergence;
    returns summary statistics (code range use, round-trip RMSE) so
    callers can log what the shared quantizer produced.
    """
    hw_codes, hw_scales = quantize_int8(weights, calibration=calibration)
    sw_codes, sw_scales = _QK.quantize_per_channel(weights, calibration=calibration)
    if not np.array_equal(hw_codes, sw_codes):
        raise RuntimeError(
            "int8 code mismatch between hardware model and kernels: "
            f"{int((hw_codes != sw_codes).sum())} codes differ"
        )
    if hw_scales.dtype != sw_scales.dtype or not np.array_equal(
        hw_scales.view(np.uint32), sw_scales.view(np.uint32)
    ):
        raise RuntimeError(
            "int8 scale mismatch between hardware model and kernels"
        )
    hw_deq = hw_codes.astype(np.float64) * hw_scales.astype(np.float64)[:, None]
    sw_deq = _QK.dequantize(sw_codes, sw_scales, dtype=np.float64)
    if not np.array_equal(hw_deq, sw_deq):
        raise RuntimeError(
            "int8 dequantization mismatch between hardware model and kernels"
        )
    return {
        "channels": float(weights.shape[0]),
        "code_peak": float(np.abs(hw_codes).max(initial=0)),
        "rmse": _QK.quantization_rmse(weights, hw_codes, hw_scales),
    }


class Int8ButterflyEngine(ButterflyEngine):
    """Butterfly engine running on int8-quantized stage weights.

    Weight-only quantization, mirroring the software scheme: stage
    coefficients are stored as int8 codes with per-coefficient-role
    scales (the four multiplier operands of the Butterfly Unit) and
    dequantized as they are loaded; operand values between stages stay
    in the wide datapath.  The quantizer itself is cross-checked
    bit-level against :func:`repro.kernels.quantize_butterfly_stages`
    once per invocation (a whole tile), and the inherited ``verify=True``
    mode additionally asserts the banked-memory stage loop matches the
    software kernels on the dequantized factors.

    FFT mode is unsupported: twiddles live in the fp16 buffers
    (:class:`Fp16ButterflyEngine`); int8 storage is for trainable
    butterfly weights.
    """

    def _run_stages(self, x, factors, mode):
        coeffs = [factor.coeffs for factor in factors]
        if any(np.iscomplexobj(c) for c in coeffs):
            raise ValueError(
                "Int8ButterflyEngine models the trainable-weight datapath; "
                "FFT twiddles are not int8-quantized (use Fp16ButterflyEngine)"
            )
        sw_codes, sw_scales = _QK.quantize_butterfly_stages(coeffs)
        quantized_factors = []
        for factor, sw_q, sw_s in zip(factors, sw_codes, sw_scales):
            hw_q, hw_s = quantize_int8(factor.coeffs)
            if not (np.array_equal(hw_q, sw_q) and np.array_equal(hw_s, sw_s)):
                raise RuntimeError(
                    "int8 stage quantizer diverged between the hardware "
                    "model and repro.kernels.quant"
                )
            dequant = hw_q.astype(np.float64) * hw_s.astype(np.float64)[:, None]
            quantized_factors.append(ButterflyFactor(factor.n, factor.half, dequant))
        return super()._run_stages(x, quantized_factors, mode)


def int8_quantization_error_report(
    n: int, rng: Optional[np.random.Generator] = None, rows: int = 16
) -> QuantizationErrorReport:
    """Measure int8-weight butterfly error against the float64 reference."""
    return _engine_error_report(Int8ButterflyEngine, n, rng, rows)


def accuracy_under_int8(
    model, tokens: np.ndarray, labels: np.ndarray
) -> Dict[str, float]:
    """Accuracy delta of the *runnable* int8 path vs the fp model.

    Unlike :func:`accuracy_under_fp16` (which rounds parameters in
    place), this evaluates the actual serving artifact — the
    :func:`repro.nn.quantize_for_inference` replica with its
    dequant-on-the-fly kernels — so the number reported next to the
    simulator's resource/power tables is the one the python serving
    path achieves.
    """
    from ..nn.quantized import quantize_for_inference

    tokens = np.asarray(tokens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    from .. import nn

    model.eval()
    with nn.no_grad():
        exact = model(tokens).data
    replica = quantize_for_inference(model)
    with nn.no_grad():
        quantized = replica(tokens).data
    exact_acc = float((exact.argmax(-1) == labels).mean())
    quant_acc = float((quantized.argmax(-1) == labels).mean())
    return {
        "accuracy_fp": exact_acc,
        "accuracy_int8": quant_acc,
        "accuracy_delta": quant_acc - exact_acc,
        "max_logit_error": float(np.abs(quantized - exact).max()),
        "weight_memory_ratio": replica.quantization_report.memory_ratio,
    }


# ======================================================================
# Storage-tier drift oracle
# ======================================================================
def storage_tier_drift_report(
    n: int = 256,
    rows: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, float]:
    """Bounded-drift report for the lossy fp16 stored format.

    fp16 storage trades precision for memory; this measures its relative
    drift against the float64 butterfly reference so BENCH gates can hold
    the line: fp16 stays in the sub-percent range on random (worst-case)
    weights.
    """
    rng = rng or np.random.default_rng(0)
    matrix = ButterflyMatrix.random(n, rng)
    coeffs = [f.coeffs for f in matrix.factors]
    halves = [f.half for f in matrix.factors]
    x = rng.normal(size=(rows, n))
    exact = matrix.apply(x)
    scale = max(float(np.abs(exact).max()), 1e-30)
    half_out = _QK.quantized_butterfly_apply(
        x, [c.astype(np.float16) for c in coeffs], None, halves
    )
    return {
        "n": float(n),
        "fp16_max_rel_drift": float(np.abs(half_out - exact).max() / scale),
    }
