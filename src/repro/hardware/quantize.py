"""Reduced-precision datapath modeling: fp16 arithmetic.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..butterfly.matrix import ButterflyMatrix
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


def quantization_error_report(
    n: int, rng: Optional[np.random.Generator] = None, rows: int = 16
) -> QuantizationErrorReport:
    """Measure fp16 butterfly error against the float64 reference."""
    rng = rng or np.random.default_rng(0)
    matrix = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=(rows, n))
    exact = matrix.apply(x)
    approx = Fp16ButterflyEngine(pbu=4).run_butterfly(x, matrix)
    scale = np.abs(exact).max()
    rel = np.abs(approx - exact) / max(scale, 1e-30)
    return QuantizationErrorReport(
        n=n,
        max_rel_error=float(rel.max()),
        mean_rel_error=float(rel.mean()),
    )


def accuracy_under_fp16(
    model, tokens: np.ndarray, labels: np.ndarray
) -> Dict[str, float]:
    """Compare model accuracy with float64 vs fp16-rounded parameters.

    Rounds every parameter to fp16 (weights are what the accelerator
    stores in its 16-bit buffers), evaluates in eval mode, and restores
    the weights and the caller's train/eval mode.
    Works for classifiers (labels of shape (batch,)) and language models
    (labels of shape (batch, seq) matching the per-position argmax).
    """
    from .. import nn

    tokens = np.asarray(tokens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    was_training = model.training
    saved = model.state_dict()
    model.eval()
    try:
        with nn.no_grad():
            exact = model(tokens).data
        for param in model.parameters():
            param.data = quantize_fp16(param.data)
        with nn.no_grad():
            quantized = model(tokens).data
    finally:
        model.load_state_dict(saved)
        model.train(was_training)
    exact_acc = float((exact.argmax(-1) == labels).mean())
    quant_acc = float((quantized.argmax(-1) == labels).mean())
    return {
        "accuracy_fp64": exact_acc,
        "accuracy_fp16": quant_acc,
        "accuracy_delta": quant_acc - exact_acc,
        "max_logit_error": float(np.abs(quantized - exact).max()),
    }
