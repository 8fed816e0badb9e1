"""Reproduction of "Adaptable Butterfly Accelerator for Attention-based
NNs via Hardware and Algorithm Co-design" (Fan et al., MICRO 2022).

Subpackages:

* :mod:`repro.nn` — numpy autograd + NN layers (the PyTorch substitute).
* :mod:`repro.kernels` — the unified vectorized butterfly kernel layer
  (stage apply forward/VJP, fused grouped matmuls, FFT twiddles, dtype
  policy) shared by ``nn``, ``butterfly`` and the hardware model.
* :mod:`repro.butterfly` — butterfly matrices and the FFT unification.
* :mod:`repro.models` — Transformer / FNet / FABNet model zoo.
* :mod:`repro.data` — synthetic Long-Range-Arena task generators.
* :mod:`repro.training` — training harness.
* :mod:`repro.hardware` — functional simulator + performance/resource/
  power models of the adaptable butterfly accelerator and its baselines.
* :mod:`repro.codesign` — joint algorithm/hardware design-space search.
* :mod:`repro.analysis` — FLOPs/parameter accounting.
* :mod:`repro.serving` — batched inference runtime: KV-cache incremental
  decoding, continuous batching, the ``ServingEngine`` API and serving
  metrics.
* :mod:`repro.telemetry` — opt-in counters/gauges/histograms and tracing
  spans shared by every layer, with Prometheus-text and Chrome-trace
  export (``REPRO_TELEMETRY=1`` or ``telemetry.enable()``).
* :mod:`repro.faults` — opt-in deterministic fault injection at named
  points across kernels, serving and io (``REPRO_FAULTS`` spec strings
  or ``faults.use_faults``), driving the serving resilience layer.

``import repro`` imports none of them: each subpackage name resolves when
first accessed (``repro.hardware``, ``from repro import hardware``), so a
process loads only the layers it runs.  ``repro serve`` and its cluster
workers never load ``hardware``, ``analysis``, ``codesign``, ``data`` or
``training`` (``tests/test_cold_start.py``).
"""

import importlib

__version__ = "1.0.0"

#: Stored weight formats of :func:`repro.nn.quantize_for_inference`.  The
#: one place the tier list is spelled, here so that ``repro.cli``'s
#: ``--quantize`` choices load no subpackage: ``nn.QUANT_MODES`` is this
#: tuple, and :func:`repro.nn.quantized.check_mode` (so ``ServingEngine`` /
#: ``ClusterEngine(quantize=...)``) refuses any other name.
QUANT_MODES = ("int8",)

__all__ = [
    "analysis",
    "butterfly",
    "codesign",
    "data",
    "faults",
    "hardware",
    "kernels",
    "models",
    "nn",
    "serving",
    "telemetry",
    "training",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
