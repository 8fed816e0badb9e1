"""FLOPs/parameter analysis and workload configurations."""

from .configs import (
    MAINSTREAM_MODELS,
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
)
from .flops import (
    CompressionRatios,
    attention_core_flops,
    butterfly_linear_flops,
    butterfly_linear_params,
    compression_ratios,
    dense_linear_flops,
    dense_linear_params,
    fft2_mixing_flops,
    model_flops,
    model_params,
)

__all__ = [
    "CompressionRatios",
    "MAINSTREAM_MODELS",
    "TASK_BASELINE_SPECS",
    "TASK_FABNET_SPECS",
    "TASK_FNET_SPECS",
    "attention_core_flops",
    "butterfly_linear_flops",
    "butterfly_linear_params",
    "compression_ratios",
    "dense_linear_flops",
    "dense_linear_params",
    "fft2_mixing_flops",
    "model_flops",
    "model_params",
]
