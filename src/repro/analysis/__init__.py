"""FLOPs/parameter analysis and workload configurations."""

from .configs import (
    MAINSTREAM_MODELS,
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
)
from .flops import (
    CompressionRatios,
    OpBreakdown,
    attention_core_flops,
    butterfly_linear_flops,
    butterfly_linear_params,
    compression_ratios,
    dense_linear_flops,
    dense_linear_params,
    fabnet_flops,
    fabnet_params,
    fft2_mixing_flops,
    fnet_flops,
    fnet_params,
    transformer_flops,
    transformer_params,
)

__all__ = [
    "CompressionRatios",
    "MAINSTREAM_MODELS",
    "OpBreakdown",
    "TASK_BASELINE_SPECS",
    "TASK_FABNET_SPECS",
    "TASK_FNET_SPECS",
    "attention_core_flops",
    "butterfly_linear_flops",
    "butterfly_linear_params",
    "compression_ratios",
    "dense_linear_flops",
    "dense_linear_params",
    "fabnet_flops",
    "fabnet_params",
    "fft2_mixing_flops",
    "fnet_flops",
    "fnet_params",
    "transformer_flops",
    "transformer_params",
]
