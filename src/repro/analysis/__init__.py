"""FLOPs/parameter analysis and workload configurations."""

from .configs import (
    MAINSTREAM_MODELS,
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
)
from .roofline import (
    LayerIntensity,
    butterfly_layer_intensity,
    fft2_layer_intensity,
    saturation_bandwidth_gbs,
    workload_intensities,
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
    "LayerIntensity",
    "MAINSTREAM_MODELS",
    "butterfly_layer_intensity",
    "fft2_layer_intensity",
    "saturation_bandwidth_gbs",
    "workload_intensities",
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
