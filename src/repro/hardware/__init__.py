"""Hardware models: functional simulator, performance, resources, power.

Subpackages/modules:

* :mod:`repro.hardware.functional` — value-accurate simulator of the
  adaptable butterfly accelerator (BUs, BEs, memory system, AP, PostP).
* :mod:`repro.hardware.isa` — the instruction stream that drives it: the
  compiler from a FABNet model (or a workload's shape), which wraps each
  layer of :func:`repro.models.blocks.block_layers` in its instructions,
  and the sequencer's static checks.
* :mod:`repro.hardware.perf` — the analytical workload (`WorkloadSpec`
  and its layers), the attention/linear/other split every analytical
  model folds into, and the cycle-level latency model: a fold over the
  same stream the simulator replays, and the Fig. 21 saturation bandwidth
  read from the same per-layer charges.
* :mod:`repro.hardware.resources` / :mod:`repro.hardware.power` — the
  paper's analytical DSP/BRAM model and the Table VI power model.
* :mod:`repro.hardware.baseline` — dense MAC-array baseline accelerator.
* :mod:`repro.hardware.platforms` — roofline CPU/GPU models, one
  attention/linear/other split for any workload.
* :mod:`repro.hardware.sota` — Table V normalization against published
  accelerators.
"""

from .baseline import BaselineAccelerator, BaselineConfig, bert_spec, fabnet_spec
from .isa import (
    Instruction,
    Opcode,
    Program,
    compile_model,
    validate_program,
)
from .quantize import (
    Fp16ButterflyEngine,
    QuantizationErrorReport,
    accuracy_under_fp16,
    quantization_error_report,
    quantize_fp16,
)
from .config import (
    BE40_CONFIG,
    BE120_CONFIG,
    DEVICES,
    PAPER_CODESIGN_CONFIG,
    VCU128,
    ZYNQ7045,
    AcceleratorConfig,
    FpgaDevice,
)
from .perf import (
    ButterflyPerformanceModel,
    ComponentBreakdown,
    LatencyReport,
    LayerLatency,
    WorkloadSpec,
    latency_vs_bandwidth,
    saturation_bandwidth_gbs,
)
from .platforms import (
    JETSON_NANO,
    PLATFORMS,
    RASPBERRY_PI4,
    TITAN_XP,
    V100,
    XEON_6154,
    Platform,
    platform_breakdown,
)
from .power import PowerBreakdown, estimate_power
from .resources import ResourceUsage, bram_usage, dsp_usage, estimate_resources
from .sota import (
    LRA_IMAGE_SPEC,
    NORMALIZED_CONFIG,
    PAPER_OUR_WORK,
    SOTA_ACCELERATORS,
    AcceleratorRecord,
    our_work_record,
    speedup_over_sota,
    table5,
)

__all__ = [
    "AcceleratorConfig",
    "AcceleratorRecord",
    "BE120_CONFIG",
    "BE40_CONFIG",
    "BaselineAccelerator",
    "BaselineConfig",
    "ButterflyPerformanceModel",
    "ComponentBreakdown",
    "DEVICES",
    "FpgaDevice",
    "JETSON_NANO",
    "LRA_IMAGE_SPEC",
    "LatencyReport",
    "LayerLatency",
    "NORMALIZED_CONFIG",
    "PAPER_CODESIGN_CONFIG",
    "PAPER_OUR_WORK",
    "PLATFORMS",
    "Platform",
    "PowerBreakdown",
    "RASPBERRY_PI4",
    "ResourceUsage",
    "SOTA_ACCELERATORS",
    "TITAN_XP",
    "V100",
    "VCU128",
    "WorkloadSpec",
    "XEON_6154",
    "ZYNQ7045",
    "Fp16ButterflyEngine",
    "Instruction",
    "Opcode",
    "Program",
    "QuantizationErrorReport",
    "compile_model",
    "validate_program",
    "accuracy_under_fp16",
    "bert_spec",
    "bram_usage",
    "dsp_usage",
    "estimate_power",
    "estimate_resources",
    "fabnet_spec",
    "latency_vs_bandwidth",
    "quantization_error_report",
    "quantize_fp16",
    "saturation_bandwidth_gbs",
    "our_work_record",
    "platform_breakdown",
    "speedup_over_sota",
    "table5",
]
