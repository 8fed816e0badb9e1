"""Functional (value-accurate) simulator of the butterfly accelerator."""

from .accelerator import AcceleratorTrace, ButterflyAccelerator
from .attention_engine import (
    AttentionEngine,
    AttentionProcessor,
    AttentionStats,
    QKUnit,
    SVUnit,
)
from .butterfly_unit import AdaptableButterflyUnit, BUMode
from .coalesce import (
    StageProgram,
    coalesce_pairs,
    compile_ladder,
    compile_stage,
    schedule_stage,
    stage_read_cycles,
)
from .engine import ButterflyEngine, ButterflyLinearExecutor, EngineRunStats
from .memory import (
    BankAccessStats,
    BankedBuffer,
    bank_of,
    popcount,
)
from .postproc import PostProcessor

__all__ = [
    "AcceleratorTrace",
    "AdaptableButterflyUnit",
    "AttentionEngine",
    "AttentionProcessor",
    "AttentionStats",
    "BUMode",
    "BankAccessStats",
    "BankedBuffer",
    "ButterflyAccelerator",
    "ButterflyEngine",
    "ButterflyLinearExecutor",
    "EngineRunStats",
    "PostProcessor",
    "QKUnit",
    "SVUnit",
    "StageProgram",
    "bank_of",
    "coalesce_pairs",
    "compile_ladder",
    "compile_stage",
    "popcount",
    "schedule_stage",
    "stage_read_cycles",
]
