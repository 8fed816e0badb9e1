"""Comparison with state-of-the-art attention accelerators (Table V).

The paper compares published accelerators by normalizing every design to
the same computational budget — 128 multipliers at 1 GHz (128 GOPS peak)
— linearly scaling reported throughput and systolic-array power, exactly
as SpAtten and Sanger do.  This module encodes the published, already
normalized numbers of Table V, plus the end-to-end latency of *our*
design produced by the performance model with 640 multipliers at 200 MHz
(the same 128 GOPS peak).

Workload: one-layer vanilla Transformer on LRA-Image (seq 1024), per the
experimental setting of DOTA that the paper follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .config import AcceleratorConfig
from .perf import ButterflyPerformanceModel, WorkloadSpec
from .power import estimate_power
from .resources import estimate_resources


@dataclass(frozen=True)
class AcceleratorRecord:
    """One row of Table V."""

    name: str
    venue: str
    technology: str
    latency_ms: float
    power_w: float

    @property
    def throughput_pred_s(self) -> float:
        """Predictions per second at the normalized budget."""
        return 1000.0 / self.latency_ms

    @property
    def energy_eff_pred_j(self) -> float:
        """Predictions per joule."""
        return self.throughput_pred_s / self.power_w


# Published, already-normalized rows from Table V (128 multipliers @ 1 GHz
# for the ASICs; FTRANS is an FPGA design with 6531 multipliers).
SOTA_ACCELERATORS: List[AcceleratorRecord] = [
    AcceleratorRecord("A3", "HPCA'20", "ASIC (40nm)", 56.0, 1.217),
    AcceleratorRecord("SpAtten", "HPCA'21", "ASIC (40nm)", 48.8, 1.060),
    AcceleratorRecord("Sanger", "MICRO'21", "ASIC (55nm)", 45.2, 0.801),
    AcceleratorRecord("Energon", "TCAD'21", "ASIC (45nm)", 44.2, 2.633),
    AcceleratorRecord("ELSA", "ISCA'21", "ASIC (40nm)", 34.7, 0.976),
    AcceleratorRecord("DOTA", "ASPLOS'22", "ASIC (22nm)", 34.1, 0.858),
    AcceleratorRecord("FTRANS", "ISLPED'20", "FPGA (16nm)", 61.6, 25.130),
]

PAPER_OUR_WORK = AcceleratorRecord(
    "Our work (paper)", "MICRO'22", "FPGA (16nm)", 2.4, 11.355
)

# LRA-Image one-layer workload: seq 1024, BERT-Base-width hidden size
# (the SOTA rows run a one-layer vanilla Transformer; our design runs the
# FABNet block of the same width, which is the paper's methodology of
# comparing co-designed algorithm + hardware against attention-only
# accelerators).
LRA_IMAGE_SPEC = WorkloadSpec(
    seq_len=1024, d_hidden=768, r_ffn=4, n_total=1, n_abfly=0, n_heads=12
)

# 640 multipliers at 200 MHz = the ASIC budget of 128 mults at 1 GHz.
NORMALIZED_CONFIG = AcceleratorConfig(
    pbe=40, pbu=4, pae=0, pqk=0, psv=0, clock_mhz=200.0, bandwidth_gbs=450.0
)


def our_work_record(
    spec: WorkloadSpec = LRA_IMAGE_SPEC,
    config: AcceleratorConfig = NORMALIZED_CONFIG,
) -> AcceleratorRecord:
    """Our accelerator's Table V row, from the perf and power models."""
    perf = ButterflyPerformanceModel(config)
    latency_ms = perf.model_latency(spec).latency_ms
    power = estimate_power(config, estimate_resources(config)).total
    return AcceleratorRecord(
        "Our work (measured)", "MICRO'22", "FPGA (16nm)", latency_ms, power
    )


def table5(
    spec: WorkloadSpec = LRA_IMAGE_SPEC,
    config: AcceleratorConfig = NORMALIZED_CONFIG,
) -> List[AcceleratorRecord]:
    """All Table V rows: published SOTA + our modeled design."""
    return [*SOTA_ACCELERATORS, our_work_record(spec, config)]


def speedup_over_sota(record: AcceleratorRecord) -> Dict[str, float]:
    """Our latency speedup over each SOTA accelerator."""
    return {
        sota.name: sota.latency_ms / record.latency_ms for sota in SOTA_ACCELERATORS
    }
