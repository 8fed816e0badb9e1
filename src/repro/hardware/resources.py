"""Analytical FPGA resource model (paper Section V-C and Table VII).

DSP and BRAM follow the paper's closed-form equations::

    DSP  = Pbe * Pbu * 4  +  Phead * (Pqk + Psv)
    BRAM = (BRAM_bfly + BRAM_weight) * Pbe + BRAM_key + BRAM_sc + BRAM_query

LUT and register counts are not given in closed form in the paper, so we
use linear-in-Pbe fits through the two implemented design points of
Table VII (BE-40 and BE-120 on the VCU128), which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AcceleratorConfig, FpgaDevice

# BRAM blocks per buffer, for the paper's depth-1024, 16-bit buffers.
BRAM_BFLY_PER_BE = 4  # double-buffered butterfly buffers A + B
BRAM_WEIGHT_PER_BE = 4  # per-stage twiddle/weight coefficients
BRAM_KEY = 6
BRAM_QUERY = 6
BRAM_SHORTCUT = 6

# Linear LUT/FF fits through Table VII's BE-40 / BE-120 points.
# (The register fit has a negative intercept because the BE-120 design's
# attention processor contributes registers the BE-40 design lacks; the
# estimate is floored at a small-control-logic minimum.)
LUTS_PER_BE = 8_450.0125
LUTS_BASE = 358_609 - 40 * LUTS_PER_BE
REGS_PER_BE = 13_898.5625
REGS_BASE = 536_810 - 40 * REGS_PER_BE
REGS_FLOOR = 20_000


@dataclass(frozen=True)
class ResourceUsage:
    """Estimated FPGA resource consumption of one accelerator config."""

    luts: int
    registers: int
    dsps: int
    brams: int
    hbms: int = 1

    def fits(self, device: FpgaDevice) -> bool:
        """Whether the design fits the device's resource envelope."""
        return (
            self.luts <= device.luts
            and self.registers <= device.registers
            and self.dsps <= device.dsps
            and self.brams <= device.brams
        )

    def utilization(self, device: FpgaDevice) -> dict:
        """Fractional utilization per resource class."""
        return {
            "luts": self.luts / device.luts,
            "registers": self.registers / device.registers,
            "dsps": self.dsps / device.dsps,
            "brams": self.brams / device.brams,
        }


def dsp_usage(config: AcceleratorConfig) -> int:
    """Paper's DSP equation: BP multipliers + AP multipliers."""
    return config.butterfly_multipliers + config.attention_multipliers


def bram_usage(config: AcceleratorConfig) -> int:
    """Paper's BRAM equation with calibrated per-buffer block counts."""
    per_be = BRAM_BFLY_PER_BE + BRAM_WEIGHT_PER_BE
    return per_be * config.pbe + BRAM_KEY + BRAM_QUERY + BRAM_SHORTCUT


def estimate_resources(config: AcceleratorConfig) -> ResourceUsage:
    """Full resource estimate for a configuration."""
    return ResourceUsage(
        luts=int(round(LUTS_BASE + LUTS_PER_BE * config.pbe)),
        registers=max(REGS_FLOOR, int(round(REGS_BASE + REGS_PER_BE * config.pbe))),
        dsps=dsp_usage(config),
        brams=bram_usage(config),
    )
