"""Accelerator and FPGA device configuration (paper Sections IV-V).

``AcceleratorConfig`` carries the four hardware parallelism parameters of
the co-design space — ``pbe`` (Butterfly Engines), ``pbu`` (Butterfly
Units per BE), ``pqk``/``psv`` (MAC lanes in each Attention Engine's QK
and SV units) — plus clocking and memory-system attributes.

``FpgaDevice`` describes the two boards used in the paper: the VCU128
(cloud, HBM) and the Zynq 7045 (edge, DDR4).
"""

from __future__ import annotations

from dataclasses import dataclass

MULTIPLIERS_PER_BU = 4  # Fig. 7a: four real multipliers per adaptable BU
BYTES_PER_VALUE = 2  # 16-bit half-precision datapath


@dataclass(frozen=True)
class FpgaDevice:
    """Resource and memory envelope of a target FPGA board."""

    name: str
    luts: int
    registers: int
    dsps: int
    brams: int
    bandwidth_gbs: float  # external memory bandwidth (HBM or DDR)
    technology_nm: int


# Xilinx VCU128: Virtex UltraScale+ with 2 HBM stacks (Table VII gives the
# available resources; the paper uses a single HBM at 450 GB/s).
VCU128 = FpgaDevice(
    name="VCU128",
    luts=1_303_680,
    registers=2_607_360,
    dsps=9_024,
    brams=2_016,
    bandwidth_gbs=450.0,
    technology_nm=16,
)

# Xilinx Zynq 7045 with DDR4 (edge scenario).
ZYNQ7045 = FpgaDevice(
    name="Zynq7045",
    luts=218_600,
    registers=437_200,
    dsps=900,
    brams=545,
    bandwidth_gbs=19.2,
    technology_nm=28,
)

DEVICES = {"vcu128": VCU128, "zynq7045": ZYNQ7045}


@dataclass(frozen=True)
class AcceleratorConfig:
    """Parallelism and clocking of the adaptable butterfly accelerator.

    Attributes mirror the co-design space of Section V-C:
        pbe: number of Butterfly Engines in the Butterfly Processor.
        pbu: number of adaptable Butterfly Units per BE.
        pae: number of Attention Engines (``P_head``); attention heads are
            distributed across them.
        pqk / psv: multipliers in each AE's QK and SV units (0 disables
            the Attention Processor entirely, as in the paper's final
            all-FBfly configurations).
        clock_mhz: design clock (the paper closes timing at 200 MHz).
        bandwidth_gbs: off-chip bandwidth available to the accelerator.
        buffer_depth: depth of the butterfly/query/key buffers (1024 in
            the paper, bounding the supported hidden size).
    """

    pbe: int = 64
    pbu: int = 4
    pae: int = 8
    pqk: int = 0
    psv: int = 0
    clock_mhz: float = 200.0
    bandwidth_gbs: float = 450.0
    buffer_depth: int = 1024

    def __post_init__(self) -> None:
        if self.pbe < 1 or self.pbu < 1:
            raise ValueError("pbe and pbu must be >= 1")
        if self.pqk < 0 or self.psv < 0 or self.pae < 0:
            raise ValueError("attention parallelism cannot be negative")
        if self.clock_mhz <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("clock and bandwidth must be positive")

    @property
    def butterfly_multipliers(self) -> int:
        """Multipliers in the Butterfly Processor."""
        return self.pbe * self.pbu * MULTIPLIERS_PER_BU

    @property
    def attention_multipliers(self) -> int:
        """Multipliers in the Attention Processor."""
        return self.pae * (self.pqk + self.psv)

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / (self.clock_mhz * 1e6)

    @property
    def bandwidth_bytes_per_cycle(self) -> float:
        return self.bandwidth_gbs * 1e9 * self.cycle_time_s

    def with_(self, **changes) -> "AcceleratorConfig":
        from dataclasses import replace

        return replace(self, **changes)


# The configuration selected by the paper's co-design run (Section VI-C):
# <Pbe, Pbu, Pqk, Psv> = <64, 4, 0, 0>.
PAPER_CODESIGN_CONFIG = AcceleratorConfig(pbe=64, pbu=4, pae=0, pqk=0, psv=0)

# The two implemented designs of Tables VI/VII.
BE40_CONFIG = AcceleratorConfig(pbe=40, pbu=4, pae=8, pqk=0, psv=0)
BE120_CONFIG = AcceleratorConfig(pbe=120, pbu=4, pae=8, pqk=60, psv=60)
