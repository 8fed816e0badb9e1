"""AcceleratorConfig and FpgaDevice invariants."""

import pytest

from repro.hardware import (
    BE40_CONFIG,
    BE120_CONFIG,
    DEVICES,
    PAPER_CODESIGN_CONFIG,
    VCU128,
    ZYNQ7045,
    AcceleratorConfig,
)
from repro.hardware.config import BYTES_PER_VALUE, MULTIPLIERS_PER_BU


class TestAcceleratorConfig:
    def test_multiplier_accounting(self):
        config = AcceleratorConfig(pbe=10, pbu=4, pae=2, pqk=8, psv=8)
        assert config.butterfly_multipliers == 10 * 4 * 4
        assert config.attention_multipliers == 2 * 16

    def test_cycle_time(self):
        config = AcceleratorConfig(clock_mhz=200.0)
        assert config.cycle_time_s == pytest.approx(5e-9)

    def test_bandwidth_per_cycle(self):
        config = AcceleratorConfig(clock_mhz=200.0, bandwidth_gbs=100.0)
        assert config.bandwidth_bytes_per_cycle == pytest.approx(500.0)

    def test_with_returns_modified_copy(self):
        config = AcceleratorConfig(pbe=64)
        other = config.with_(pbe=32, bandwidth_gbs=19.2)
        assert config.pbe == 64
        assert other.pbe == 32
        assert other.bandwidth_gbs == 19.2
        assert other.pbu == config.pbu

    def test_validation(self):
        with pytest.raises(ValueError, match="pbe"):
            AcceleratorConfig(pbe=0)
        with pytest.raises(ValueError, match="negative"):
            AcceleratorConfig(pqk=-1)
        with pytest.raises(ValueError, match="positive"):
            AcceleratorConfig(clock_mhz=0.0)

    def test_paper_reference_configs(self):
        assert PAPER_CODESIGN_CONFIG.pbe == 64
        assert PAPER_CODESIGN_CONFIG.pqk == 0
        assert BE40_CONFIG.butterfly_multipliers == 640
        assert BE120_CONFIG.butterfly_multipliers == 1920

    def test_constants_match_paper(self):
        assert MULTIPLIERS_PER_BU == 4  # Fig. 7a
        assert BYTES_PER_VALUE == 2  # fp16 datapath


class TestFpgaDevices:
    def test_registry(self):
        assert DEVICES["vcu128"] is VCU128
        assert DEVICES["zynq7045"] is ZYNQ7045

    def test_vcu128_envelope_matches_table7(self):
        assert VCU128.luts == 1_303_680
        assert VCU128.registers == 2_607_360
        assert VCU128.dsps == 9_024
        assert VCU128.brams == 2_016

    def test_vcu128_hbm_bandwidth(self):
        assert VCU128.bandwidth_gbs == 450.0  # one HBM stack, Sec. VI-H

    def test_zynq_is_smaller_everywhere(self):
        assert ZYNQ7045.luts < VCU128.luts
        assert ZYNQ7045.dsps < VCU128.dsps
        assert ZYNQ7045.bandwidth_gbs < VCU128.bandwidth_gbs

    def test_technology_nodes(self):
        assert VCU128.technology_nm == 16
        assert ZYNQ7045.technology_nm == 28
