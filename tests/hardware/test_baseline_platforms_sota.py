"""Baseline accelerator, CPU/GPU roofline platforms, and SOTA comparison."""

import numpy as np
import pytest

from repro.hardware import (
    JETSON_NANO,
    PAPER_OUR_WORK,
    PLATFORMS,
    RASPBERRY_PI4,
    SOTA_ACCELERATORS,
    V100,
    XEON_6154,
    BaselineAccelerator,
    BaselineConfig,
    bert_spec,
    fabnet_spec,
    our_work_record,
    platform_breakdown,
    speedup_over_sota,
    table5,
)
from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec


class TestBaselineAccelerator:
    def test_dense_linear_cycles(self):
        base = BaselineAccelerator(BaselineConfig(n_multipliers=1024,
                                                  bandwidth_gbs=1e6))
        layer = base.dense_linear(128, 256, 256)
        assert layer.compute_cycles == 128 * 256 * 256 / 1024

    def test_bert_slower_than_fabnet_on_baseline(self):
        """Fig. 19 'algorithm' column: FABNet beats BERT on the same HW."""
        base = BaselineAccelerator()
        for seq in (128, 512, 1024):
            t_bert = base.model_latency(bert_spec(seq)).total_cycles
            t_fab = base.model_latency(fabnet_spec(seq)).total_cycles
            assert 1.1 < t_bert / t_fab < 3.0  # paper band: 1.56-2.3x

    def test_butterfly_accel_beats_baseline_on_fabnet(self):
        """Fig. 19 'hardware' column, same 2048 multipliers both sides."""
        base = BaselineAccelerator(BaselineConfig(n_multipliers=2048))
        bfly = ButterflyPerformanceModel(AcceleratorConfig(pbe=128, pbu=4))
        for seq, large in ((128, False), (1024, True)):
            spec = fabnet_spec(seq, large)
            ratio = (
                base.model_latency(spec).latency_ms
                / bfly.model_latency(spec).latency_ms
            )
            assert 10.0 < ratio < 60.0  # paper band: 19.5-53.3x

    def test_combined_speedup_band(self):
        """Fig. 19 overall: 30.8-87.3x in the paper; assert same decade."""
        base = BaselineAccelerator(BaselineConfig(n_multipliers=2048))
        bfly = ButterflyPerformanceModel(AcceleratorConfig(pbe=128, pbu=4))
        ratios = []
        for large in (False, True):
            for seq in (128, 256, 512, 1024):
                total = (
                    base.model_latency(bert_spec(seq, large)).latency_ms
                    / bfly.model_latency(fabnet_spec(seq, large)).latency_ms
                )
                ratios.append(total)
        assert min(ratios) > 20.0
        assert max(ratios) < 90.0
        assert max(ratios) / min(ratios) > 1.5  # spread grows with size/seq

    def test_specs(self):
        assert bert_spec(128).d_hidden == 768
        assert bert_spec(128, large=True).n_total == 24
        assert fabnet_spec(128).n_abfly == 0


class TestPlatforms:
    def test_breakdown_linear_dominates_short_sequences(self):
        """Fig. 3: linear layers dominate at seq 256 on both CPU and GPU."""
        for platform in (V100, XEON_6154):
            spec = bert_spec(256, large=True)
            pct = platform_breakdown(platform, spec, batch=8).percentages()
            assert pct["linear"] > 50.0

    def test_breakdown_attention_grows_with_sequence(self):
        spec_small = bert_spec(256, large=True)
        spec_big = bert_spec(2048, large=True)
        small = platform_breakdown(V100, spec_small, batch=8).percentages()
        big = platform_breakdown(V100, spec_big, batch=8).percentages()
        assert big["attention"] > small["attention"]
        assert big["attention"] > 30.0

    def test_fabnet_faster_than_transformer_on_gpu(self):
        spec = fabnet_spec(1024)
        t_fab = platform_breakdown(V100, spec).total
        t_trans = platform_breakdown(V100, bert_spec(1024)).total
        assert t_fab < t_trans

    def test_fpga_beats_edge_devices(self):
        """Fig. 20b: Zynq design faster than Jetson Nano and Pi 4."""
        spec = fabnet_spec(512)
        zynq = ButterflyPerformanceModel(
            AcceleratorConfig(pbe=32, pbu=4, bandwidth_gbs=19.2)
        )
        t_fpga = zynq.model_latency(spec).latency_s
        assert platform_breakdown(JETSON_NANO, spec).total / t_fpga > 2.0
        assert platform_breakdown(RASPBERRY_PI4, spec).total / t_fpga > 20.0

    @pytest.mark.parametrize("platform", list(PLATFORMS.values()),
                             ids=list(PLATFORMS))
    def test_fnet_attention_is_its_fft_mixing(self, platform):
        """FNet's token mixing is its attention component: one FFT per
        block at the platform's butterfly efficiency, the FFN linear."""
        fnet = WorkloadSpec(seq_len=256, d_hidden=512, n_total=2, n_abfly=0,
                            butterfly=False)
        parts = platform_breakdown(platform, fnet)
        rows, d = 256, 512
        fft_flops = 5.0 * rows * d * np.log2(d) + 5.0 * d * rows * np.log2(rows)
        fft = platform.op_time_s(fft_flops, 4 * rows * d * 4,
                                 efficiency=platform.butterfly_efficiency)
        assert parts.attention == pytest.approx(2 * fft, rel=1e-12)
        assert parts.linear > 0.0 and parts.other > 0.0

    @pytest.mark.parametrize("platform", list(PLATFORMS.values()),
                             ids=list(PLATFORMS))
    def test_abfly_and_vanilla_attention_share_the_core(self, platform):
        """Only the projections of an ABfly block are butterflies: its
        QK^T / softmax / SV core costs what a vanilla block's does."""
        shape = dict(seq_len=512, d_hidden=256, n_total=1, n_abfly=1, n_heads=4)
        abfly = platform_breakdown(platform, WorkloadSpec(**shape), batch=8)
        vanilla = platform_breakdown(
            platform, WorkloadSpec(**shape, butterfly=False), batch=8)
        assert abfly.attention == vanilla.attention > 0.0
        assert abfly.other == vanilla.other
        assert abfly.linear != vanilla.linear

    def test_roofline_compute_vs_memory(self):
        t_compute = V100.op_time_s(1e12, 1e3)
        t_memory = V100.op_time_s(1e3, 1e12)
        assert t_compute > 0.01
        assert t_memory > 1.0


class TestSOTA:
    def test_seven_published_rows(self):
        assert len(SOTA_ACCELERATORS) == 7
        names = {r.name for r in SOTA_ACCELERATORS}
        assert {"A3", "SpAtten", "Sanger", "DOTA", "FTRANS"} <= names

    def test_throughput_and_energy_derivations(self):
        spatten = next(r for r in SOTA_ACCELERATORS if r.name == "SpAtten")
        assert spatten.throughput_pred_s == pytest.approx(20.49, abs=0.01)
        assert spatten.energy_eff_pred_j == pytest.approx(19.33, abs=0.01)

    def test_our_latency_in_paper_band(self):
        """Paper: 2.4 ms; our model should land within ~2x of it."""
        rec = our_work_record()
        assert 1.0 < rec.latency_ms < 5.0

    def test_speedups_over_asics_in_band(self):
        """Paper: 14.2-23.2x over the ASIC designs."""
        speedups = speedup_over_sota(our_work_record())
        asics = {k: v for k, v in speedups.items() if k != "FTRANS"}
        assert min(asics.values()) > 10.0
        assert max(asics.values()) < 35.0

    def test_ftrans_speedup(self):
        """Paper: 25.6x over FTRANS with ~10x fewer DSPs."""
        speedups = speedup_over_sota(our_work_record())
        assert 15.0 < speedups["FTRANS"] < 40.0

    def test_table5_contains_ours_and_paper_reference(self):
        rows = table5()
        assert rows[-1].name.startswith("Our work")
        assert PAPER_OUR_WORK.latency_ms == 2.4

    def test_energy_efficiency_competitive_with_asics(self):
        """Paper: 1.1-4.3x better Pred./J than every ASIC.  Our power model
        uses Table VI's BE-40 total (14.1 W) where the paper's Table V
        quotes 11.4 W, so we assert we beat all but the strongest ASIC
        (DOTA) and sit within 15% of it."""
        ours = our_work_record()
        asic_effs = sorted(
            r.energy_eff_pred_j for r in SOTA_ACCELERATORS if "FPGA" not in r.technology
        )
        assert ours.energy_eff_pred_j > asic_effs[-2]  # beats 5 of 6 ASICs
        assert ours.energy_eff_pred_j > 0.85 * asic_effs[-1]
