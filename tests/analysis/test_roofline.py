"""Roofline / arithmetic-intensity analysis."""

import pytest

from repro.analysis.roofline import (
    butterfly_layer_intensity,
    fft2_layer_intensity,
    saturation_bandwidth_gbs,
    workload_intensities,
)
from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec


@pytest.fixture
def spec():
    return WorkloadSpec(seq_len=1024, d_hidden=1024, r_ffn=4, n_total=24,
                        n_abfly=0, n_heads=16)


class TestIntensities:
    def test_butterfly_intensity_positive(self):
        layer = butterfly_layer_intensity(128, 256, 256)
        assert layer.intensity > 0
        assert layer.pair_ops == 128 * 8 * 128

    def test_intensity_grows_with_rows(self):
        """Weights amortize over more rows -> higher intensity."""
        small = butterfly_layer_intensity(4, 256, 256).intensity
        large = butterfly_layer_intensity(1024, 256, 256).intensity
        assert large > small

    def test_fft_intensity_lower_than_butterfly(self):
        """FFT spills complex intermediates, so it is more traffic-heavy."""
        fft = fft2_layer_intensity(1024, 1024).intensity
        bfly = butterfly_layer_intensity(1024, 1024, 1024).intensity
        assert fft < bfly

    def test_workload_layer_count(self, spec):
        layers = workload_intensities(spec)
        assert len(layers) == 24 * 3  # fft + 2 ffn per FBfly block

    def test_abfly_workload_has_projections(self):
        spec = WorkloadSpec(seq_len=128, d_hidden=128, n_total=1, n_abfly=1)
        names = [lay.name for lay in workload_intensities(spec)]
        assert any("q" in n for n in names)
        assert len(names) == 6


class TestSaturation:
    def test_bigger_designs_need_more_bandwidth(self, spec):
        """The Fig. 21 observation, derived analytically."""
        bw16 = saturation_bandwidth_gbs(spec, AcceleratorConfig(pbe=16, pbu=4))
        bw128 = saturation_bandwidth_gbs(spec, AcceleratorConfig(pbe=128, pbu=4))
        assert bw128 == pytest.approx(8 * bw16)
        assert 10.0 < bw16 < 100.0  # the paper's ~50 GB/s ballpark

    def test_cross_check_against_cycle_model(self, spec):
        """Below saturation the cycle model gains from bandwidth; above
        it the gain collapses."""
        config = AcceleratorConfig(pbe=64, pbu=4)
        saturation = saturation_bandwidth_gbs(spec, config)

        def latency_ms(factor):
            cfg = config.with_(bandwidth_gbs=max(0.5, saturation * factor))
            return ButterflyPerformanceModel(cfg).model_latency(spec).latency_ms

        gain_below = latency_ms(0.5) / latency_ms(1.0)
        gain_above = latency_ms(2.0) / latency_ms(4.0)
        # Saturation is set by the *lowest*-intensity (FFT) layer, so the
        # aggregate gain below it is modest but clearly larger than the
        # vanishing gain above it.
        assert gain_below > 1.10
        assert gain_above < 1.05
        assert gain_below > gain_above
