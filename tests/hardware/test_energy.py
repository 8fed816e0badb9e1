"""Energy metrics."""

import pytest

from repro.hardware import WorkloadSpec, efficiency_ratio, energy_metrics, workload_gops


@pytest.fixture
def abfly_spec():
    return WorkloadSpec(seq_len=128, d_hidden=128, r_ffn=4, n_total=2,
                        n_abfly=1, n_heads=4)


class TestEnergyMetrics:
    def test_workload_gops_positive(self, abfly_spec):
        assert workload_gops(abfly_spec) > 0

    def test_dense_workload_uses_transformer_flops(self):
        dense = WorkloadSpec(seq_len=128, d_hidden=128, n_total=2, n_abfly=2,
                             butterfly=False)
        bfly = WorkloadSpec(seq_len=128, d_hidden=128, n_total=2, n_abfly=0,
                            butterfly=True)
        assert workload_gops(dense) > workload_gops(bfly)

    def test_metrics_derivations(self, abfly_spec):
        m = energy_metrics("fpga", abfly_spec, latency_s=0.002, power_w=10.0)
        assert m.throughput_gops == pytest.approx(m.workload_gops / 0.002)
        assert m.gops_per_watt == pytest.approx(m.throughput_gops / 10.0)
        assert m.energy_per_inference_j == pytest.approx(0.02)
        assert m.predictions_per_joule == pytest.approx(50.0)

    def test_invalid_inputs(self, abfly_spec):
        with pytest.raises(ValueError, match="positive"):
            energy_metrics("x", abfly_spec, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            energy_metrics("x", abfly_spec, 1.0, -1.0)

    def test_efficiency_ratio_same_workload(self, abfly_spec):
        fast = energy_metrics("fpga", abfly_spec, 0.001, 10.0)
        slow = energy_metrics("gpu", abfly_spec, 0.01, 100.0)
        assert efficiency_ratio(fast, slow) == pytest.approx(100.0)

    def test_efficiency_ratio_rejects_mismatched_workloads(self):
        a = energy_metrics("x", WorkloadSpec(seq_len=128, d_hidden=128,
                                             n_total=1, n_abfly=0), 1.0, 1.0)
        b = energy_metrics("y", WorkloadSpec(seq_len=256, d_hidden=128,
                                             n_total=1, n_abfly=0), 1.0, 1.0)
        with pytest.raises(ValueError, match="same workload"):
            efficiency_ratio(a, b)
