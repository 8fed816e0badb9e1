"""End-to-end integration: data -> train -> accelerate -> deploy-model."""

import numpy as np
import pytest

from repro.codesign import SurrogateAccuracyOracle, run_codesign, DesignSpace
from repro.data import load_task
from repro.hardware import (
    AcceleratorConfig,
    ButterflyPerformanceModel,
    WorkloadSpec,
    estimate_power,
    estimate_resources,
)
from repro.hardware.functional import ButterflyAccelerator
from repro.models import ModelConfig, build_fabnet
from repro.training import train_model_on_task


@pytest.fixture(scope="module")
def trained_setup():
    dataset = load_task("text", n_samples=160, seq_len=32, seed=0)
    config = ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
        max_len=dataset.seq_len, d_hidden=16, n_heads=2, r_ffn=2,
        n_total=2, n_abfly=1, seed=0,
    )
    model = build_fabnet(config)
    result = train_model_on_task(model, dataset, epochs=3, lr=3e-3)
    return dataset, model.eval(), result


class TestFullPipeline:
    def test_training_learns(self, trained_setup):
        _, _, result = trained_setup
        assert result.best_test_accuracy > 0.6

    def test_trained_model_runs_on_accelerator(self, trained_setup):
        dataset, model, _ = trained_setup
        accel = ButterflyAccelerator(
            AcceleratorConfig(pbe=1, pbu=4, pae=2, pqk=4, psv=4)
        )
        tokens = dataset.x_test[:3]
        hw = accel.run_encoder(model, tokens)
        sw = model(tokens).data
        np.testing.assert_allclose(hw, sw, atol=1e-9)
        assert accel.trace.bank_conflicts == 0

    def test_accelerator_predictions_match_software(self, trained_setup):
        dataset, model, _ = trained_setup
        accel = ButterflyAccelerator(
            AcceleratorConfig(pbe=1, pbu=4, pae=2, pqk=4, psv=4)
        )
        tokens = dataset.x_test[:8]
        hw_preds = accel.run_encoder(model, tokens).argmax(axis=-1)
        sw_preds = model(tokens).data.argmax(axis=-1)
        np.testing.assert_array_equal(hw_preds, sw_preds)

    def test_deployment_estimate_consistent(self, trained_setup):
        dataset, model, _ = trained_setup
        cfg = model.config
        spec = WorkloadSpec(
            seq_len=dataset.seq_len, d_hidden=cfg.d_hidden, r_ffn=cfg.r_ffn,
            n_total=cfg.n_total, n_abfly=cfg.n_abfly, n_heads=cfg.n_heads,
        )
        hw = AcceleratorConfig(pbe=8, pbu=4, pae=2, pqk=8, psv=8)
        report = ButterflyPerformanceModel(hw).model_latency(spec)
        assert report.latency_ms > 0
        resources = estimate_resources(hw)
        power = estimate_power(hw, resources)
        assert power.total > 0
        assert resources.dsps == hw.butterfly_multipliers + hw.attention_multipliers

    def test_codesign_to_deployment_flow(self):
        """Search selects a point; its spec/config produce consistent models."""
        space = DesignSpace(d_hidden=(64,), r_ffn=(2,), n_total=(1, 2),
                            n_abfly=(0,), pbe=(16, 64), pqk=(0,), psv=(0,))
        oracle = SurrogateAccuracyOracle(task="text")
        result = run_codesign(oracle, seq_len=1024, space=space,
                              max_accuracy_loss=0.05)
        sel = result.selected
        assert sel is not None
        report = ButterflyPerformanceModel(sel.config).model_latency(sel.spec)
        assert report.latency_ms == pytest.approx(sel.latency_ms)
