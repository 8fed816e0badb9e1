"""Loss-curve parity: the training program vs the ``Tensor`` graph.

The encoder's training program (``use_fused(True)``) must be
*numerically interchangeable* with the graph it is held to
(``use_fused(False)``): training the same model from the same seed must
produce the same loss curve (<= 1e-6 in float64 over 3 epochs) and the
same metrics.  This is the end-to-end guarantee behind the per-op parity
tests in ``tests/kernels/test_fused_training.py``.
"""

import numpy as np
import pytest

import repro.kernels as K
from repro.data import load_task
from repro.models import ModelConfig, build_transformer
from repro.models.encoder import build_fabnet
from repro.training import Trainer


@pytest.fixture(scope="module")
def text_dataset():
    return load_task("text", n_samples=96, seq_len=32, seed=0)


def _train(build, cfg, dataset, fused, epochs=3):
    with K.use_fused(fused):
        model = build(cfg)
        trainer = Trainer(model, lr=3e-3, batch_size=32, seed=0)
        return trainer.fit(dataset, epochs=epochs)


@pytest.mark.parametrize("build", [build_transformer, build_fabnet],
                         ids=["transformer", "fabnet"])
def test_three_epoch_loss_curve_parity_fp64(build, text_dataset):
    cfg = ModelConfig(
        vocab_size=text_dataset.vocab_size,
        n_classes=text_dataset.n_classes,
        max_len=text_dataset.seq_len,
        d_hidden=16, n_heads=2, r_ffn=2, n_total=1, seed=0,
    )
    fused = _train(build, cfg, text_dataset, fused=True)
    composite = _train(build, cfg, text_dataset, fused=False)
    np.testing.assert_allclose(
        fused.train_losses, composite.train_losses, atol=1e-6, rtol=0,
        err_msg="fused and composite training paths diverged",
    )
    assert fused.train_accuracies == composite.train_accuracies
    assert fused.test_accuracies == composite.test_accuracies


def test_three_epoch_loss_curve_parity_fp32(text_dataset):
    """float32 runs the same curve to float32 round-off."""
    cfg = ModelConfig(
        vocab_size=text_dataset.vocab_size,
        n_classes=text_dataset.n_classes,
        max_len=text_dataset.seq_len,
        d_hidden=16, n_heads=2, r_ffn=2, n_total=1, seed=0,
        dtype="float32",
    )
    fused = _train(build_transformer, cfg, text_dataset, fused=True)
    composite = _train(build_transformer, cfg, text_dataset, fused=False)
    np.testing.assert_allclose(
        fused.train_losses, composite.train_losses, atol=5e-3, rtol=0
    )
