"""Padded sequences and the model's ``mask=``: masked training, and
padding the mask hides changes nothing."""

import numpy as np
import pytest

from repro import kernels, nn
from repro.data import generate_text
from repro.models import ModelConfig, build_transformer


@pytest.fixture(scope="module")
def padded():
    """Text documents cut to a random true length in [16, 32] and
    zero-padded, with their validity masks."""
    dataset = generate_text(n_samples=120, seq_len=32, seed=0)
    rng = np.random.default_rng(0)
    masks = {}
    for split in ("train", "test"):
        x = getattr(dataset, f"x_{split}")
        masks[split] = np.arange(32)[None, :] < rng.integers(16, 33, size=(len(x), 1))
        x[~masks[split]] = 0
    return dataset, masks


def _config(dataset):
    return ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
        max_len=dataset.seq_len, d_hidden=16, n_heads=2, r_ffn=2,
        n_total=1, seed=0,
    )


class TestMaskAwareTraining:
    def test_masked_training_learns_on_the_graphs_curve(self, padded):
        """The model's ``mask=`` through the training program: the loss
        falls, on the composite graph's curve."""
        dataset, masks = padded
        x, y = dataset.x_train, dataset.y_train
        curves = []
        for fused in (True, False):
            with kernels.use_fused(fused):
                model = build_transformer(_config(dataset))
                optimizer = nn.Adam(model.parameters(), lr=3e-3)
                rng, losses = np.random.default_rng(0), []
                for _ in range(5):
                    order = rng.permutation(len(y))
                    for start in range(0, len(y), 32):
                        rows = order[start:start + 32]
                        loss = nn.cross_entropy_logits(
                            model(x[rows], mask=masks["train"][rows]), y[rows])
                        losses.append(loss.item())
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                curves.append(np.reshape(losses, (5, -1)).mean(axis=1))
        assert curves[0][-1] < curves[0][0]
        np.testing.assert_allclose(curves[0], curves[1], rtol=1e-6)

    @pytest.mark.parametrize("grad", [False, True], ids=["program", "training"])
    def test_masked_model_ignores_padding_tokens(self, padded, rng, grad):
        """Corrupting padded positions cannot change masked predictions."""
        dataset, masks = padded
        model = build_transformer(_config(dataset)).eval()
        x, mask = dataset.x_test[:4].copy(), masks["test"][:4]
        corrupt = x.copy()
        corrupt[~mask] = rng.integers(1, 28, size=(~mask).sum())
        if grad:
            base, out = model(x, mask=mask).data, model(corrupt, mask=mask).data
        else:
            with nn.no_grad():
                base, out = model(x, mask=mask).data, model(corrupt, mask=mask).data
        np.testing.assert_allclose(base, out, atol=1e-8)
