"""Gradient clipping and early stopping."""

import numpy as np
import pytest

from repro import nn
from repro.data import load_task
from repro.models import ModelConfig, build_fabnet
from repro.nn.optim import clip_grad_norm
from repro.training import Trainer


class TestClipGradNorm:
    def test_leaves_handed_one_array_own_their_gradients(self):
        """``add`` hands one gradient array to both parents: each leaf
        keeps its own copy, or clipping would scale the shared array twice
        (0.1667 per entry instead of 1 / sqrt(6))."""
        p1, p2 = nn.Parameter(np.zeros(3)), nn.Parameter(np.zeros(3))
        (p1 + p2).sum().backward()
        assert not np.shares_memory(p1.grad, p2.grad)
        clip_grad_norm([p1, p2], 1.0)
        for p in (p1, p2):
            np.testing.assert_allclose(p.grad, np.full(3, 1 / np.sqrt(6)))

    def test_large_gradients_scaled_to_max_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, np.full(4, 0.1))

    def test_global_norm_across_params(self):
        a = nn.Parameter(np.zeros(1))
        b = nn.Parameter(np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        pre = clip_grad_norm([a, b], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_params_without_grad_skipped(self):
        p = nn.Parameter(np.zeros(2))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([], max_norm=0.0)


class TestTrainerExtras:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load_task("text", n_samples=120, seq_len=16, seed=0)

    def _model(self, dataset):
        cfg = ModelConfig(
            vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
            max_len=dataset.seq_len, d_hidden=16, n_heads=2, r_ffn=2,
            n_total=1, seed=0,
        )
        return build_fabnet(cfg)

    def test_training_with_clipping_still_learns(self, dataset):
        trainer = Trainer(self._model(dataset), lr=3e-3, grad_clip=1.0)
        result = trainer.fit(dataset, epochs=3)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_early_stopping_cuts_epochs(self, dataset):
        trainer = Trainer(self._model(dataset), lr=1e-6, patience=1)
        result = trainer.fit(dataset, epochs=10)
        # With a vanishing LR, accuracy never improves after epoch 1, so
        # patience=1 stops at epoch 2.
        assert len(result.test_accuracies) <= 3

    def test_no_patience_runs_all_epochs(self, dataset):
        trainer = Trainer(self._model(dataset), lr=1e-6)
        result = trainer.fit(dataset, epochs=4)
        assert len(result.test_accuracies) == 4

    def test_early_stop_logged(self, dataset):
        lines = []
        trainer = Trainer(self._model(dataset), lr=1e-6, patience=1,
                          log=lines.append)
        trainer.fit(dataset, epochs=10)
        assert any("early stop" in line for line in lines)


class TestRecordedLadderMemory:
    """One optimizer step of the e2e ``train_fit`` model (sequence 512 here,
    1024 there): every butterfly layer's fold is inside the dense area
    budget, so its ladder context is ``O(in_features * n)`` and the step
    peaks lower than with the rule switched off, where each layer saves two
    ``rows x n`` chunk inputs."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return load_task("text", seq_len=512, n_samples=4, seed=0,
                         test_fraction=0.5)

    @pytest.fixture(scope="class")
    def config(self, dataset):
        return ModelConfig(
            vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
            max_len=dataset.seq_len, d_hidden=128, n_heads=4, r_ffn=4,
            n_total=2, n_abfly=1, dtype="float32", seed=0,
        )

    @staticmethod
    def _assert_dense_peaks_lower(prepare):
        """``prepare()`` builds a step and returns the call to trace."""
        import tracemalloc

        from repro import kernels

        def peak_bytes():
            prepare()()  # a throwaway step first: pooled scratch is not the step's own
            run = prepare()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        dense = peak_bytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "dense_by_area", lambda *fold: False)
            chunked = peak_bytes()
        assert dense < 0.85 * chunked

    def test_a_train_fit_shaped_step_keeps_no_per_token_ladder_state(
            self, dataset, config):
        """Inside ``Trainer.fit``, whose peak also counts what its recycler
        keeps for the next step."""
        def prepare():
            trainer = Trainer(build_fabnet(config), batch_size=2)
            return lambda: trainer.fit(dataset, epochs=1)

        self._assert_dense_peaks_lower(prepare)

    def test_a_written_out_step_keeps_no_per_token_ladder_state(
            self, dataset, config):
        """The same step without ``Trainer.fit``, so without its recycler."""
        def prepare():
            model = build_fabnet(config)
            optimizer = nn.Adam(model.parameters())

            def step():
                with config.dtype_context():
                    nn.cross_entropy_logits(
                        model(dataset.x_train), dataset.y_train).backward()
                optimizer.step()
            return step

        self._assert_dense_peaks_lower(prepare)
