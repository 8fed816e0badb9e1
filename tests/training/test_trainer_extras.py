"""Leaf gradient ownership and the recorded ladder's memory."""

import numpy as np
import pytest

from repro import nn
from repro.data import load_task
from repro.models import ModelConfig, build_fabnet
from repro.training import Trainer


class TestLeafGradients:
    def test_leaves_handed_one_array_own_their_gradients(self):
        """``add`` hands one gradient array to both parents: each leaf
        keeps its own copy, so scaling one leaf's gradient in place leaves
        the other's alone."""
        p1, p2 = nn.Parameter(np.zeros(3)), nn.Parameter(np.zeros(3))
        (p1 + p2).sum().backward()
        assert not np.shares_memory(p1.grad, p2.grad)
        p1.grad *= 0.5
        np.testing.assert_array_equal(p2.grad, np.ones(3))


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
        """Inside ``Trainer.fit``, whose peak also counts the step buffers
        it holds for the next step."""
        def prepare():
            trainer = Trainer(build_fabnet(config), batch_size=2)
            return lambda: trainer.fit(dataset, epochs=1)

        self._assert_dense_peaks_lower(prepare)

    def test_a_written_out_step_keeps_no_per_token_ladder_state(
            self, dataset, config):
        """The same step without ``Trainer.fit``, so allocating."""
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
