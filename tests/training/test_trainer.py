"""Training harness: loss decreases, metrics recorded, evaluation."""

import numpy as np
import pytest

from repro.data import load_task
from repro.models import ModelConfig, build_fabnet, build_fnet
from repro.training import Trainer, train_model_on_task


@pytest.fixture(scope="module")
def text_dataset():
    return load_task("text", n_samples=160, seq_len=32, seed=0)


@pytest.fixture
def small_model(text_dataset):
    cfg = ModelConfig(
        vocab_size=text_dataset.vocab_size,
        n_classes=text_dataset.n_classes,
        max_len=text_dataset.seq_len,
        d_hidden=16,
        n_heads=2,
        r_ffn=2,
        n_total=1,
        n_abfly=0,
        seed=0,
    )
    return build_fabnet(cfg)


class TestTrainer:
    def test_fit_records_history(self, small_model, text_dataset):
        result = train_model_on_task(small_model, text_dataset, epochs=2, lr=3e-3)
        assert len(result.train_losses) == 2
        assert len(result.test_accuracies) == 2
        assert result.wall_time_s > 0

    def test_loss_decreases(self, small_model, text_dataset):
        result = train_model_on_task(small_model, text_dataset, epochs=3, lr=3e-3)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_learns_better_than_chance(self, small_model, text_dataset):
        result = train_model_on_task(small_model, text_dataset, epochs=4, lr=3e-3)
        assert result.best_test_accuracy > 0.65

    def test_evaluate_the_test_split(self, small_model, text_dataset):
        acc = Trainer(small_model, lr=1e-3).evaluate(text_dataset)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_restores_the_callers_mode(self, small_model, text_dataset,
                                               training):
        """An ``.eval()`` model used to come back in training mode."""
        small_model.train(training)
        Trainer(small_model, lr=1e-3).evaluate(text_dataset)
        assert small_model.training is training

    @pytest.mark.parametrize("batch_size", [0, -1, True, 2.0, "4", None])
    def test_bad_batch_sizes_are_refused_at_construction(self, small_model,
                                                         batch_size):
        """0 died in ``fit`` on numpy's ``range() arg 3 must not be zero``,
        -1 with a ``ZeroDivisionError`` after zero steps."""
        with pytest.raises(ValueError, match="batch_size"):
            Trainer(small_model, batch_size=batch_size)

    def test_a_numpy_integer_batch_size_is_accepted(self, small_model):
        assert Trainer(small_model, batch_size=np.int64(4)).batch_size == 4

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0])
    def test_bad_learning_rates_are_refused(self, small_model, lr):
        """``lr=nan`` trained a checkpoint of NaN weights and exited 0."""
        with pytest.raises(ValueError, match="learning rate"):
            Trainer(small_model, lr=lr)

    def test_log_callback_invoked(self, small_model, text_dataset):
        lines = []
        trainer = Trainer(small_model, lr=1e-3, log=lines.append)
        trainer.fit(text_dataset, epochs=1)
        assert len(lines) == 1
        assert "test_acc" in lines[0]

    def test_empty_result_properties(self):
        from repro.training import TrainResult
        result = TrainResult()
        assert result.final_test_accuracy == 0.0
        assert result.best_test_accuracy == 0.0

    def test_fnet_also_trains(self, text_dataset):
        cfg = ModelConfig(
            vocab_size=text_dataset.vocab_size, n_classes=text_dataset.n_classes,
            max_len=text_dataset.seq_len, d_hidden=16, n_heads=2, r_ffn=2,
            n_total=1, seed=1,
        )
        result = train_model_on_task(build_fnet(cfg), text_dataset, epochs=3, lr=3e-3)
        assert result.train_losses[-1] < result.train_losses[0]
