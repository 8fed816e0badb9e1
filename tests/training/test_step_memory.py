"""A steady ``Trainer.fit`` step takes no page fault, and changes no bytes.

``Trainer.fit`` runs every step in the arrays the previous step released
(:data:`repro.kernels.pool.RECYCLER`).  The fault gate is taken at the
e2e ``train_fit`` shape, where the heap used to be trimmed after every
backward and faulted back in by the next forward (8-10k minor faults per
step); the byte gate holds the recycled fit to a loop written out by
hand, which allocates every array afresh.
"""

import resource

import numpy as np
import pytest

from repro import nn, telemetry
from repro.data import load_task
from repro.kernels import pool
from repro.models import ModelConfig, build_fabnet
from repro.training import Trainer


class StepMarks:
    """The dataset handed to ``fit``, recording ``ru_minflt`` each time
    the trainer comes back for a batch: in between is one optimizer step."""

    def __init__(self, dataset):
        self._dataset = dataset
        self.faults = []

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def _mark(self):
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    def batches(self, batch_size, rng, split="train"):
        for batch in self._dataset.batches(batch_size, rng, split):
            self._mark()
            yield batch
        self._mark()


def test_a_steady_step_at_train_fit_shape_takes_at_most_100_faults():
    steps = 6
    dataset = load_task("text", seq_len=1024, n_samples=16, seed=3,
                        test_fraction=0.25)
    assert dataset.n_train == 2 * steps
    config = ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
        max_len=1024, d_hidden=128, n_heads=4, r_ffn=4, n_total=2, n_abfly=1,
        dtype="float32", seed=0,
    )
    marks = StepMarks(dataset)
    Trainer(build_fabnet(config), batch_size=2).fit(marks, epochs=1)
    per_step = np.diff(marks.faults)
    assert len(per_step) == steps
    # The first step allocates what every later one reuses; the second
    # may still meet a first-time path (the optimizer's first update).
    assert per_step[2:].max() <= 100, per_step


def _config(dataset, dtype):
    return ModelConfig(vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
                       max_len=32, d_hidden=16, n_heads=2, r_ffn=2, n_total=2,
                       n_abfly=1, dtype=dtype, seed=1)


def test_a_ragged_last_batch_replaces_the_arrays_instead_of_adding_to_them(monkeypatch):
    """Each epoch ends in a batch of 3 of 4 here.  Its first miss drops the
    free arrays of every size it has not asked for, and so does the next
    full batch's, so over three epochs the recycler never keeps more than
    it does in a fit of full batches only."""
    kept = []
    monkeypatch.setattr(pool, "gauge_set", lambda name, value: kept.append(value))

    def most_kept(n_train):
        dataset = load_task("text", seq_len=32, n_samples=2 * n_train, seed=0,
                            test_fraction=0.5)
        assert dataset.n_train == n_train
        kept.clear()
        Trainer(build_fabnet(_config(dataset, "float64")),
                batch_size=4).fit(dataset, epochs=3)
        return max(kept)

    assert most_kept(11) <= most_kept(8)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fit_is_byte_equal_to_a_loop_that_allocates_afresh(dtype):
    dataset = load_task("text", seq_len=32, n_samples=20, seed=0)
    fitted = build_fabnet(_config(dataset, dtype))
    previous = telemetry.set_registry(telemetry.Registry())
    try:
        with telemetry.use_telemetry():
            Trainer(fitted, lr=3e-3, batch_size=4, seed=5,
                    grad_clip=1.0).fit(dataset, epochs=2)
        hits = telemetry.get_registry().snapshot()["training_recycle_hits_total"]
    finally:
        telemetry.set_registry(previous)
    assert hits["value"] > 0  # the fit did run in recycled arrays

    model = build_fabnet(_config(dataset, dtype))
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(5)
    with _config(dataset, dtype).dtype_context():
        for _ in range(2):
            for xb, yb in dataset.batches(4, rng):
                loss = nn.cross_entropy_logits(model(xb), yb)
                optimizer.zero_grad()
                loss.backward()
                nn.optim.clip_grad_norm(model.parameters(), 1.0)
                optimizer.step()
    for (name, a), b in zip(fitted.named_parameters(), model.parameters()):
        assert a.data.dtype == np.dtype(dtype)
        assert a.data.tobytes() == b.data.tobytes(), name
