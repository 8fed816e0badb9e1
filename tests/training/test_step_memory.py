"""A steady ``Trainer.fit`` step takes no page fault, and changes no bytes.

``Trainer.fit`` runs every step of the encoder's training program in the
buffers the previous step used (:data:`repro.kernels.pool.STEP`, held for
the fit); the decoder's program does the same under ``STEP.held()``.  The
fault gate is taken at the e2e ``train_fit`` shape, where the heap used to
be trimmed after every backward and faulted back in by the next forward
(8-10k minor faults per step); the byte gate holds the fit to a loop
written out by hand outside a fit, where the program allocates every
array afresh.
"""

import resource

import numpy as np
import pytest

from repro import nn
from repro.data import load_task
from repro.data.charlm import VOCAB_SIZE, generate_charlm
from repro.kernels.pool import STEP
from repro.models import (
    DualEncoderClassifier,
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
)
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


@pytest.mark.parametrize("build", [build_butterfly_decoder, build_dense_decoder])
def test_a_steady_decoder_step_takes_at_most_100_faults(build):
    """At ``examples/decoder_generation.py``'s shape (batch 16 x 48,
    ``d_hidden`` 64), under ``STEP.held()``."""
    steps = 6
    train, _ = generate_charlm(n_samples=160, seq_len=48, seed=0)
    model = build(ModelConfig(vocab_size=VOCAB_SIZE, n_classes=2, max_len=48,
                              d_hidden=64, n_heads=4, r_ffn=2, n_total=2, seed=0))
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    faults = []
    with STEP.held():
        for i in range(steps):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            loss = model.loss(train[16 * i:16 * (i + 1)])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    per_step = np.diff(faults)
    assert per_step[2:].max() <= 100, per_step


def _config(dataset, dtype):
    return ModelConfig(vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
                       max_len=32, d_hidden=16, n_heads=2, r_ffn=2, n_total=2,
                       n_abfly=1, dtype=dtype, seed=1)


class HeldBytes(StepMarks):
    """Records the bytes the step buffers hold each time the trainer comes
    back for a batch."""

    def _mark(self):
        self.faults.append(STEP._tls.bytes)


def test_a_ragged_last_batch_holds_no_more_than_full_ones():
    """Each epoch ends in a batch of 3 of 4 here.  Every buffer is grow-only
    per tag, so the short batch runs in views of the full batches' buffers
    and the fit never holds more than one of full batches only."""
    def most_held(n_train):
        dataset = load_task("text", seq_len=32, n_samples=2 * n_train, seed=0,
                            test_fraction=0.5)
        assert dataset.n_train == n_train
        marks = HeldBytes(dataset)
        Trainer(build_fabnet(_config(dataset, "float64")),
                batch_size=4).fit(marks, epochs=3)
        return max(marks.faults)

    assert 0 < most_held(11) <= most_held(8)


@pytest.mark.parametrize("dual", [False, True], ids=["encoder", "dual"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fit_is_byte_equal_to_a_loop_that_allocates_afresh(dtype, dual):
    """The dual encoder runs two live forwards a step, in two slots."""
    dataset = load_task("text", seq_len=32, n_samples=20, seed=0)

    def build():
        model = build_fabnet(_config(dataset, dtype))
        return DualEncoderClassifier(model) if dual else model

    def batches(rng):
        for xb, yb in dataset.batches(4, rng):
            yield (np.stack([xb, xb[::-1]], axis=1) if dual else xb), yb

    class Feeder:
        def __getattr__(self, name):
            return getattr(dataset, name)

        def batches(self, batch_size, rng, split="train"):
            assert batch_size == 4 and split == "train"
            return batches(rng)

    fitted = build()
    trainer = Trainer(fitted, lr=3e-3, batch_size=4, seed=5)
    trainer.evaluate = lambda dataset, split="test": 0.0  # tokens only, not pairs
    trainer.fit(Feeder(), epochs=2)

    model = build()
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(5)
    with _config(dataset, dtype).dtype_context():
        for _ in range(2):
            for xb, yb in batches(rng):
                loss = nn.cross_entropy_logits(model(xb), yb)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
    for (name, a), b in zip(fitted.named_parameters(), model.parameters()):
        assert a.data.dtype == np.dtype(dtype)
        assert a.data.tobytes() == b.data.tobytes(), name
