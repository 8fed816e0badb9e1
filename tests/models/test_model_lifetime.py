"""A dropped model is freed at once, and building one allocates only
what it keeps.

A model's inference and training programs live in its
:class:`~repro.models.program.ProgramCache`; they record the projection
layers they were compiled from, and an ``lm_head`` / ``head`` slot's owner
is the model itself.  Held strongly, that record closes a cycle (model ->
cache -> program -> model), and ``del model`` frees nothing until the
cyclic collector happens to run.  So every test here runs with the
collector off: a ``weakref`` to the model must be dead right after the
last strong reference goes, after each way a model is driven (a no-grad
forward, ``Trainer.fit``, prefill and a decode step, a training step, a
stored-weight replica, a closed serving engine).

Recorded mutation: holding the slot owner strongly again in
``InferenceProgram._slot`` (``(lambda: owner, name, layer)`` in place of
``weakref.ref(owner)``; both programs record their slots there) fails
all nine lifetime cases here.

The last test bounds what a build allocates: the ``decode_int8``
benchmark's decoder peaks within 2 MiB of its parameter bytes, where
drawing each weight in float64 and casting it cost 7.5 MiB more
(mutation: ``Linear``'s weight drawn whole again fails it).
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.data import load_task
from repro.models import (
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
)
from repro.serving import SamplingParams, ServingEngine
from repro.training import Trainer

DECODERS = {"dense": build_dense_decoder, "butterfly": build_butterfly_decoder}
DECODER = ModelConfig(vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
                      n_heads=4, r_ffn=2, n_total=2, seed=0)
#: ``benchmarks/e2e``'s ``decode_int8`` decoder.
DECODE_INT8 = ModelConfig(vocab_size=256, n_classes=2, max_len=96, d_hidden=512,
                          n_heads=8, r_ffn=4, n_total=2, dtype="float32", seed=0)
MiB = 1 << 20


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    """Only reference counting frees what these tests drop."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _encoder(dtype="float64"):
    return build_fabnet(ModelConfig(
        vocab_size=16, n_classes=3, max_len=16, d_hidden=16, n_heads=2,
        r_ffn=2, n_total=2, n_abfly=1, seed=3, dtype=dtype))


def _decode(model) -> None:
    tokens = np.random.default_rng(0).integers(0, DECODER.vocab_size, (2, 5))
    cache = model.make_cache(2)
    model.prefill(tokens, cache)
    model.decode_step(tokens[:, 0], cache)


def test_an_encoder_is_freed_after_a_no_grad_forward():
    model = _encoder()
    with nn.no_grad():
        model(np.zeros((2, 16), dtype=np.int64))
    ref = weakref.ref(model)
    del model
    assert ref() is None


def test_an_encoder_is_freed_after_a_fit():
    dataset = load_task("text", n_samples=8, seq_len=16, seed=0)
    config = ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes, max_len=16,
        d_hidden=16, n_heads=2, r_ffn=2, n_total=2, n_abfly=1, seed=0)
    trainer = Trainer(build_fabnet(config), batch_size=4)
    trainer.fit(dataset, epochs=1)
    ref = weakref.ref(trainer.model)
    del trainer
    assert ref() is None


def test_an_encoder_is_freed_while_its_recorded_output_lives():
    """The recorded node's VJP holds the training program and its tape,
    not the model."""
    model = _encoder()
    logits = model(np.zeros((2, 16), dtype=np.int64))
    ref = weakref.ref(model)
    del model
    assert ref() is None
    logits.sum().backward()  # the parameters it holds still take gradients


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_a_decoder_is_freed_after_prefill_and_a_decode_step(kind):
    model = DECODERS[kind](DECODER).eval()
    _decode(model)
    ref = weakref.ref(model)
    del model
    assert ref() is None


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_a_decoder_is_freed_after_a_training_step(kind):
    model = DECODERS[kind](DECODER)
    tokens = np.random.default_rng(0).integers(0, DECODER.vocab_size, (2, 8))
    with DECODER.dtype_context():
        model.loss(tokens).backward()
    ref = weakref.ref(model)
    del model
    assert ref() is None


def test_an_int8_replica_is_freed():
    model = build_dense_decoder(DECODER).eval()
    replica = nn.quantize_for_inference(model)
    _decode(replica)
    ref = weakref.ref(replica)
    del replica
    assert ref() is None


def test_a_model_served_by_a_closed_engine_is_freed():
    engine = ServingEngine(build_butterfly_decoder(DECODER).eval(), max_batch_size=2)
    for prompt in ([1, 2, 3], [4, 5]):
        engine.submit(np.asarray(prompt), SamplingParams(max_new_tokens=4))
    engine.drain()
    ref = weakref.ref(engine.model)
    del engine
    assert ref() is None


def test_building_the_decode_int8_decoder_allocates_only_its_parameters():
    build_dense_decoder(DECODER)  # the modules a first build imports
    tracemalloc.start()
    try:
        model = build_dense_decoder(DECODE_INT8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = sum(p.data.nbytes for p in model.parameters())
    assert peak <= params + 2 * MiB, (peak - params) / MiB
