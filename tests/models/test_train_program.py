"""The encoder's training program against the ``Tensor`` graph.

With grad enabled and the fused kernels on, ``EncoderClassifier`` records
its forward as one node (``repro.models.encode_program.TrainProgram``)
whose VJP walks the blocks in reverse through the kernels' VJPs.  The
graph (``EncoderClassifier._graph``, the ``use_fused(False)`` path) is
its oracle: the loss, the logits and every parameter gradient equal the
graph's at 1e-12 (fp64) / 1e-5 (fp32), over the inference program's
matrix, the dual encoder and generated configs.  A gradient is
compared against the largest entry of all of them: some are zero up to
rounding (the key projection's bias, which softmax cannot see).  The rest
pins the buffers: two live forwards never share one, a slot frees when
its VJP has run, outside a fit everything is allocated, and a
stored-weight replica is refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, nn
from repro.kernels.pool import STEP
from repro.models import DualEncoderClassifier, ModelConfig

from .test_encode_program import BUILDERS, GRAPH_RTOL, KIND_HEADS, build, inputs


def loss_and_grads(model, forward, labels):
    """The loss, logits and every parameter gradient of one backward."""
    for param in model.parameters():
        param.zero_grad()
    logits = forward()
    loss = nn.cross_entropy_logits(logits, labels)
    loss.backward()
    return loss.item(), logits.data, [
        None if p.grad is None else p.grad.copy() for p in model.parameters()]


def graph(model, tokens, mask=None):
    """``forward`` of the graph."""
    def forward():
        with model._dtype_context():
            return model._graph(*model._validated(tokens, mask), True)
    return forward


def assert_same_step(got, want, rtol):
    (loss, logits, grads), (want_loss, want_logits, want_grads) = got, want
    assert loss == pytest.approx(want_loss, rel=rtol)
    np.testing.assert_allclose(logits, want_logits, rtol=rtol,
                               atol=rtol * np.abs(want_logits).max())
    scale = max(np.abs(g).max() for g in want_grads if g is not None)
    for g, w in zip(grads, want_grads):
        if w is None:  # a dual encoder's unused encoder head
            assert g is None
            continue
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=rtol, atol=rtol * scale)


def labels_for(tokens):
    return np.arange(len(tokens)) % 3


class TestAgainstTheGraph:
    @pytest.mark.parametrize("kind,heads", KIND_HEADS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seq", [16, 13])
    def test_loss_and_gradients_match_the_graph(
        self, kind, heads, dtype, masked, batch, seq, rng
    ):
        model = build(kind, dtype, n_heads=heads)
        tokens, mask = inputs(rng, batch=batch, seq=seq, masked=masked)
        labels = labels_for(tokens)
        got = loss_and_grads(model, lambda: model(tokens, mask=mask), labels)
        assert model._train_program.builds == 1
        assert_same_step(got, loss_and_grads(model, graph(model, tokens, mask), labels),
                         GRAPH_RTOL[dtype])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dual_encoder_two_towers_before_one_backward(self, dtype, rng):
        model = DualEncoderClassifier(build("fabnet", dtype))
        pairs = rng.integers(0, 32, size=(3, 2, 16))
        labels = labels_for(pairs)
        got = loss_and_grads(model, lambda: model(pairs), labels)
        with kernels.use_fused(False):
            want = loss_and_grads(model, lambda: model(pairs), labels)
        assert_same_step(got, want, GRAPH_RTOL[dtype])

    def test_chunked_ladders_and_rectangular_folds(self, rng):
        """``d_hidden = 256`` is past the dense-by-area budget: the recorded
        ladders run chunked on every row, with the fold padded."""
        model = build("fabnet", "float32", max_len=8, d_hidden=256, r_ffn=4)
        tokens, _ = inputs(rng, batch=2, seq=8)
        labels = labels_for(tokens)
        assert_same_step(loss_and_grads(model, lambda: model(tokens), labels),
                         loss_and_grads(model, graph(model, tokens), labels),
                         GRAPH_RTOL["float32"])


@st.composite
def configs(draw):
    """A drawn model, its inputs, and a mask or none.  ``ModelConfig``
    refuses a ``d_hidden`` that is not a power of two, so the FFN's width
    (``r_ffn`` 3) is where the folds go rectangular."""
    d_hidden = draw(st.sampled_from([8, 16, 32]))
    config = ModelConfig(
        vocab_size=32, n_classes=3, max_len=48, d_hidden=d_hidden,
        n_heads=draw(st.sampled_from([h for h in (1, 2, 4) if d_hidden % h == 0])),
        r_ffn=draw(st.integers(1, 3)), n_total=2, n_abfly=1,
        dtype=draw(st.sampled_from(["float32", "float64"])),
        seed=draw(st.integers(0, 2**16)),
    )
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    seq = draw(st.integers(1, config.max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tokens = rng.integers(0, 32, size=(3, seq))
    mask = None
    if draw(st.booleans()):
        mask = np.arange(seq)[None, :] < rng.integers(1, seq + 1, size=(3, 1))
    return BUILDERS[kind](config), tokens, mask


@settings(max_examples=25, deadline=None)
@given(configs())
def test_generated_configs_match_the_graph(drawn):
    model, tokens, mask = drawn
    labels = labels_for(tokens)
    assert_same_step(
        loss_and_grads(model, lambda: model(tokens, mask=mask), labels),
        loss_and_grads(model, graph(model, tokens, mask), labels),
        GRAPH_RTOL[model.config.dtype])


class TestBuffers:
    def test_two_live_forwards_take_two_slots_and_free_them(self, rng):
        model = build("fabnet")
        tokens, _ = inputs(rng)
        program = model._train_program
        with STEP.held():
            first = model(tokens)
            second = model(tokens)
            live = program.get(model)._live
            assert live == {0, 1}
            want = first.data.copy()
            nn.cross_entropy_logits(second, labels_for(tokens)).backward()
            assert live == {0}
            np.testing.assert_array_equal(first.data, want)
            del first
            assert live == set()

    def test_outside_a_fit_gradients_are_allocated(self, rng):
        """Two models' steps outside a fit never write each other's arrays
        (``train_fit``'s oracle keeps one model's gradients while the next
        one runs)."""
        tokens, _ = inputs(rng)
        models = [build("fabnet", seed=seed) for seed in (1, 2)]
        grads = [loss_and_grads(m, lambda m=m: m(tokens), labels_for(tokens))[2]
                 for m in models]
        kept = [p.grad.copy() for p in models[0].parameters()]
        loss_and_grads(models[1], lambda: models[1](tokens), labels_for(tokens))
        for param, want in zip(models[0].parameters(), kept):
            np.testing.assert_array_equal(param.grad, want)
        assert not np.array_equal(grads[0][-1], grads[1][-1])

    def test_a_stored_weight_replica_is_refused_under_grad(self, rng):
        replica = nn.quantize_for_inference(build("transformer"), mode="int8")
        tokens, _ = inputs(rng)
        with pytest.raises(RuntimeError, match="inference-only.*under no_grad"):
            replica(tokens)
        with nn.no_grad():
            replica(tokens)
