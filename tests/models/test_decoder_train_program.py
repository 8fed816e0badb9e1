"""The decoder's training program against the ``Tensor`` graph.

With grad enabled and the fused kernels on, ``ButterflyDecoderLM.forward``
records its logits as one node
(``repro.models.decode_program.LMTrainProgram``): the encoder's block walk
with causal attention, then the final norm and the LM head at every
position.  The graph (``ButterflyDecoderLM._graph``, the
``use_fused(False)`` path) is its oracle: the loss, the logits and every
parameter gradient equal the graph's at 1e-12 (fp64) / 1e-5 (fp32),
relative to the largest gradient, over drawn configs.  The rest pins the
dispatch and the contract the program shares with the encoder's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, nn
from repro.kernels.pool import STEP
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder

from .test_encode_program import GRAPH_RTOL

BUILDERS = {"butterfly": build_butterfly_decoder, "dense": build_dense_decoder}


def build(kind="butterfly", dtype="float64", **changes):
    config = ModelConfig(
        vocab_size=29, n_classes=2, max_len=12, d_hidden=16, n_heads=2,
        r_ffn=2, n_total=2, seed=4, dtype=dtype,
    ).with_(**changes)
    return BUILDERS[kind](config)


def step(model, tokens, fused=True):
    """The loss, the logits and every parameter gradient of one backward."""
    for param in model.parameters():
        param.zero_grad()
    with kernels.use_fused(fused):
        logits = model(tokens[:, :-1])
        loss = model.loss(tokens)
    loss.backward()
    return loss.item(), logits.data, [p.grad.copy() for p in model.parameters()]


def assert_same_step(got, want, rtol):
    (loss, logits, grads), (want_loss, want_logits, want_grads) = got, want
    assert loss == pytest.approx(want_loss, rel=rtol)
    assert logits.dtype == want_logits.dtype
    np.testing.assert_allclose(logits, want_logits, rtol=rtol,
                               atol=rtol * np.abs(want_logits).max())
    scale = max(np.abs(g).max() for g in want_grads)
    for g, w in zip(grads, want_grads):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=rtol, atol=rtol * scale)


@st.composite
def configs(draw):
    """A drawn decoder and a token batch of 2 to ``max_len + 1`` positions
    (the loss shifts by one, so its forward runs 1 to ``max_len``)."""
    d_hidden = draw(st.sampled_from([8, 16, 32]))
    model = build(
        draw(st.sampled_from(sorted(BUILDERS))),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        d_hidden=d_hidden,
        n_heads=draw(st.sampled_from([h for h in (1, 2, 4) if d_hidden % h == 0])),
        r_ffn=draw(st.integers(1, 3)),
        n_total=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    seq = draw(st.integers(2, model.config.max_len + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return model, rng.integers(0, 29, size=(draw(st.integers(1, 3)), seq))


@settings(max_examples=25, deadline=None)
@given(configs())
def test_generated_configs_match_the_graph(drawn):
    model, tokens = drawn
    got = step(model, tokens)
    assert model._train_program.builds == 1
    assert_same_step(got, step(model, tokens, fused=False),
                     GRAPH_RTOL[model.config.dtype])


class TestDispatch:
    def test_grad_records_one_node_and_no_grad_takes_the_graph(self, rng):
        model = build()
        tokens = rng.integers(0, 29, size=(2, 8))
        logits = model(tokens)
        assert set(map(id, logits._parents)) == set(map(id, model.parameters()))
        with nn.no_grad():
            evaluated = model(tokens).data
        with kernels.use_fused(False):
            graph = model(tokens)
        assert model._train_program.builds == 1
        assert len(graph._parents) < len(logits._parents)
        for other in (evaluated, graph.data):
            np.testing.assert_allclose(logits.data, other, rtol=1e-12, atol=1e-12)

    def test_only_a_layer_swap_rebuilds(self, rng):
        model = build("dense")
        tokens = rng.integers(0, 29, size=(2, 6))
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        for _ in range(2):
            model.loss(tokens).backward()
            optimizer.step()
        assert model._train_program.builds == 1
        model.lm_head = nn.Linear(16, 29, rng=rng)
        got = step(model, tokens)
        assert model._train_program.builds == 2
        assert_same_step(got, step(model, tokens, fused=False), GRAPH_RTOL["float64"])

    def test_two_live_forwards_take_two_slots(self, rng):
        model = build()
        tokens = rng.integers(0, 29, size=(2, 9))
        with STEP.held():
            first, second = model.loss(tokens), model.loss(tokens[::-1])
            (first + second).backward()
        grads = [p.grad.copy() for p in model.parameters()]
        for param in model.parameters():
            param.zero_grad()
        model.loss(tokens).backward()
        model.loss(tokens[::-1]).backward()
        for got, want in zip(grads, (p.grad for p in model.parameters())):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_a_stored_weight_replica_is_refused_under_grad(self, rng):
        replica = nn.quantize_for_inference(build("dense").eval(), mode="int8")
        tokens = rng.integers(0, 29, size=(1, 5))
        with pytest.raises(RuntimeError, match="inference-only.*under no_grad"):
            replica(tokens)
        with nn.no_grad():
            assert replica(tokens).shape == (1, 5, 29)
