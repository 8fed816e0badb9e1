"""The decoder's compiled inference program against its ``Tensor``-graph oracle.

``ButterflyDecoderLM.prefill`` / ``decode_step`` run a flat program of
kernel calls (``repro.models.decode_program``).  The ``Tensor``-graph
version it replaced lives on only as
``conftest.py::reference_incremental``, and the program is held to its
*bytes* — logits and every cache array — over {butterfly, dense} x
{float64, float32} x {fp, int8} x ``s_new`` in {1, 5, prompt} and
drawn ragged row lengths, up to the ``max_len`` edge.  The rest of the
file pins the contract around it: a batched row equals the row run solo
(where the kernels make that true), the program is rebuilt exactly when
what it was built from changes, the kernels' fault points are traversed
as often as before the program existed, and derived state never travels
with a copy or a pickle.
"""

import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.faults import use_faults
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import DecoderKVCache

MAX_LEN = 16
BUILDERS = {"butterfly": build_butterfly_decoder, "dense": build_dense_decoder}
CELLS = [
    (kind, dtype, stored)
    for kind in BUILDERS
    for dtype in ("float64", "float32")
    for stored in (None, *nn.QUANT_MODES)
]
cells = pytest.mark.parametrize("kind,dtype,stored", CELLS)


def build(kind, dtype, stored=None, n_total=2):
    config = ModelConfig(
        vocab_size=32, n_classes=2, max_len=MAX_LEN, d_hidden=16, n_heads=2,
        r_ffn=2, n_total=n_total, seed=3, dtype=dtype,
    )
    model = BUILDERS[kind](config).eval()
    return model if stored is None else nn.quantize_for_inference(model, mode=stored)


#: hypothesis examples reuse one model per cell (and so one program).
shared_model = functools.lru_cache(maxsize=None)(build)


def ragged_cache(model, lengths, seed):
    """A cache whose rows hold ``lengths`` positions of drawn keys/values
    (every slot filled: stale tails must be masked, not trusted)."""
    rng = np.random.default_rng(seed)
    cache = model.make_cache(len(lengths))
    for index in range(cache.n_layers):
        layer = cache.layer(index)
        layer.k[...] = rng.standard_normal(layer.k.shape)
        layer.v[...] = rng.standard_normal(layer.v.shape)
    cache.lengths = np.asarray(lengths, dtype=np.int64)
    return cache


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_cache(got, want):
    assert np.array_equal(got.lengths, want.lengths)
    for index in range(want.n_layers):
        assert_same_bytes(got.layer(index).k, want.layer(index).k)
        assert_same_bytes(got.layer(index).v, want.layer(index).v)


@st.composite
def continuations(draw):
    """``(s_new, lengths, seed)`` with every row's tail inside ``max_len``
    and, half the time, one row pinned to the last slot that fits."""
    s_new = draw(st.sampled_from([1, 5]))
    room = MAX_LEN - s_new
    lengths = draw(st.lists(st.integers(0, room), min_size=1, max_size=4))
    if draw(st.booleans()):
        lengths[draw(st.integers(0, len(lengths) - 1))] = room
    return s_new, lengths, draw(st.integers(0, 2**32 - 1))


class TestByteOracle:
    @cells
    @settings(max_examples=12, deadline=None,
              # the fixture is a stateless function
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=continuations())
    def test_continuation_matches_reference(
        self, kind, dtype, stored, case, reference_incremental
    ):
        s_new, lengths, seed = case
        model = shared_model(kind, dtype, stored)
        tokens = np.random.default_rng(seed).integers(
            0, model.config.vocab_size, size=(len(lengths), s_new))
        cache = ragged_cache(model, lengths, seed)
        oracle_cache = cache.clone()
        got = model.prefill(tokens, cache)
        want = reference_incremental(model, tokens, oracle_cache)
        assert got.dtype == np.dtype(dtype)
        assert_same_bytes(got, want)
        assert_same_cache(cache, oracle_cache)

    @cells
    @pytest.mark.parametrize("batch", [1, 3])
    def test_prompt_then_steps_match_reference(
        self, kind, dtype, stored, batch, rng, reference_incremental
    ):
        model = build(kind, dtype, stored)
        prompt = rng.integers(0, model.config.vocab_size, size=(batch, 9))
        cache, oracle_cache = model.make_cache(batch), model.make_cache(batch)
        logits = model.prefill(prompt, cache)
        assert_same_bytes(
            logits, reference_incremental(model, prompt, oracle_cache))
        for _ in range(MAX_LEN - 9):  # the last step fills slot max_len - 1
            token = logits.argmax(axis=-1)
            logits = model.decode_step(token, cache)
            assert_same_bytes(
                logits,
                reference_incremental(model, token[:, None], oracle_cache))
        assert_same_cache(cache, oracle_cache)
        assert cache.lengths.tolist() == [MAX_LEN] * batch

    @cells
    def test_overflow_raises_and_leaves_the_cache_alone(self, kind, dtype, stored):
        model = shared_model(kind, dtype, stored)
        cache = ragged_cache(model, [3, MAX_LEN - 4], seed=1)
        before = cache.clone()
        with pytest.raises(ValueError, match="exceeds max_len"):
            model.prefill(np.ones((2, 5), dtype=np.int64), cache)
        with pytest.raises(ValueError, match="exceeds max_len"):
            cache.lengths = np.array([3, MAX_LEN])
            model.decode_step(np.ones(2, dtype=np.int64), cache)
        cache.lengths = before.lengths
        assert_same_cache(cache, before)

    def test_ambient_dtype_policy_is_ignored(self, rng):
        """An fp32 model decodes in fp32 — same bytes — whatever the
        ambient policy is; the full-window forward agrees on the dtype."""
        model = build("butterfly", "float32")
        prompt = rng.integers(0, 32, size=(2, 6))
        runs = []
        for ambient in ("float64", "float32"):
            with nn.default_dtype(ambient):
                cache = model.make_cache(2)
                runs.append(model.prefill(prompt, cache))
                runs.append(model.decode_step(prompt[:, 0], cache))
                with nn.no_grad():
                    assert model(prompt).dtype == np.float32
        assert_same_bytes(runs[0], runs[2])
        assert_same_bytes(runs[1], runs[3])
        assert model._program.builds == 1

    def test_training_mode_refuses(self):
        model = build("dense", "float64").train()
        with pytest.raises(RuntimeError, match="inference-only"):
            model.decode_step(np.ones(1, dtype=np.int64), model.make_cache(1))


class TestRowIndependence:
    """Row ``b`` of a batched call has the bytes of the same row run alone.

    This is the projections' contract (a GEMM on the input's own leading
    axes, ``M = s_new`` whatever the batch), so it is pinned where the
    projections are the only thing that could see the batch: fp replicas
    at equal context lengths.  It does not extend further, here or at
    the commit before the program: a ragged batch attends over a key
    view as wide as its longest row, so a shorter row's softmax sums
    associate differently than they do alone, and the stored-weight
    kernels flatten the batch into the GEMM's rows (streaming the weight
    once is their point).  Those cells are held to *token* identity by
    ``tests/test_tier_contract.py`` and the e2e batched-vs-solo oracle.
    """

    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("s_new", [1, 5])
    def test_batched_row_equals_solo_row(self, kind, dtype, s_new, rng):
        model = build(kind, dtype)
        tokens = rng.integers(0, model.config.vocab_size, size=(4, s_new))
        cache = ragged_cache(model, [7, 7, 7, 7], seed=5)
        solos = [cache.select_rows([row]) for row in range(4)]
        batched = model.prefill(tokens, cache)
        for row, solo in enumerate(solos):
            alone = model.prefill(tokens[row:row + 1], solo)
            assert_same_bytes(batched[row:row + 1], alone)
            assert_same_cache(cache.select_rows([row]), solo)


class TestLastPositionPrefill:
    """A prefill computes only what the next token needs: every block
    writes the keys/values of every new position, and past the last
    block's the query side runs at each row's last position alone."""

    @cells
    @pytest.mark.parametrize("n_total", [2, 3])
    def test_matches_the_full_window_forward(self, kind, dtype, stored, n_total, rng):
        model = build(kind, dtype, stored, n_total)
        tokens = rng.integers(0, model.config.vocab_size, size=(3, 9))
        got = model.prefill(tokens, model.make_cache(3))
        with nn.no_grad():
            want = model(tokens).data[:, -1]
        assert got.dtype == want.dtype == np.dtype(dtype)
        tol = 1e-12 if dtype == "float64" else 1e-5
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("kind,stored", [
        ("dense", None), ("dense", "int8"), ("butterfly", None), ("butterfly", "int8")])
    @pytest.mark.parametrize("n_total", [2, 3])
    def test_rows_each_projection_sees(self, kind, stored, n_total, rng):
        """Counted: ``B * S`` rows for every block's K/V and every
        projection before the last block, ``B`` for the last block's Q,
        out, fc1 and fc2 and for the LM head."""
        model = build(kind, "float32", stored, n_total)
        program = model._program.get(model)
        seen = {}

        def counted(name, projection):
            def run(x):
                seen[name] = seen.get(name, 0) + int(np.prod(x.shape[:-1]))
                return projection(x)
            return run

        names = ("q_proj", "k_proj", "v_proj", "out_proj", "fc1", "fc2")

        def wrapped(index, layers, fields):
            return {name: counted(f"{index}.{name}", getattr(layers, name))
                    for name in fields}

        program._blocks = [
            block._replace(
                attention=block.attention._replace(
                    **wrapped(index, block.attention, names[:4])),
                **wrapped(index, block, names[4:]))
            for index, block in enumerate(program._blocks)
        ]
        program._lm_head = counted("lm_head", program._lm_head)
        batch, seq = 3, 7
        model.prefill(
            rng.integers(0, 32, size=(batch, seq)), model.make_cache(batch))
        assert model._program.get(model) is program
        last = n_total - 1
        want = {
            f"{index}.{name}": batch if index == last and name not in (
                "k_proj", "v_proj") else batch * seq
            for index in range(n_total) for name in names
        }
        want["lm_head"] = batch
        assert seen == want


class TestInvalidation:
    """Rebuilt when — and only when — what it was built from changes."""

    def _decode(self, model, tokens):
        cache = model.make_cache(tokens.shape[0])
        model.prefill(tokens, cache)
        return model.decode_step(tokens[:, 0], cache)

    def test_each_weight_change_rebuilds_and_nothing_else_does(
        self, rng, reference_incremental
    ):
        model = build("butterfly", "float64")
        tokens = rng.integers(0, 32, size=(2, 6))
        holder = model._program
        assert holder.builds == 0  # compiled on first use, not at construction

        def decoded_fresh():
            """One more build, and the new program serves the new weights."""
            before = holder.builds
            got = self._decode(model, tokens)
            assert holder.builds == before + 1
            cache = model.make_cache(2)
            reference_incremental(model, tokens, cache)
            want = reference_incremental(model, tokens[:, :1], cache)
            assert_same_bytes(got, want)
            return got

        first = decoded_fresh()
        # Nothing below touches a parameter: same program throughout.
        self._decode(model, tokens)
        model.generate(tokens, 3)
        model.eval()
        with nn.no_grad():
            model(tokens)
        with nn.default_dtype("float32"):
            assert self._decode(model, tokens).dtype == np.float64
        assert holder.builds == 1

        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        model.train()
        model.loss(tokens).backward()
        optimizer.step()
        model.eval()
        stepped = decoded_fresh()
        assert stepped.tobytes() != first.tobytes()

        state = model.state_dict()
        state["blocks.0.norm1.gamma"] = state["blocks.0.norm1.gamma"] * 1.5
        model.load_state_dict(state)
        decoded_fresh()

        stage = model.blocks[1].ffn.fc1.stage_0
        stage.data = stage.data * 0.5  # a rebind: no version bump
        decoded_fresh()

        for param in model.parameters():  # the dtype switch
            param.data = param.data.astype(np.float32)
        assert decoded_fresh().dtype == np.float32
        self._decode(model, tokens)
        assert holder.builds == 5

    def test_swapping_a_layer_rebuilds(self, rng):
        model = build("dense", "float32")
        tokens = rng.integers(0, 32, size=(1, 4))
        before = self._decode(model, tokens)
        stored = nn.quantize_for_inference(model, mode="int8")
        swapped = stored.blocks[0].ffn.fc1
        model.blocks[0].ffn._modules["fc1"] = swapped
        object.__setattr__(model.blocks[0].ffn, "fc1", swapped)
        after = self._decode(model, tokens)
        assert model._program.builds == 2
        assert after.tobytes() != before.tobytes()

    @pytest.mark.parametrize("kind,stored,prefill,decode", [
        # (kernels.matmul, kernels.butterfly_apply) traversals of a
        # 2-block decoder, as counted at the commit before the program;
        # an int8 replica's ladders are its source's frozen ones, so it
        # traverses the fp model's points less the stored LM head's GEMM.
        # The prefill also builds the 12 frozen ladders, in closed form:
        # no GEMM.
        ("butterfly", None, (13, 12), (17, 12)),
        ("dense", None, (13, 0), (17, 0)),
        ("butterfly", "int8", (12, 12), (16, 12)),
        ("dense", "int8", (0, 0), (4, 0)),
    ])
    def test_fault_points_traversed_as_before(self, kind, stored, prefill, decode):
        model = build(kind, "float32", stored)
        cache = model.make_cache(3)
        tokens = np.arange(1, 22).reshape(3, 7)
        spec = ";".join(
            f"kernels.{point}:transient:after=1000000000"
            for point in ("matmul", "butterfly_apply")
        )

        def traversals(call):
            with use_faults(spec) as injector:
                call()
                return tuple(r["hits"] for r in injector.snapshot()["rules"])

        assert traversals(lambda: model.prefill(tokens, cache)) == prefill
        assert traversals(lambda: model.decode_step(tokens[:, 0], cache)) == decode


class TestStoredLayers:
    """A stored dense layer is compiled to a closure over its packed
    blocks, scales and bias: same bytes as the ``Tensor`` graph over a
    long run, and rebuilt when — and only when — one of them is replaced."""

    LONG = 32  # room for a ragged 5-token continuation and 20 steps

    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("stored", nn.QUANT_MODES)
    def test_ragged_prefill_then_twenty_steps_match_reference(
        self, kind, dtype, stored, reference_incremental
    ):
        config = ModelConfig(
            vocab_size=32, n_classes=2, max_len=self.LONG, d_hidden=16,
            n_heads=2, r_ffn=2, n_total=2, seed=3, dtype=dtype,
        )
        model = nn.quantize_for_inference(
            BUILDERS[kind](config).eval(), mode=stored)
        cache = ragged_cache(model, [0, 3, 7], seed=2)
        oracle_cache = cache.clone()
        tokens = np.random.default_rng(11).integers(0, 32, size=(3, 5))
        logits = model.prefill(tokens, cache)
        assert_same_bytes(
            logits, reference_incremental(model, tokens, oracle_cache))
        for _ in range(20):
            token = logits.argmax(axis=-1)
            logits = model.decode_step(token, cache)
            assert_same_bytes(
                logits,
                reference_incremental(model, token[:, None], oracle_cache))
        assert_same_cache(cache, oracle_cache)
        assert cache.lengths.tolist() == [25, 28, 32]

    def test_a_stored_swap_or_a_requantization_rebuilds_exactly_once(
        self, rng, reference_incremental
    ):
        from repro.kernels import quant as QK

        source = build("dense", "float32")
        model = nn.quantize_for_inference(source, mode="int8")
        holder, tokens = model._program, rng.integers(0, 32, size=(2, 6))

        def decoded(expected_builds):
            cache = model.make_cache(2)
            model.prefill(tokens, cache)
            got = model.decode_step(tokens[:, 0], cache)
            assert holder.builds == expected_builds
            oracle_cache = model.make_cache(2)
            reference_incremental(model, tokens, oracle_cache)
            assert_same_bytes(got, reference_incremental(
                model, tokens[:, :1], oracle_cache))
            return got

        first = decoded(1)
        decoded(1)
        # one stored layer swapped for a twin over other weights
        attn = model.blocks[0].mixer
        twin = nn.QuantizedLinear(
            *QK.quantize_per_channel(0.5 * source.blocks[0].mixer.v_proj.weight.data),
            attn.v_proj.bias)
        attn._modules["v_proj"] = twin
        object.__setattr__(attn, "v_proj", twin)
        swapped = decoded(2)
        decoded(2)
        assert swapped.tobytes() != first.tobytes()
        # a layer re-quantized where it stands: new codes and new scales
        # are one rebuild, not two
        layer = model.blocks[1].ffn.fc2
        codes, scales = QK.quantize_per_channel(
            0.5 * source.blocks[1].ffn.fc2.weight.data)
        layer.q_weight = QK.pack_weight(codes, scales, layer.bias)
        layer.scales = scales
        requantized = decoded(3)
        decoded(3)
        assert requantized.tobytes() != swapped.tobytes()
        # and a new replica compiles its own program, once
        again = nn.quantize_for_inference(source, mode="int8")
        assert again._program.builds == 0
        again.prefill(tokens, again.make_cache(2))
        again.decode_step(tokens[:, 0], again.make_cache(2))
        assert again._program.builds == 1


class TestDerivedStateNeverTravels:
    def test_copies_and_pickles_start_empty(self, rng):
        model = build("butterfly", "float64")
        tokens = rng.integers(0, 32, size=(2, 5))
        want = model.prefill(tokens, model.make_cache(2))
        assert model._program.builds == 1
        for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert twin._program.builds == 0 and twin._program._program is None
            assert_same_bytes(twin.prefill(tokens, twin.make_cache(2)), want)
            assert twin._program.builds == 1

    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize("mode", nn.QUANT_MODES)
    def test_replica_of_a_decoded_model_runs_its_own_stored_ops(
        self, kind, mode, rng, monkeypatch
    ):
        from repro.kernels import quant as QK

        source = build(kind, "float32")
        tokens = rng.integers(0, 32, size=(2, 5))
        fp_logits = source.prefill(tokens, source.make_cache(2))
        replica = nn.quantize_for_inference(source, mode=mode)
        fresh = nn.quantize_for_inference(build(kind, "float32"), mode=mode)

        calls = []
        real = QK.quantized_linear
        monkeypatch.setattr(
            QK, "quantized_linear",
            lambda *a, **k: (calls.append(a[1]), real(*a, **k))[1])
        got = replica.prefill(tokens, replica.make_cache(2))
        # 13 projections: 12 in the blocks plus the (always dense) LM head;
        # a butterfly decoder's 12 ladders are not stored.
        ladders = 12 if kind == "butterfly" else 0
        assert len(calls) == 13 - ladders
        assert_same_bytes(got, fresh.prefill(tokens, fresh.make_cache(2)))
        assert got.tobytes() != fp_logits.tobytes()


def test_cache_geometry_mismatch_is_rejected():
    model = build("dense", "float64")
    with pytest.raises(ValueError, match="batch mismatch"):
        model.decode_step(np.ones(2, dtype=np.int64), model.make_cache(3))
    small = DecoderKVCache(2, 1, 2, 8, max_len=4, dtype=np.float64)
    small.lengths = np.array([4])
    with pytest.raises(ValueError, match="exceeds max_len 4"):
        model.decode_step(np.ones(1, dtype=np.int64), small)
