"""The encoder's compiled ``no_grad`` forward against the ``Tensor`` graph.

Under ``no_grad``, with the fused kernels on,
``EncoderClassifier.encode`` / ``forward`` run a flat program of kernel
calls over buffers the program owns (``repro.models.encode_program``).
The ``Tensor`` graph it stands in for is still there — it is the
``use_fused(False)`` path and the oracle of both programs — so the
program is held to it directly, at 1e-5 (fp32) / 1e-12 (fp64), over
{transformer, fnet, fabnet, hybrid} x {fp32, fp64} x {mask, none} x
{cls, mean} x {odd, even seq} and the stored-weight replicas.  The rest
of the file pins the contract around it: which calls take the program
and which the graph, that it is rebuilt
exactly when what it was built from changes, that derived state never
travels with a copy or a pickle, that what it returns is the caller's,
that threads do not share buffers — and the allocation gate: a forward
at a steady shape allocates nothing large and takes no page fault.
"""

import copy
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro import kernels, nn
from repro.hardware.quantize import accuracy_under_fp16
from repro.models.encode_program import WORKSPACE
from repro.models import (
    DualEncoderClassifier,
    ModelConfig,
    build_fabnet,
    build_fnet,
    build_hybrid_transformer,
    build_transformer,
)

MAX_LEN = 16
BUILDERS = {
    "transformer": build_transformer,
    "fnet": build_fnet,
    "fabnet": build_fabnet,
    "hybrid": lambda config: build_hybrid_transformer(config, 1),
}
#: program vs the graph: the kernels against the ops they stand in for.
GRAPH_RTOL = {"float32": 1e-5, "float64": 1e-12}


def build(kind="fabnet", dtype="float64", **changes):
    config = ModelConfig(
        vocab_size=32, n_classes=3, max_len=MAX_LEN, d_hidden=16, n_heads=2,
        r_ffn=2, n_total=2, n_abfly=1, seed=5, dtype=dtype,
    ).with_(**changes)
    return BUILDERS[kind](config).eval()


def inputs(rng, batch=3, seq=MAX_LEN, masked=False):
    tokens = rng.integers(0, 32, size=(batch, seq))
    mask = None
    if masked:
        mask = np.arange(seq)[None, :] < rng.integers(1, seq + 1, size=(batch, 1))
    return tokens, mask


def program_logits(model, tokens, mask=None):
    with nn.no_grad():
        return model(tokens, mask=mask).data


def graph_logits(model, tokens, mask=None):
    """The ``Tensor`` graph (grad enabled)."""
    with model._dtype_context():
        return model._graph(*model._validated(tokens, mask), True).data


def assert_close(got, want, rtol):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestAgainstTheGraph:
    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    @pytest.mark.parametrize("seq", [MAX_LEN, MAX_LEN - 3])
    def test_logits_match_the_graph(
        self, kind, dtype, masked, pooling, seq, rng
    ):
        model = build(kind, dtype, pooling=pooling)
        tokens, mask = inputs(rng, seq=seq, masked=masked)
        got = program_logits(model, tokens, mask)
        assert got.dtype == np.dtype(dtype)
        assert_close(got, graph_logits(model, tokens, mask), GRAPH_RTOL[dtype])
        assert model._program.builds == 1

    @pytest.mark.parametrize("kind", ["transformer", "fabnet"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", nn.QUANT_MODES)
    def test_stored_weight_replicas_run_the_program(self, kind, dtype, mode, rng):
        replica = nn.quantize_for_inference(build(kind, dtype), mode=mode)
        tokens, mask = inputs(rng, masked=True)
        got = program_logits(replica, tokens, mask)
        assert replica._program.builds == 1
        assert_close(got, graph_logits(replica, tokens, mask), GRAPH_RTOL[dtype])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dual_encoder_first_tower_survives_the_second(self, dtype, rng):
        """Two ``encode`` calls back to back through one workspace: the
        first call's features are the caller's, not a view of it."""
        model = DualEncoderClassifier(build("fabnet", dtype)).eval()
        pairs = rng.integers(0, 32, size=(3, 2, MAX_LEN))
        with nn.no_grad():
            got = model(pairs).data
            first = model.encoder.encode(pairs[:, 0]).data
            kept = first.copy()
            model.encoder.encode(pairs[:, 1])
        np.testing.assert_array_equal(first, kept)
        assert model.encoder._program.builds == 1
        assert_close(got, model(pairs).data, GRAPH_RTOL[dtype])

    def test_chunked_ladders_and_rectangular_folds(self, rng):
        """``d_hidden = 256`` is past the dense-by-area budget: the frozen
        ladders run chunked, through ``out=`` all the same."""
        model = build("fabnet", "float32", max_len=8, d_hidden=256, r_ffn=4)
        tokens, _ = inputs(rng, batch=2, seq=8)
        assert_close(program_logits(model, tokens),
                     graph_logits(model, tokens), GRAPH_RTOL["float32"])


class TestDispatch:
    """Fused calls run a program, ``no_grad`` ones the inference program
    and recorded ones the training program; unfused calls record the
    graph, and nothing else selects between them."""

    def test_grad_mode_picks_the_program_and_unfused_takes_the_graph(self, rng):
        model = build("fabnet")
        tokens, _ = inputs(rng)
        with mock.patch.object(model, "_graph", side_effect=AssertionError):
            recorded = model(tokens)
        assert recorded._parents == tuple(model.parameters())
        assert (model._program.builds, model._train_program.builds) == (0, 1)
        with kernels.use_fused(False):
            assert len(model(tokens)._parents) < len(recorded._parents)
            with nn.no_grad():
                model(tokens)
        assert (model._program.builds, model._train_program.builds) == (0, 1)
        with nn.no_grad():
            out = model(tokens)
        assert model._program.builds == 1 and not out._parents

    def test_training_mode_takes_the_program(self, rng):
        model = build("fnet").train()
        tokens, _ = inputs(rng)
        with nn.no_grad():
            model(tokens)
        assert model._program.builds == 1

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_training_mode_changes_no_logit(self, kind, rng):
        """No layer reads the mode: a training forward is the eval one."""
        model = build(kind)
        tokens, mask = inputs(rng, masked=True)
        evaluated = graph_logits(model, tokens, mask)
        trained = graph_logits(model.train(), tokens, mask)
        assert trained.tobytes() == evaluated.tobytes()

    def test_ambient_dtype_policy_is_ignored(self, rng):
        model = build("fabnet", "float32")
        tokens, mask = inputs(rng, masked=True)
        runs = []
        for ambient in ("float64", "float32"):
            with nn.default_dtype(ambient):
                runs.append(program_logits(model, tokens, mask))
        assert runs[0].dtype == np.float32
        assert runs[0].tobytes() == runs[1].tobytes()
        assert model._program.builds == 1


class TestInvalidation:
    """Rebuilt when — and only when — what it was built from changes."""

    def test_each_weight_change_rebuilds_and_nothing_else_does(self, rng):
        model = build("fabnet", "float64")
        tokens, mask = inputs(rng, masked=True)
        holder = model._program
        assert holder.builds == 0  # compiled on first use, not at construction

        def served_fresh():
            """One more build, and the new program serves the new weights."""
            before = holder.builds
            got = program_logits(model, tokens, mask)
            assert holder.builds == before + 1
            assert_close(got, graph_logits(model, tokens, mask), 1e-12)
            return got

        first = served_fresh()
        # Nothing below touches a parameter: same program throughout.
        program_logits(model, tokens[:1, :5])
        with nn.no_grad():
            model.encode(tokens)
        model.train().eval()
        graph_logits(model, tokens)
        with nn.default_dtype("float32"):
            assert program_logits(model, tokens).dtype == np.float64
        assert holder.builds == 1

        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        nn.cross_entropy_logits(model(tokens), np.array([0, 1, 2])).backward()
        optimizer.step()
        assert served_fresh().tobytes() != first.tobytes()

        state = model.state_dict()
        state["blocks.0.norm1.gamma"] = state["blocks.0.norm1.gamma"] * 1.5
        model.load_state_dict(state)
        served_fresh()

        stage = model.blocks[1].ffn.fc1.stage_0
        stage.data = stage.data * 0.5  # a rebind: no version bump
        served_fresh()

        for param in model.parameters():  # the dtype switch
            param.data = param.data.astype(np.float32)
        before = holder.builds
        assert program_logits(model, tokens, mask).dtype == np.float32
        program_logits(model, tokens, mask)
        assert holder.builds == before + 1

    def test_fp16_rounding_round_trip_rebuilds_both_ways(self, rng):
        """``accuracy_under_fp16`` rebinds every ``.data`` to its rounded
        copy and restores the weights: the rounded forward must not be
        served from the exact weights' program, nor the next exact one
        from the rounded weights'."""
        model = build("fabnet", "float64")
        tokens, _ = inputs(rng)
        exact = program_logits(model, tokens)
        report = accuracy_under_fp16(model, tokens, np.zeros(3, dtype=int))
        assert report["max_logit_error"] > 0.0
        np.testing.assert_array_equal(program_logits(model, tokens), exact)
        assert model._program.builds == 3  # exact (served as built), rounded, restored

    def test_swapping_a_layer_rebuilds(self, rng):
        model = build("transformer", "float32")
        tokens, _ = inputs(rng)
        before = program_logits(model, tokens)
        stored = nn.quantize_for_inference(model, mode="int8")
        swapped = stored.blocks[0].ffn.fc1
        model.blocks[0].ffn._modules["fc1"] = swapped
        object.__setattr__(model.blocks[0].ffn, "fc1", swapped)
        after = program_logits(model, tokens)
        assert model._program.builds == 2
        assert after.tobytes() != before.tobytes()

    def test_copies_and_pickles_start_empty(self, rng):
        model = build("fabnet", "float64")
        tokens, mask = inputs(rng, masked=True)
        want = program_logits(model, tokens, mask)
        assert model._program.builds == 1
        for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert twin._program.builds == 0 and twin._program._program is None
            np.testing.assert_array_equal(
                program_logits(twin, tokens, mask), want)
            assert twin._program.builds == 1


class TestOwnership:
    def test_returned_arrays_are_the_callers(self, rng):
        """Scribbling on what a call returned changes no later call."""
        model = build("fabnet", "float32")
        tokens, mask = inputs(rng, masked=True)
        with nn.no_grad():
            want = model(tokens, mask=mask).data.copy()
            for call in (model, model.encode):
                call(tokens, mask=mask).data[...] = np.nan
            np.testing.assert_array_equal(model(tokens, mask=mask).data, want)

    @pytest.mark.parametrize("kind", ["fabnet", "transformer"])
    def test_concurrent_threads_get_their_solo_bytes(self, kind, rng):
        """More threads than cores forward different inputs through one
        model at once; the workspace and the kernels' scratch are per
        thread, so none sees another's."""
        model = build(kind, "float32")
        batches = [inputs(rng, batch=2, masked=True) for _ in range(3)]
        solo = [program_logits(model, *batch) for batch in batches]
        results = [[] for _ in batches]
        barrier = threading.Barrier(len(batches))

        def forward(index):
            tokens, mask = batches[index]
            barrier.wait(timeout=10)
            for _ in range(60):
                results[index].append(model(tokens, mask=mask).data)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        # no_grad is process-wide state: entered once, around the threads.
        try:
            with nn.no_grad():
                threads = [threading.Thread(target=forward, args=(i,))
                           for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(solo, results):
            assert len(got) == 60
            assert all(out.tobytes() == want.tobytes() for out in got)
        assert model._program.builds == 1
        # The program path enters no process-wide context: interleaved
        # exits would otherwise leave the fp32 policy behind.
        assert kernels.get_default_dtype() == np.float64

    def test_shrinking_then_growing_reuses_the_grown_buffers(self, rng):
        model = build("fabnet", "float32")
        large, small = inputs(rng, batch=3)[0], inputs(rng, batch=1, seq=5)[0]
        want = program_logits(model, large)
        pool = WORKSPACE._tls.pool
        grown = {key: buf.ctypes.data for key, buf in pool.items()}
        assert grown
        want_small = graph_logits(model, small)
        for _ in range(2):
            assert_close(program_logits(model, small), want_small, 1e-5)
            np.testing.assert_array_equal(program_logits(model, large), want)
        assert {key: buf.ctypes.data for key, buf in pool.items()} == grown


class TestAllocationGate:
    """``encode_long``'s shape, steady state: nothing large is allocated.

    Stored-weight replicas are exempt: their layers' ``apply`` owns its
    output, so every projection's activation is a fresh array.
    """

    @pytest.fixture(scope="class")
    def steady(self):
        config = ModelConfig(
            vocab_size=64, n_classes=2, max_len=1024, d_hidden=128, n_heads=4,
            r_ffn=4, n_total=2, n_abfly=1, dtype="float32", seed=0,
        )
        model = build_fabnet(config).eval()
        batches = np.random.default_rng(0).integers(0, 64, size=(4, 1, 1024))

        def forward(index):
            return program_logits(model, batches[index % len(batches)])

        for index in range(3):
            forward(index)
        return forward

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt is only meaningful on Linux")
    def test_steady_forwards_take_no_page_faults(self, steady):
        """The ``Tensor`` graph takes ~3400 minor faults per forward here
        (glibc trims and regrows the heap under its 0.5-2 MB arrays)."""
        import resource

        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for index in range(20):
            steady(index)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 40, f"{faults} minor faults over 20 steady forwards"

    def test_steady_forward_allocates_under_256_kb(self, steady):
        """Peak traced memory over one forward (the graph's is several MB)."""
        tracemalloc.start()
        try:
            steady(0)
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            steady(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 256 * 1024, f"{peak - baseline} bytes"
