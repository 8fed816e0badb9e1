"""quantize_for_inference: structure, drift bounds, memory, training guard."""

import numpy as np
import pytest

from repro import kernels, nn, telemetry
from repro.models import (
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
    build_transformer,
)
from repro.nn import (
    QuantizedLinear,
    quantize_for_inference,
    weight_memory_bytes,
)

#: Documented logit-drift bound of int8 weight quantization on the tiny
#: decoder configs below, relative to the fp logit scale.  The e2e
#: harness's ``decode_int8`` oracle holds the same bound on its replica.
REL_DRIFT_BOUND = 0.05


def _decoder_config(dtype="float64"):
    return ModelConfig(
        vocab_size=28, n_classes=2, max_len=24, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0, dtype=dtype,
    )


def _rel_drift(q_logits, fp_logits):
    return np.abs(q_logits - fp_logits).max() / np.abs(fp_logits).max()


@pytest.mark.parametrize("builder", [build_dense_decoder, build_butterfly_decoder])
class TestDecoderQuantization:
    def test_structure_swapped_and_original_untouched(self, builder, rng):
        model = builder(_decoder_config()).eval()
        before = model.state_dict()
        quantized = quantize_for_inference(model)
        # original: still fp modules, identical weights
        assert isinstance(model.lm_head, nn.Linear)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        # replica: every dense projection stored, every ladder left fp
        assert isinstance(quantized.lm_head, QuantizedLinear)
        attn = quantized.blocks[0].mixer
        expected = nn.ButterflyLinear if model.butterfly else QuantizedLinear
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.out_proj):
            assert isinstance(proj, expected)

    def test_logit_drift_within_documented_bound(self, builder, rng):
        config = _decoder_config()
        model = builder(config).eval()
        quantized = quantize_for_inference(model)
        tokens = rng.integers(1, config.vocab_size, size=(4, 12))
        with nn.no_grad():
            fp = model(tokens).data
            q = quantized(tokens).data
        assert _rel_drift(q, fp) < REL_DRIFT_BOUND

    def test_float32_models_quantize_too(self, builder, rng):
        config = _decoder_config(dtype="float32")
        with config.dtype_context():
            model = builder(config).eval()
            quantized = quantize_for_inference(model)
            tokens = rng.integers(1, config.vocab_size, size=(2, 8))
            with nn.no_grad():
                fp = model(tokens).data
                q = quantized(tokens).data
        assert q.dtype == np.float32
        assert _rel_drift(q, fp) < REL_DRIFT_BOUND
        # Dense: under half the fp32 footprint (0.37 here; codes stored at
        # fp32 width would put it above 1).  Butterfly: only the LM head
        # is stored, its ladders keep their fp bytes.
        ratio = weight_memory_bytes(quantized) / weight_memory_bytes(model)
        assert ratio < (1.0 if model.butterfly else 0.5)


class TestMemoryFootprint:
    def test_dense_weight_bytes_shrink_over_60_percent(self):
        """Dense decoder: GEMM weights dominate, int8 cuts > 73% of bytes."""
        config = ModelConfig(
            vocab_size=28, n_classes=2, max_len=32, d_hidden=128,
            n_heads=4, r_ffn=4, n_total=2, seed=0,
        )
        model = build_dense_decoder(config).eval()
        quantized = quantize_for_inference(model)
        ratio = weight_memory_bytes(quantized) / weight_memory_bytes(model)
        assert ratio < 0.27  # also under half precision storage's 0.2708 here

    def test_no_dense_weight_is_copied_only_to_be_dropped(self):
        """The replica shares the source's Linears until it swaps them out,
        and each weight is quantized per block of channels: on the
        ``decode_int8`` benchmark's decoder one call's traced peak stays
        within 1 MiB of the replica's own weight bytes (a whole-model
        copy alone is all the source's dense-weight bytes; the quantizer's
        whole-weight temporaries added ~7 MiB), and the source keeps its
        state and its training flags."""
        import tracemalloc

        config = ModelConfig(
            vocab_size=256, n_classes=2, max_len=96, d_hidden=512,
            n_heads=8, r_ffn=4, n_total=2, seed=0, dtype="float32",
        )
        # The modules a first quantization imports are not the replica's.
        quantize_for_inference(build_dense_decoder(_decoder_config()))
        model = build_dense_decoder(config)  # training mode, as trained
        state = {name: value.copy() for name, value in model.state_dict().items()}
        modules = [model, *(module for _, module in _modules(model))]
        dense = sum(module.weight.data.nbytes for module in modules
                    if isinstance(module, nn.Linear))
        tracemalloc.start()
        try:
            quantized = quantize_for_inference(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense
        assert peak <= weight_memory_bytes(quantized) + (1 << 20)
        assert all(module.training for module in modules)
        assert not any(module.training
                       for module in [quantized, *(m for _, m in _modules(quantized))])
        assert model.state_dict().keys() == state.keys()
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state[name])


class TestEncoderQuantization:
    @pytest.mark.parametrize("builder", [build_transformer, build_fabnet])
    def test_encoder_classifiers_quantize(self, builder, tiny_config, rng):
        model = builder(tiny_config).eval()
        quantized = quantize_for_inference(model)
        tokens = rng.integers(1, tiny_config.vocab_size, size=(4, tiny_config.max_len))
        with nn.no_grad():
            fp = model(tokens).data
            q = quantized(tokens).data
        assert _rel_drift(q, fp) < REL_DRIFT_BOUND

    def test_model_without_linears_rejected(self):
        with pytest.raises(ValueError, match="no Linear"):
            quantize_for_inference(nn.LayerNorm(8))

    @pytest.mark.parametrize("container", [nn.Sequential, nn.ModuleList])
    def test_containers_swap_their_items(self, container, rng):
        """Layers inside Sequential/ModuleList must actually be replaced.

        Container forwards iterate an internal ``_items`` list, not the
        ``_modules`` registry — a swap that missed ``_items`` would keep
        running the fp layer while reporting it as quantized.
        """
        model = container(nn.Linear(64, 64, rng=rng), nn.Linear(64, 64, rng=rng)) \
            if container is nn.Sequential else container(
                [nn.Linear(64, 64, rng=rng), nn.Linear(64, 64, rng=rng)])
        quantized = quantize_for_inference(model)
        for item in quantized._items:
            assert isinstance(item, QuantizedLinear)
        if container is nn.Sequential:
            x = nn.Tensor(rng.normal(size=(4, 64)))
            with nn.no_grad():
                fp = model(x).data
                q = quantized(x).data
            drift = np.abs(q - fp).max()
            assert 0.0 < drift < 0.05 * np.abs(fp).max()  # quantized, and close


class TestStorageTierModes:
    """quantize_for_inference(mode=...): int8 is the one stored format.

    What the format owes regardless of precision (training guard,
    kernel/module parity, byte accounting, ...) is in
    ``tests/test_tier_contract.py``.
    """

    def test_mode_validated(self):
        model = build_dense_decoder(_decoder_config()).eval()
        for mode in ("int2", f"int{4}"):  # never existed / retired
            with pytest.raises(ValueError, match="mode"):
                quantize_for_inference(model, mode=mode)

    def test_half_precision_storage_is_refused_naming_int8(self):
        model = build_dense_decoder(_decoder_config()).eval()
        with pytest.raises(ValueError, match="'int8'.*got 'fp16'"):
            quantize_for_inference(model, mode="fp16")

    def test_the_mode_is_refused_before_the_model_is_copied(self, monkeypatch):
        """A half-precision request fails on its name alone: nothing is
        copied, and a non-finite weight it would have met is not what
        the caller is told about."""
        from repro.nn import quantized

        model = build_dense_decoder(_decoder_config()).eval()
        model.lm_head.weight.data[0, 0] = np.nan
        monkeypatch.setattr(
            quantized.copy, "deepcopy", lambda *a, **k: pytest.fail("copied"))
        with pytest.raises(ValueError, match="'int8'.*got 'fp16'"):
            quantize_for_inference(model, mode="fp16")

    def test_quant_modes_is_the_tier_tuple(self):
        assert nn.QUANT_MODES == ("int8",)


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may stand in for the refusal
class TestUnstorableWeightsRefused:
    """A weight int8 would turn into garbage (``nan`` codes of 0, an
    ``inf`` scale over all-zero codes) is refused by layer path before
    anything is swapped — never returned as a replica."""

    @pytest.mark.parametrize("builder,path,poison", [
        (build_dense_decoder, "blocks.0.ffn.fc1",
         lambda m: m.blocks[0].ffn.fc1.weight),
        (build_dense_decoder, "lm_head", lambda m: m.lm_head.weight),
        (build_butterfly_decoder, "lm_head", lambda m: m.lm_head.weight),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", nn.QUANT_MODES)
    def test_non_finite_weight_names_its_layer(
        self, builder, path, poison, value, mode
    ):
        model = builder(_decoder_config()).eval()
        poison(model).data[1, 2] = value
        before = {k: v.copy() for k, v in model.state_dict().items()}
        with pytest.raises(ValueError, match=f"^{path}: .*non-finite"):
            quantize_for_inference(model, mode=mode)
        # the source model is untouched: still fp layers, the same bytes
        assert isinstance(model.lm_head, nn.Linear)
        assert isinstance(model.blocks[0].ffn.fc1, (nn.Linear, nn.ButterflyLinear))
        for name, array in model.state_dict().items():
            assert array.tobytes() == before[name].tobytes()

    def test_a_large_finite_weight_is_stored(self):
        """int8's per-channel scale covers any finite range."""
        model = build_dense_decoder(_decoder_config()).eval()
        model.blocks[0].ffn.fc1.weight.data[0, 0] = 1e6
        layer = quantize_for_inference(model, mode="int8").blocks[0].ffn.fc1
        assert np.isfinite(layer.scales).all()
        assert layer.scales[0] == np.float32(1e6 / 127)

    def test_the_first_bad_layer_stops_every_swap(self, monkeypatch):
        """Checked in a walk of its own: the last layer's ``nan`` is found
        before the first layer is stored."""
        from repro.nn import quantized

        model = build_dense_decoder(_decoder_config()).eval()
        model.lm_head.weight.data[0, 0] = np.nan
        stored = []
        monkeypatch.setattr(
            quantized, "_stored_twin",
            lambda *args, **kwargs: stored.append(args) or pytest.fail("swapped"))
        with pytest.raises(ValueError, match="^lm_head: "):
            quantize_for_inference(model)
        assert stored == []


def _modules(module, prefix=""):
    """``(path, module)`` of every module below ``module``."""
    for name, child in module._modules.items():
        yield prefix + name, child
        yield from _modules(child, f"{prefix}{name}.")


def _ladder_spans(run):
    """``run()``'s ``kernels.butterfly_apply`` spans, and the frozen-ladder
    cache's ``(builds, hits)`` growth across it."""
    from repro.kernels.grouped import plan_cache_stats

    before = plan_cache_stats()
    telemetry.clear_all()
    try:
        with telemetry.use_telemetry(True):
            run()
        spans = [record for record in telemetry.span_records()
                 if record.name == "kernels.butterfly_apply"]
    finally:
        telemetry.clear_all()
    after = plan_cache_stats()
    return spans, tuple(after[k] - before[k] for k in ("frozen_builds", "frozen_hits"))


class TestButterflyLayersStayFp:
    """int8 stores dense weights only: a replica's butterfly layers are its
    source's ladders, run through their frozen operators like the fp
    model's, and its Linear layers are stored."""

    @pytest.fixture(params=["butterfly_decoder", "fabnet"])
    def pair(self, request):
        config = _decoder_config("float32").with_(n_abfly=1)
        builder = {"butterfly_decoder": build_butterfly_decoder,
                   "fabnet": build_fabnet}[request.param]
        with config.dtype_context():
            model = builder(config).eval()
        return model, quantize_for_inference(model)

    def test_ladders_kept_and_linears_stored(self, pair):
        model, replica = pair
        source, stored = dict(_modules(model)), dict(_modules(replica))
        assert source.keys() == stored.keys()
        kinds = {type(layer) for layer in source.values()}
        assert {nn.Linear, nn.ButterflyLinear} <= kinds
        for path, layer in source.items():
            twin = stored[path]
            if isinstance(layer, nn.Linear):
                assert isinstance(twin, QuantizedLinear), path
            elif isinstance(layer, nn.ButterflyLinear):
                assert type(twin) is nn.ButterflyLinear and twin is not layer, path
                assert [s.data.tobytes() for s in twin.stage_parameters()] == [
                    s.data.tobytes() for s in layer.stage_parameters()], path

    def test_replica_runs_the_frozen_ladders(self, pair, rng):
        model, replica = pair
        ladders = sum(isinstance(layer, nn.ButterflyLinear)
                      for _, layer in _modules(replica))
        config = model.config
        tokens = rng.integers(1, config.vocab_size, size=(2, config.max_len))
        if hasattr(replica, "decode_step"):
            cache = replica.make_cache(2)
            spans, (builds, _) = _ladder_spans(
                lambda: replica.prefill(tokens[:, :5], cache))
            assert builds == ladders  # each ladder froze once, for the program
            step, (builds, _) = _ladder_spans(
                lambda: replica.decode_step(tokens[:, 5], cache))
            assert builds == 0 and len(step) == ladders
            spans += step
        else:
            with nn.no_grad():
                spans, (builds, _) = _ladder_spans(lambda: replica(tokens))
            assert builds == ladders
        # the Tensor graph asks each layer's cache again: every one hits
        with kernels.use_fused(False), nn.no_grad():
            more, (builds, hits) = _ladder_spans(lambda: replica(tokens))
        assert builds == 0 and hits == ladders
        assert spans and {span.attrs["path"] for span in spans + more} == {"frozen"}
