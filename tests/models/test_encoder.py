"""Encoder classifiers: the three builders, hybrids and the dual encoder."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    DualEncoderClassifier,
    build_fabnet,
    build_fnet,
    build_hybrid_transformer,
    build_model,
    build_transformer,
)


@pytest.fixture
def tokens(tiny_config, rng):
    return rng.integers(0, tiny_config.vocab_size, size=(3, tiny_config.max_len))


class TestBuilders:
    @pytest.mark.parametrize("name", ["transformer", "fnet", "fabnet"])
    def test_logit_shape(self, name, tiny_config, tokens):
        model = build_model(name, tiny_config).eval()
        assert model(tokens).shape == (3, tiny_config.n_classes)

    def test_build_model_unknown(self, tiny_config):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("rnn", tiny_config)

    def test_fabnet_block_kinds(self, tiny_config):
        model = build_fabnet(tiny_config)  # n_total=2, n_abfly=1
        kinds = [b.mixing_kind for b in model.blocks]
        assert kinds == ["fourier", "butterfly_attention"]

    def test_fnet_is_all_fourier(self, tiny_config):
        model = build_fnet(tiny_config)
        assert all(b.mixing_kind == "fourier" for b in model.blocks)

    def test_transformer_is_all_attention(self, tiny_config):
        model = build_transformer(tiny_config)
        assert all(b.mixing_kind == "attention" for b in model.blocks)

    def test_parameter_ordering_fabnet_smallest(self, tiny_config):
        cfg = tiny_config.with_(d_hidden=64, n_heads=4)
        p_trans = build_transformer(cfg).num_parameters()
        p_fnet = build_fnet(cfg).num_parameters()
        p_fab = build_fabnet(cfg.with_(n_abfly=0)).num_parameters()
        assert p_fab < p_fnet < p_trans

    def test_deterministic_given_seed(self, tiny_config, tokens):
        a = build_fabnet(tiny_config).eval()
        b = build_fabnet(tiny_config).eval()
        np.testing.assert_allclose(a(tokens).data, b(tokens).data)


class TestEncoderBehavior:
    def test_rejects_long_sequence(self, tiny_config, rng):
        model = build_fnet(tiny_config)
        bad = rng.integers(0, 8, size=(1, tiny_config.max_len + 1))
        with pytest.raises(ValueError, match="max_len"):
            model(bad)

    def test_rejects_non_2d_tokens(self, tiny_config):
        model = build_fnet(tiny_config)
        with pytest.raises(ValueError, match="batch"):
            model(np.zeros(4, dtype=int))

    @pytest.mark.parametrize("no_grad", [False, True],
                             ids=["graph", "program"])
    @pytest.mark.parametrize("bad,match", [
        ({"tokens": -1}, r"tokens must lie in \[0, 32\)"),  # wrapped to the last row
        ({"tokens": 32}, r"tokens must lie in \[0, 32\)"),  # a bare IndexError
        ({"tokens": 1.7}, "tokens must be integer ids"),  # truncated to 1
        ({"mask": "narrow"}, "mask must be a boolean"),  # a broadcast error
        ({"mask": "batch"}, "mask must be a boolean"),
        ({"mask": "int"}, "mask must be a boolean"),
    ])
    def test_bad_ids_and_masks_refused_and_the_next_call_served(
        self, bad, match, no_grad, tiny_config, tokens
    ):
        """One check for the graph and the program: each refusal names its
        argument, and the next valid call has the logits it had before."""
        import contextlib

        model = build_transformer(tiny_config).eval()
        mask = np.ones(tokens.shape, dtype=bool)
        mask[:, 10:] = False
        scope = nn.no_grad if no_grad else contextlib.nullcontext
        with scope():
            want = model(tokens, mask=mask).data.copy()
            if "tokens" in bad:
                wrong = tokens.astype(type(bad["tokens"]))
                wrong[1, 3] = bad["tokens"]
                call = lambda: model(wrong, mask=mask)  # noqa: E731
            else:
                wrong = {"narrow": mask[:, :-1], "batch": mask[:1],
                         "int": mask.astype(np.int64)}[bad["mask"]]
                call = lambda: model(tokens, mask=wrong)  # noqa: E731
            with pytest.raises(ValueError, match=match):
                call()
            np.testing.assert_array_equal(model(tokens, mask=mask).data, want)

    def test_dual_encoder_refuses_float_ids_too(self, tiny_config, rng):
        model = DualEncoderClassifier(build_fnet(tiny_config)).eval()
        pairs = rng.integers(0, 8, size=(2, 2, tiny_config.max_len)) + 0.5
        with pytest.raises(ValueError, match="integer ids"):
            model(pairs)

    def test_wrong_block_count_rejected(self, tiny_config):
        from repro.models.encoder import EncoderClassifier
        with pytest.raises(ValueError, match="blocks"):
            EncoderClassifier(tiny_config, [], np.random.default_rng(0))

    def test_cls_pooling(self, tiny_config, tokens):
        model = build_fnet(tiny_config.with_(pooling="cls")).eval()
        assert model(tokens).shape == (3, tiny_config.n_classes)

    def test_mask_ignores_padding_mean_pool(self, tiny_config, rng):
        model = build_transformer(tiny_config).eval()
        toks = rng.integers(0, 8, size=(1, tiny_config.max_len))
        mask = np.ones((1, tiny_config.max_len), dtype=bool)
        mask[0, 8:] = False
        out1 = model(toks, mask=mask).data
        toks2 = toks.copy()
        toks2[0, 8:] = (toks2[0, 8:] + 1) % 8  # change only masked tokens
        out2 = model(toks2, mask=mask).data
        np.testing.assert_allclose(out1, out2, atol=1e-8)

    def test_encode_returns_pooled_features(self, tiny_config, tokens):
        model = build_fnet(tiny_config).eval()
        feats = model.encode(tokens)
        assert feats.shape == (3, tiny_config.d_hidden)

    def test_state_dict_round_trip(self, tiny_config, tokens):
        a = build_fabnet(tiny_config).eval()
        b = build_fabnet(tiny_config.with_(seed=99)).eval()
        assert not np.allclose(a(tokens).data, b(tokens).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(tokens).data, b(tokens).data)


class TestHybridTransformer:
    def test_zero_compressed_is_all_attention(self, tiny_config):
        model = build_hybrid_transformer(tiny_config, 0)
        assert all(b.mixing_kind == "attention" for b in model.blocks)

    def test_fully_compressed_is_all_fourier(self, tiny_config):
        model = build_hybrid_transformer(tiny_config, tiny_config.n_total)
        assert all(b.mixing_kind == "fourier" for b in model.blocks)

    def test_compression_starts_from_last_block(self, tiny_config):
        model = build_hybrid_transformer(tiny_config, 1)
        kinds = [b.mixing_kind for b in model.blocks]
        assert kinds == ["attention", "fourier"]

    def test_out_of_range(self, tiny_config):
        with pytest.raises(ValueError, match="out of range"):
            build_hybrid_transformer(tiny_config, tiny_config.n_total + 1)


class TestDualEncoder:
    def test_forward_shape(self, tiny_config, rng):
        model = DualEncoderClassifier(build_fabnet(tiny_config)).eval()
        pairs = rng.integers(0, 8, size=(4, 2, tiny_config.max_len))
        assert model(pairs).shape == (4, tiny_config.n_classes)

    def test_rejects_wrong_shape(self, tiny_config, rng):
        model = DualEncoderClassifier(build_fabnet(tiny_config))
        with pytest.raises(ValueError, match="token pairs"):
            model(rng.integers(0, 8, size=(4, 3, tiny_config.max_len)))

    def test_shared_encoder_weights(self, tiny_config, rng):
        """Swapping identical documents yields features from one tower."""
        model = DualEncoderClassifier(build_fabnet(tiny_config)).eval()
        doc = rng.integers(0, 8, size=(1, tiny_config.max_len))
        pair = np.stack([doc, doc], axis=1)
        out = model(pair)
        assert out.shape == (1, tiny_config.n_classes)
        assert np.isfinite(out.data).all()

    def test_gradients_reach_encoder(self, tiny_config, rng):
        model = DualEncoderClassifier(build_fabnet(tiny_config))
        pairs = rng.integers(0, 8, size=(2, 2, tiny_config.max_len))
        loss = nn.cross_entropy_logits(model(pairs), np.array([0, 1]))
        loss.backward()
        assert model.encoder.token_emb.weight.grad is not None
