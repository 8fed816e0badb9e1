"""Full functional accelerator vs the software models (paper Appendix C)."""

import numpy as np
import pytest

from repro.hardware.config import AcceleratorConfig
from repro.hardware.functional import ButterflyAccelerator, PostProcessor
from repro.models import (
    ModelConfig,
    build_fabnet,
    build_fnet,
    build_transformer,
)


@pytest.fixture
def fab_config():
    return ModelConfig(
        vocab_size=32, n_classes=4, max_len=16, d_hidden=16, n_heads=2,
        r_ffn=2, n_total=2, n_abfly=1, seed=3,
    )


@pytest.fixture
def accel():
    return ButterflyAccelerator(AcceleratorConfig(pbe=1, pbu=4, pae=2, pqk=4, psv=4))


class TestCrossValidation:
    def test_fabnet_matches_software(self, fab_config, accel, rng):
        """The Appendix C experiment: accelerator output == model output."""
        model = build_fabnet(fab_config).eval()
        tokens = rng.integers(0, 32, size=(2, 16))
        hw = accel.run_encoder(model, tokens)
        sw = model(tokens).data
        np.testing.assert_allclose(hw, sw, atol=1e-9)

    def test_all_fbfly_model(self, fab_config, accel, rng):
        model = build_fabnet(fab_config.with_(n_abfly=0)).eval()
        tokens = rng.integers(0, 32, size=(2, 16))
        np.testing.assert_allclose(
            accel.run_encoder(model, tokens), model(tokens).data, atol=1e-9
        )

    def test_all_abfly_model(self, fab_config, accel, rng):
        model = build_fabnet(fab_config.with_(n_abfly=2)).eval()
        tokens = rng.integers(0, 32, size=(1, 16))
        np.testing.assert_allclose(
            accel.run_encoder(model, tokens), model(tokens).data, atol=1e-9
        )

    def test_trained_model_still_matches(self, fab_config, accel, rng):
        """Cross-validation holds after weights move from initialization."""
        from repro.data import load_task
        from repro.training import train_model_on_task

        ds = load_task("text", n_samples=80, seq_len=16, seed=0)
        model = build_fabnet(fab_config.with_(vocab_size=ds.vocab_size,
                                              n_classes=ds.n_classes))
        train_model_on_task(model, ds, epochs=1, lr=3e-3)
        model.eval()
        tokens = ds.x_test[:2]
        np.testing.assert_allclose(
            accel.run_encoder(model, tokens), model(tokens).data, atol=1e-9
        )

    def test_matches_software_at_the_papers_sequence_length(self, rng):
        """The benchmark's ``encode_long`` shape (L=1024, d=128, one FBfly
        + one ABfly) in float64, one sample through every engine."""
        from repro import nn

        config = ModelConfig(
            vocab_size=64, n_classes=2, max_len=1024, d_hidden=128, n_heads=4,
            r_ffn=4, n_total=2, n_abfly=1, dtype="float64", seed=0,
        )
        model = build_fabnet(config).eval()
        tokens = rng.integers(0, 64, size=(1, 1024))
        accel = ButterflyAccelerator(AcceleratorConfig(pqk=8, psv=8))
        hw = accel.run_encoder(model, tokens)
        with config.dtype_context(), nn.no_grad():
            sw = model(tokens).data
        assert np.abs(hw - sw).max() <= 1e-9
        assert accel.trace.bank_conflicts == 0

        def pair_ops(vectors, n):
            return vectors * (n // 2) * (n.bit_length() - 1)

        seq, d, ffn = 1024, 128, 4 * 128
        ffn_ops = 2 * pair_ops(seq, ffn)  # fc1 and fc2 both pad to 512
        assert accel.trace.fft_pair_ops == pair_ops(seq, d) + pair_ops(d, seq)
        assert accel.trace.butterfly_pair_ops == 2 * ffn_ops + 4 * pair_ops(seq, d)
        assert (accel.trace.butterfly_pair_ops + accel.trace.fft_pair_ops
                == accel.engine.cumulative_stats.pair_ops == 12_386_304)


class TestRejectsForeignWorkloads:
    def test_vanilla_transformer_rejected(self, fab_config, accel, rng):
        model = build_transformer(fab_config).eval()
        with pytest.raises(TypeError, match="baseline"):
            accel.run_encoder(model, rng.integers(0, 32, size=(1, 16)))

    def test_fnet_dense_ffn_rejected(self, fab_config, accel, rng):
        model = build_fnet(fab_config).eval()
        with pytest.raises(TypeError, match="butterfly FFN"):
            accel.run_encoder(model, rng.integers(0, 32, size=(1, 16)))

    def test_tokens_must_be_2d(self, fab_config, accel):
        model = build_fabnet(fab_config).eval()
        with pytest.raises(ValueError, match="batch"):
            accel.run_encoder(model, np.zeros(16, dtype=int))


    @pytest.mark.parametrize("tokens, match", [
        ([[-1] * 16], r"tokens must lie in \[0, 32\)"),
        ([[32] * 16], r"tokens must lie in \[0, 32\)"),
        ([[0] * 20], "exceeds max_len 16"),
    ])
    def test_token_ids_checked_as_the_model_checks_them(
            self, fab_config, accel, tokens, match):
        """An id below 0 wrapped to the last embedding row, one past the
        vocabulary raised a bare IndexError and a long sequence died as a
        broadcast error; the simulator now refuses what ``model()`` does."""
        model = build_fabnet(fab_config).eval()
        with pytest.raises(ValueError, match=match):
            model(np.array(tokens))
        with pytest.raises(ValueError, match=match):
            accel.run_encoder(model, tokens)


class TestTrace:
    def test_trace_counts_accumulate(self, fab_config, accel, rng):
        model = build_fabnet(fab_config).eval()
        accel.run_encoder(model, rng.integers(0, 32, size=(1, 16)))
        assert accel.trace.butterfly_pair_ops > 0
        assert accel.trace.qk_macs > 0
        assert accel.trace.sv_macs > 0
        assert accel.trace.bank_conflicts == 0

    def test_qk_macs_match_formula(self, fab_config, accel, rng):
        model = build_fabnet(fab_config.with_(n_abfly=1)).eval()
        accel.run_encoder(model, rng.integers(0, 32, size=(1, 16)))
        # one ABfly block: heads * seq * seq * d_head
        assert accel.trace.qk_macs == 2 * 16 * 16 * 8


    def test_butterfly_pair_ops_count_every_row(self, fab_config, rng):
        """A layer call is one engine invocation over all its rows, and
        every row is counted: twice the sequence, twice the butterfly pair
        ops — equal to what the engine itself saw."""
        model = build_fabnet(fab_config).eval()
        counts = {}
        for seq in (8, 16):
            accel = ButterflyAccelerator(
                AcceleratorConfig(pbe=1, pbu=4, pae=2, pqk=4, psv=4))
            accel.run_encoder(model, rng.integers(0, 32, size=(1, seq)))
            counts[seq] = accel.trace.butterfly_pair_ops
            assert (accel.trace.butterfly_pair_ops + accel.trace.fft_pair_ops
                    == accel.engine.cumulative_stats.pair_ops)
        assert counts[16] == 2 * counts[8] > 0

    def test_fft_pair_ops_counted(self, fab_config, accel, rng):
        """The Fourier block's two FFT passes land in ``fft_pair_ops``:
        seq FFTs of size d, then d FFTs of size seq, n/2 log2 n pairs each."""
        model = build_fabnet(fab_config.with_(n_abfly=0, n_total=1)).eval()
        accel.run_encoder(model, rng.integers(0, 32, size=(1, 16)))
        assert accel.trace.fft_pair_ops == 2 * 16 * (8 * 4)

    def test_last_stats_stays_one_invocation(self, accel, rng):
        """One invocation is one tile: ``last_stats`` covers all its rows."""
        from repro.butterfly.matrix import ButterflyMatrix
        engine = accel.engine
        engine.run_butterfly(rng.normal(size=(3, 8)),
                             ButterflyMatrix.random(8, rng))
        assert engine.last_stats.pair_ops == 3 * 4 * 3 == 36  # rows x n/2 x log2 n
        assert engine.last_stats.mult_ops == 4 * 36
        assert engine.cumulative_stats == engine.last_stats


class TestPostProcessor:
    def test_layer_norm_matches_nn(self, rng):
        from repro import nn
        postp = PostProcessor()
        x = rng.normal(size=(3, 8))
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        expected = nn.tensor.layer_norm(
            nn.Tensor(x), nn.Tensor(gamma), nn.Tensor(beta)
        ).data
        np.testing.assert_allclose(postp.layer_norm(x, gamma, beta), expected,
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(16, 64), (1, 16, 64), (3, 7)])
    def test_layer_norm_is_mean_and_var_bytes(self, dtype, shape, rng):
        postp = PostProcessor()
        x = (rng.normal(size=shape) * 30.0).astype(dtype)
        gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        want = ((x - x.mean(axis=-1, keepdims=True))
                / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * gamma + beta)
        got = postp.layer_norm(x, gamma, beta)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert postp.layernorm_rows == x.size // shape[-1]

    def test_shortcut_add(self, rng):
        postp = PostProcessor()
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        np.testing.assert_allclose(postp.shortcut_add(a, b), a + b)
        assert postp.shortcut_adds == 8

    def test_shortcut_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            PostProcessor().shortcut_add(np.zeros((2, 4)), np.zeros((2, 5)))

    def test_gelu_is_the_kernels_bytes(self, rng):
        from repro import kernels
        x = rng.normal(scale=3.0, size=(16, 256))
        want, _ = kernels.gelu_forward(x, need_ctx=False)
        assert PostProcessor().gelu(x).tobytes() == want.tobytes()

    def test_gelu_matches_nn(self, rng):
        from repro import nn
        postp = PostProcessor()
        x = rng.normal(size=10)
        np.testing.assert_allclose(
            postp.gelu(x), nn.tensor.gelu(nn.Tensor(x)).data, atol=1e-12
        )
