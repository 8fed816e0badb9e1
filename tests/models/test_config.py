"""ModelConfig validation and derived properties."""

import pytest

from repro.models import ModelConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.d_ffn == cfg.d_hidden * cfg.r_ffn

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_hidden=64, n_heads=3)

    def test_n_abfly_bounds(self):
        with pytest.raises(ValueError, match="n_abfly"):
            ModelConfig(n_total=2, n_abfly=3)

    def test_hidden_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ModelConfig(d_hidden=48, n_heads=4)

    def test_n_fbfly(self):
        cfg = ModelConfig(n_total=4, n_abfly=1)
        assert cfg.n_fbfly == 3

    def test_with_returns_modified_copy(self):
        cfg = ModelConfig(d_hidden=64)
        cfg2 = cfg.with_(d_hidden=128)
        assert cfg.d_hidden == 64
        assert cfg2.d_hidden == 128
        assert cfg2.n_total == cfg.n_total

    def test_frozen(self):
        with pytest.raises(Exception):
            ModelConfig().d_hidden = 32


class TestDtypePolicy:
    def test_default_dtype(self):
        assert ModelConfig().dtype == "float64"

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            ModelConfig(dtype="float16")

    def test_dtype_context_scopes_kernel_policy(self):
        import numpy as np
        from repro.kernels import get_default_dtype

        cfg = ModelConfig(dtype="float32")
        with cfg.dtype_context():
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_model_builds_in_float32(self):
        """Builders honor config.dtype without an explicit context."""
        import numpy as np
        from repro.models import build_model

        cfg = ModelConfig(d_hidden=16, n_heads=2, n_total=1, max_len=8,
                          vocab_size=16, dtype="float32")
        model = build_model("fabnet", cfg)
        params = model.parameters()
        assert params and all(p.dtype == np.float32 for p in params)

    def test_trainer_honors_config_dtype(self):
        """A float32 model trains in float32 end to end via the Trainer."""
        import numpy as np
        from repro.data import load_task
        from repro.models import build_model
        from repro.training import train_model_on_task

        ds = load_task("text", n_samples=64, seq_len=8, seed=0)
        cfg = ModelConfig(vocab_size=ds.vocab_size, n_classes=ds.n_classes,
                          max_len=ds.seq_len, d_hidden=16, n_heads=2,
                          r_ffn=2, n_total=1, seed=0, dtype="float32")
        model = build_model("fabnet", cfg)
        train_model_on_task(model, ds, epochs=1, lr=1e-2)
        assert all(p.dtype == np.float32 for p in model.parameters())
