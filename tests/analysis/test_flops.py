"""FLOPs/parameter accounting: formulas, trends and paper bands."""

import pytest

from repro.analysis import (
    MAINSTREAM_MODELS,
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
    butterfly_linear_flops,
    butterfly_linear_params,
    compression_ratios,
    dense_linear_flops,
    dense_linear_params,
    fft2_mixing_flops,
    model_flops,
    model_params,
)
from repro.analysis.configs import TASK_VOCAB_SIZE
from repro.hardware.perf import WorkloadSpec


def spec(seq=512, d=256, r_ffn=4, n_total=2, n_abfly=0, butterfly=True):
    return WorkloadSpec(seq_len=seq, d_hidden=d, r_ffn=r_ffn, n_total=n_total,
                        n_abfly=n_abfly, n_heads=4, butterfly=butterfly)


class TestComponentFormulas:
    def test_dense_linear(self):
        assert dense_linear_flops(10, 4, 8) == 2 * 10 * 4 * 8
        assert dense_linear_params(4, 8) == 4 * 8 + 8

    def test_butterfly_linear(self):
        assert butterfly_linear_flops(10, 16, 16) == 6 * 10 * 8 * 4
        assert butterfly_linear_params(16, 16) == 2 * 16 * 4 + 16

    def test_butterfly_pads_rectangular(self):
        # 48 -> 64, log2 = 6
        assert butterfly_linear_flops(1, 48, 48) == 6 * 32 * 6

    def test_fft2_mixing(self):
        assert fft2_mixing_flops(16, 16) == 10.0 * (16 * 8 * 4 + 16 * 8 * 4)


class TestParamsMatchRealModels:
    def test_transformer_params_match_built_model(self):
        """Analytical count equals the actual built model's encoder blocks."""
        from repro.models import ModelConfig, build_transformer
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=32, d_hidden=32,
                          n_heads=4, r_ffn=2, n_total=2, n_abfly=0)
        model = build_transformer(cfg)
        block_params = sum(
            p.size for name, p in model.named_parameters() if name.startswith("blocks")
        )
        s = spec(seq=32, d=32, r_ffn=2, n_total=2, n_abfly=2, butterfly=False)
        assert model_params(s) == block_params

    def test_fabnet_params_match_built_model(self):
        from repro.models import ModelConfig, build_fabnet
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=32, d_hidden=32,
                          n_heads=4, r_ffn=2, n_total=2, n_abfly=1)
        model = build_fabnet(cfg)
        block_params = sum(
            p.size for name, p in model.named_parameters() if name.startswith("blocks")
        )
        s = spec(seq=32, d=32, r_ffn=2, n_total=2, n_abfly=1)
        assert model_params(s) == block_params

    def test_fnet_params_match_built_model(self):
        from repro.models import ModelConfig, build_fnet
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=32, d_hidden=32,
                          n_heads=4, r_ffn=2, n_total=2)
        model = build_fnet(cfg)
        block_params = sum(
            p.size for name, p in model.named_parameters() if name.startswith("blocks")
        )
        s = spec(seq=32, d=32, r_ffn=2, n_total=2, butterfly=False)
        assert model_params(s) == block_params


class TestFig1Trend:
    def test_linear_dominates_short_sequences(self):
        for name, base in MAINSTREAM_MODELS.items():
            short = model_flops(base.__class__(**{**base.__dict__, "seq_len": 128}))
            assert short.percentages()["linear"] > 80.0, name

    def test_attention_share_grows_monotonically(self):
        base = MAINSTREAM_MODELS["BERT-Base"]
        shares = []
        for seq in (128, 512, 1024, 2048, 4096):
            b = model_flops(base.__class__(**{**base.__dict__, "seq_len": seq}))
            shares.append(b.percentages()["attention"])
        assert all(b > a for a, b in zip(shares, shares[1:]))
        assert shares[-1] > 40.0  # attention-dominated regime at 4096

    def test_four_mainstream_models(self):
        assert len(MAINSTREAM_MODELS) == 4


class TestFig17Bands:
    def test_flops_reduction_band(self):
        """Paper: 10~66x FLOPs reduction over the vanilla Transformer."""
        for task, fab in TASK_FABNET_SPECS.items():
            r = compression_ratios(fab, TASK_BASELINE_SPECS[task],
                                   TASK_FNET_SPECS[task], TASK_VOCAB_SIZE[task])
            assert 8.0 < r.flops_vs_transformer < 90.0, task

    def test_params_reduction_band(self):
        """Paper: 2~22x model-size reduction over the vanilla Transformer."""
        for task, fab in TASK_FABNET_SPECS.items():
            r = compression_ratios(fab, TASK_BASELINE_SPECS[task],
                                   TASK_FNET_SPECS[task], TASK_VOCAB_SIZE[task])
            assert 2.0 < r.params_vs_transformer < 25.0, task

    def test_reduction_over_fnet_positive(self):
        for task, fab in TASK_FABNET_SPECS.items():
            r = compression_ratios(fab, TASK_BASELINE_SPECS[task],
                                   TASK_FNET_SPECS[task], TASK_VOCAB_SIZE[task])
            assert r.flops_vs_fnet > 2.0, task
            assert r.params_vs_fnet > 2.0, task

    def test_image_task_least_compressed(self):
        """LRA-Image keeps an ABfly block, so it compresses least."""
        ratios = {
            task: compression_ratios(fab, TASK_BASELINE_SPECS[task],
                                     TASK_FNET_SPECS[task]).flops_vs_transformer
            for task, fab in TASK_FABNET_SPECS.items()
        }
        assert ratios["image"] == min(ratios.values())


class TestBreakdownInvariants:
    def test_percentages_sum_to_100(self):
        b = model_flops(spec(n_abfly=2, butterfly=False))
        assert sum(b.percentages().values()) == pytest.approx(100.0)

    def test_fabnet_cheaper_than_transformer_everywhere(self):
        for seq in (128, 1024, 4096):
            s_t = spec(seq=seq, d=512, n_total=6, n_abfly=6, butterfly=False)
            s_f = spec(seq=seq, d=512, n_total=6, n_abfly=0)
            assert model_flops(s_f).total < model_flops(s_t).total / 5
