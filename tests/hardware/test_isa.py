"""Instruction-level control path: compiler, validation, and the
accelerator's replay of the stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.hardware import BE120_CONFIG, ButterflyPerformanceModel, bert_spec
from repro.hardware.config import AcceleratorConfig
from repro.hardware.functional import ButterflyAccelerator
from repro.hardware.isa import (
    Instruction,
    Opcode,
    Program,
    compile_model,
    compile_spec,
    validate_program,
)
from repro.hardware.perf import WorkloadSpec
from repro.models import ModelConfig, build_fabnet, build_fnet, build_transformer


@pytest.fixture
def fab_model():
    cfg = ModelConfig(vocab_size=16, n_classes=4, max_len=16, d_hidden=16,
                      n_heads=2, r_ffn=2, n_total=2, n_abfly=1, seed=2)
    return build_fabnet(cfg).eval()


def block_stream(model, block_idx):
    return [i for i in compile_model(model).instructions if i.block == block_idx]


def accelerator():
    return ButterflyAccelerator(AcceleratorConfig(pbe=1, pbu=4, pae=2, pqk=4, psv=4))


class TestCompiler:
    def test_program_covers_all_blocks(self, fab_model):
        program = compile_model(fab_model)
        assert program.model is fab_model
        blocks_seen = {i.block for i in program.instructions}
        assert blocks_seen == {0, 1}

    def test_fbfly_block_uses_fft_config(self, fab_model):
        instrs = block_stream(fab_model, 0)
        opcodes = [i.opcode for i in instrs]
        assert Opcode.CONFIG_FFT in opcodes
        assert Opcode.EXEC_FFT2 in opcodes
        assert Opcode.EXEC_ATTN not in opcodes

    def test_abfly_block_reorders_kv_before_q(self, fab_model):
        """The Fig. 14 schedule: K and V projections execute before Q."""
        instrs = block_stream(fab_model, 1)
        execs = [i.operand for i in instrs if i.opcode == Opcode.EXEC_BFLY]
        assert execs.index("k_proj") < execs.index("q_proj")
        assert execs.index("v_proj") < execs.index("q_proj")

    def test_both_modes_in_hybrid_program(self, fab_model):
        program = compile_model(fab_model)
        assert program.count(Opcode.CONFIG_FFT) == 1
        assert program.count(Opcode.CONFIG_BFLY) > 4  # Q/K/V/O + 2 FFN x blocks

    def test_model_and_spec_share_one_cached_stream(self, fab_model):
        """``compile_model`` reads the layout from the blocks and wraps the
        stream ``compile_spec`` reads from the spec's shape: the same
        instruction objects, built once, in a list of the program's own."""
        spec = WorkloadSpec(seq_len=16, d_hidden=16, r_ffn=2, n_total=2,
                            n_abfly=1, n_heads=2)
        first, again = compile_model(fab_model), compile_model(fab_model)
        shared = compile_spec(spec).instructions
        assert first.instructions is not again.instructions
        assert len(first) == len(again) == len(shared)
        assert all(a is b is c for a, b, c in
                   zip(first.instructions, again.instructions, shared))

    def test_a_dense_layer_swapped_into_an_ffn_is_refused(self, fab_model):
        """The layout reads the FFN's layers, not the block's flag."""
        fab_model.blocks[1].ffn.fc2 = nn.Linear(32, 16)
        assert fab_model.blocks[1].butterfly_ffn
        with pytest.raises(TypeError, match="butterfly FFN"):
            compile_model(fab_model)

    def test_vanilla_attention_not_compilable(self):
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=8, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1)
        model = build_transformer(cfg)
        with pytest.raises(TypeError, match="baseline"):
            compile_model(model)

    def test_dense_ffn_refused_before_any_engine_runs(self):
        """FNet's Fourier mixing compiles, its dense FFN does not: the
        whole model is refused at compile time, so ``run_encoder`` fails
        before the FFT pass."""
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=8, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=1)
        model = build_fnet(cfg).eval()
        with pytest.raises(TypeError, match="butterfly FFN"):
            compile_model(model)
        accel = accelerator()
        with pytest.raises(TypeError, match="butterfly FFN"):
            accel.run_encoder(model, np.zeros((1, 8), dtype=int))
        assert accel.engine.cumulative_stats.pair_ops == 0

    @pytest.mark.parametrize("spec, match", [
        (bert_spec(512), "vanilla attention needs the baseline"),
        (WorkloadSpec(seq_len=64, d_hidden=64, n_total=2, n_abfly=0,
                      butterfly=False), "dense layers belong to the baseline"),
    ])
    def test_dense_spec_refused_like_a_dense_model(self, spec, match):
        """A dense (``butterfly=False``) spec is the baseline's work: its
        stream is refused as ``compile_model`` refuses a dense model, so the
        butterfly machine's latency model charges it nothing."""
        with pytest.raises(TypeError, match=match):
            compile_spec(spec)
        with pytest.raises(TypeError, match=match):
            ButterflyPerformanceModel(BE120_CONFIG).model_latency(spec)


class TestValidation:
    def test_compiled_programs_are_valid(self, fab_model):
        assert validate_program(compile_model(fab_model)) == []

    def test_exec_without_config_flagged(self):
        program = Program(instructions=[
            Instruction(Opcode.EXEC_BFLY, "ffn1", 0),
        ])
        violations = validate_program(program)
        assert any("without CONFIG_BFLY" in v for v in violations)

    def test_wrong_mode_flagged(self):
        program = Program(instructions=[
            Instruction(Opcode.CONFIG_BFLY, "mix", 0),
            Instruction(Opcode.EXEC_FFT2, "mix", 0),
        ])
        assert any("CONFIG_FFT" in v for v in validate_program(program))

    def test_unbalanced_load_store_flagged(self):
        program = Program(instructions=[
            Instruction(Opcode.LOAD, "x", 0),
        ])
        assert any("unbalanced" in v for v in validate_program(program))

    def test_backwards_block_flagged(self):
        program = Program(instructions=[
            Instruction(Opcode.ADD_NORM, "mix", 1),
            Instruction(Opcode.ADD_NORM, "mix", 0),
        ])
        assert any("backwards" in v for v in validate_program(program))


class TestReplay:
    def test_matches_software_model(self, fab_model, rng):
        program = compile_model(fab_model)
        tokens = rng.integers(0, 16, size=(2, 16))
        hw = accelerator().run(program, tokens)
        sw = fab_model(tokens).data
        np.testing.assert_allclose(hw, sw, atol=1e-9)

    def test_attention_macs_reach_the_trace(self, fab_model, rng):
        """EXEC_ATTN moves the QK/SV units' counters into the trace:
        ``heads * seq**2 * d_head`` MACs each, per ABfly block and sample."""
        accel = accelerator()
        accel.run(compile_model(fab_model), rng.integers(0, 16, size=(2, 16)))
        n_abfly, batch, heads, seq, d_head = 1, 2, 2, 16, 8
        expected = n_abfly * batch * heads * seq ** 2 * d_head
        assert accel.trace.qk_macs == accel.trace.sv_macs == expected

    def test_malformed_program_raises(self, fab_model, rng):
        bad = Program(instructions=[Instruction(Opcode.EXEC_BFLY, "ffn1", 0)],
                      model=fab_model)
        with pytest.raises(RuntimeError, match="CONFIG_BFLY"):
            accelerator().run(bad, rng.integers(0, 16, size=(1, 16)))

    def test_fft_in_butterfly_mode_raises(self, fab_model, rng):
        bad = Program(instructions=[Instruction(Opcode.CONFIG_BFLY, "mix", 0),
                                    Instruction(Opcode.EXEC_FFT2, "mix", 0)],
                      model=fab_model)
        with pytest.raises(RuntimeError, match="CONFIG_FFT"):
            accelerator().run(bad, rng.integers(0, 16, size=(1, 16)))

    def test_all_fbfly_program(self, rng):
        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=8, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=2, n_abfly=0, seed=0)
        model = build_fabnet(cfg).eval()
        program = compile_model(model)
        tokens = rng.integers(0, 16, size=(2, 8))
        hw = accelerator().run(program, tokens)
        np.testing.assert_allclose(hw, model(tokens).data, atol=1e-9)


@st.composite
def fabnet_cases(draw):
    """A small FABNet config and the (batch, seq) it runs at: the FFT
    needs a power-of-two sequence, attention alone does not."""
    d_hidden = draw(st.sampled_from((16, 32)))
    n_total = draw(st.integers(1, 3))
    config = ModelConfig(
        vocab_size=16, n_classes=3, max_len=16, d_hidden=d_hidden,
        n_heads=draw(st.sampled_from((1, 2, 4, 8, 16))),
        r_ffn=draw(st.integers(1, 4)), n_total=n_total,
        n_abfly=draw(st.integers(0, n_total)),
        dtype="float64", seed=draw(st.integers(0, 2 ** 16)),
    )
    if config.n_abfly < n_total:
        seq = draw(st.sampled_from((4, 8, 16)))
    else:
        seq = draw(st.integers(2, 16))
    return config, draw(st.integers(1, 2)), seq


@given(case=fabnet_cases(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_generated_models_replay_to_the_software_logits(case, seed):
    """Any FABNet shape: the replayed stream gives the software logits, the
    stream is valid and shaped by its blocks, and the trace's counts are
    the engines' own."""
    config, batch, seq = case
    model = build_fabnet(config).eval()
    tokens = np.random.default_rng(seed).integers(0, 16, size=(batch, seq))
    program = compile_model(model)
    accel = accelerator()
    hw = accel.run(program, tokens)
    with config.dtype_context(), nn.no_grad():
        sw = model(tokens).data
    np.testing.assert_allclose(hw, sw, rtol=0, atol=1e-9)

    assert validate_program(program) == []
    spec = WorkloadSpec(seq_len=seq, d_hidden=config.d_hidden, r_ffn=config.r_ffn,
                        n_total=config.n_total, n_abfly=config.n_abfly,
                        n_heads=config.n_heads)

    def triples(instructions):
        return [(i.opcode, i.operand, i.block) for i in instructions]

    assert triples(compile_spec(spec).instructions) == triples(program.instructions)
    n_abfly, n_total = config.n_abfly, config.n_total
    assert program.count(Opcode.CONFIG_FFT) == n_total - n_abfly
    assert program.count(Opcode.EXEC_FFT2) == n_total - n_abfly
    assert program.count(Opcode.EXEC_ATTN) == n_abfly
    assert program.count(Opcode.EXEC_BFLY) == 4 * n_abfly + 2 * n_total
    assert program.count(Opcode.LOAD) == program.count(Opcode.STORE)

    trace = accel.trace
    assert (trace.butterfly_pair_ops + trace.fft_pair_ops
            == accel.engine.cumulative_stats.pair_ops)
    d_head = config.d_hidden // config.n_heads
    macs = n_abfly * batch * config.n_heads * seq ** 2 * d_head
    assert trace.qk_macs == trace.sv_macs == macs
