"""Property-based tests (hypothesis) for the hardware models."""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly import ButterflyMatrix
from repro.butterfly.factor import ButterflyFactor, stage_halves
from repro.butterfly.fft import bit_reversal_permutation, fft_butterfly
from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel, WorkloadSpec
from repro.hardware.functional import (
    AdaptableButterflyUnit,
    BankAccessStats,
    BankedBuffer,
    BUMode,
    ButterflyAccelerator,
    ButterflyEngine,
    ButterflyLinearExecutor,
    coalesce_pairs,
    compile_ladder,
    compile_stage,
    schedule_stage,
    stage_read_cycles,
)
from repro.hardware.functional import engine as engine_module
from repro.hardware.functional.memory import LAYOUTS
from repro.hardware.quantize import Fp16ButterflyEngine, quantize_fp16
from repro.hardware.resources import dsp_usage, estimate_resources

sizes = st.sampled_from([8, 16, 32, 64])
seeds = st.integers(min_value=0, max_value=2**31 - 1)
pbus = st.sampled_from([1, 2, 4])


@given(n=sizes, seed=seeds, pbu=pbus)
@settings(max_examples=20, deadline=None)
def test_engine_matches_reference_for_any_parallelism(n, seed, pbu):
    rng = np.random.default_rng(seed)
    engine = ButterflyEngine(pbu=pbu)
    matrix = ButterflyMatrix.random(n, rng)
    x = rng.normal(size=n)
    np.testing.assert_allclose(engine.run_butterfly(x, matrix),
                               matrix.apply(x), atol=1e-8)


@given(n=sizes, seed=seeds, pbu=pbus)
@settings(max_examples=20, deadline=None)
def test_engine_fft_matches_numpy(n, seed, pbu):
    rng = np.random.default_rng(seed)
    engine = ButterflyEngine(pbu=pbu)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(engine.run_fft(x), np.fft.fft(x), atol=1e-8)


@given(
    n=st.sampled_from([16, 64, 256]),
    nbanks=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=30, deadline=None)
def test_butterfly_layout_conflict_free_all_stages(n, nbanks):
    if nbanks > n:
        return
    for half in stage_halves(n):
        assert stage_read_cycles(n, half, nbanks, "butterfly") == n // nbanks


# ----------------------------------------------------------------------
# The compiled stage program against the per-cycle, per-pair model it is
# compiled from.
# ----------------------------------------------------------------------
def replay_per_pair(x, factors, mode, pbu, layout):
    """One vector the slow way: every cycle through the public primitives,
    every pair through a scalar Butterfly Unit op."""
    n = x.shape[0]
    nbanks = min(2 * pbu, n)
    buffer = BankedBuffer(n, nbanks, layout)
    buffer.store(x)
    units = [AdaptableButterflyUnit(mode=mode) for _ in range(pbu)]
    for factor in factors:
        half = factor.half
        for group in schedule_stage(n, half, nbanks, layout):
            elements = [e for pair in group for e in pair]
            values, _ = buffer.read_elements(elements)
            results = []
            for lane, (pair, (top, bottom)) in enumerate(
                zip(group, coalesce_pairs(elements, values, group))
            ):
                unit = units[lane % pbu]
                p = (pair[0] // (2 * half)) * half + pair[0] % half
                a, b, c, d = factor.coeffs[:, p]
                if mode is BUMode.FFT:
                    results.extend(unit.fft_op(top, bottom, b))
                else:
                    results.extend(unit.butterfly_op(top.real, bottom.real, a, c, b, d))
            buffer.write_elements(elements, results)
    return buffer.snapshot(), buffer.stats, units


def unit_counters(units):
    return [(u.mult_ops, u.add_ops, u.cycles) for u in units]


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf])


def sprinkle(values, share, rng):
    """Overwrite about ``share`` of ``values``' real numbers (each real and
    imaginary part on its own) with signed zeros and infinities, in place;
    through ``inf * 0`` and ``inf - inf`` the datapath makes NaNs of them."""
    parts = values.view(np.float64)
    hit = rng.random(parts.shape) < share
    parts[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return values


@given(
    log_n=st.integers(min_value=1, max_value=8),
    pbu=st.sampled_from([1, 2, 4, 8]),
    layout=st.sampled_from(LAYOUTS),
    mode=st.sampled_from(list(BUMode)),
    rows=st.integers(min_value=1, max_value=16),  # hw_sim replays 16-row tiles
    share=st.sampled_from([0.0, 0.02, 0.2]),
    seed=seeds,
)
@settings(max_examples=60, deadline=None)
def test_compiled_program_replays_the_per_pair_model(
        log_n, pbu, layout, mode, rows, share, seed):
    """A tile of ``rows`` vectors is one invocation: each row's bytes are
    its per-pair replay, and every count is ``rows`` times one vector's.
    A ``share`` of the operands and of the coefficients or twiddles are
    signed zeros and infinities, so the bytes of NaNs and zero signs are
    held to the scalar Butterfly Unit's too."""
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    buffers = []

    class RecordedBuffer(BankedBuffer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(self)

    engine = ButterflyEngine(pbu=pbu, layout=layout)
    quiet = dict(invalid="ignore")  # inf * 0, inf - inf
    with np.errstate(**quiet), mock.patch.object(engine_module, "BankedBuffer", RecordedBuffer):
        if mode is BUMode.FFT:
            x = sprinkle(rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n)),
                         share, rng)
            perm = bit_reversal_permutation(n)
            factors = [ButterflyFactor(n, f.half, sprinkle(f.coeffs.copy(), share, rng))
                       for f in fft_butterfly(n).factors]
            with mock.patch.object(engine_module, "_fft_plan",
                                   lambda size: (perm, factors)):
                got = engine.run_fft(x)
            starts = x[:, perm]
        else:
            x = sprinkle(rng.normal(size=(rows, n)), share, rng)
            matrix = ButterflyMatrix.random(n, rng)
            for factor in matrix.factors:
                sprinkle(factor.coeffs, share, rng)
            got = engine.run_butterfly(x, matrix)
            starts, factors = x.astype(np.complex128), matrix.factors
    with np.errstate(**quiet):
        replays = [replay_per_pair(start, factors, mode, pbu, layout) for start in starts]

    assert got.shape == (rows, n)
    for got_row, (want, _, _) in zip(got, replays):
        if mode is BUMode.BUTTERFLY:
            want = want.real
        assert got_row.dtype == want.dtype
        assert got_row.tobytes() == want.tobytes()  # bitwise, signed zeros included
    _, access, units = replays[0]
    for _, row_access, row_units in replays:  # the addresses never depend on data
        assert row_access == access
        assert unit_counters(row_units) == unit_counters(units)
    (buffer,) = buffers
    assert buffer.stats == BankAccessStats(
        cycles=rows * access.cycles,
        conflicts=rows * access.conflicts,
        reads=rows * access.reads,
    )
    assert unit_counters(engine.units) == [
        tuple(rows * count for count in counters) for counters in unit_counters(units)
    ]
    stats = engine.last_stats
    assert (stats.read_cycles, stats.bank_conflicts) == (
        rows * access.cycles, rows * access.conflicts)
    assert stats.pair_ops == rows * (n // 2) * log_n
    assert stats.mult_ops == rows * sum(u.mult_ops for u in units) == 4 * stats.pair_ops


@given(
    log_n=st.integers(min_value=1, max_value=8),
    pbu=st.sampled_from([1, 2, 4, 8]),
    layout=st.sampled_from(LAYOUTS),
    mode=st.sampled_from(list(BUMode)),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_ladder_chains_its_stage_programs(log_n, pbu, layout, mode, seed):
    """A layer's ladder is its stage programs chained: the same counts,
    gathers that hand each stage its own operands, read-only and cached
    per key; and a narrower datapath still rounds after every stage."""
    n = 1 << log_n
    nbanks = min(2 * pbu, n)
    halves = tuple(stage_halves(n))
    ladder = compile_ladder(n, halves, nbanks, layout, pbu)
    assert compile_ladder(n, halves, nbanks, layout, pbu) is ladder
    stages = [compile_stage(n, half, nbanks, layout, pbu) for half in halves]
    assert ladder.reads == sum(stage.reads for stage in stages)
    assert ladder.cycles == sum(stage.cycles for stage in stages)
    assert ladder.conflicts == sum(stage.conflicts for stage in stages)
    assert ladder.pairs == len(halves) * (n // 2)
    assert ladder.unit_ops == tuple(
        sum(stage.unit_ops[unit] for stage in stages) for unit in range(pbu))
    order = np.arange(n)  # the element each position of the last output holds
    h = n // 2
    for stage, (tops, bottoms, ac, bd) in zip(stages, ladder.lanes):
        for lane in (tops, bottoms, ac, bd):  # doubled: each half drives one output
            assert lane.shape == (n,)
        assert tops[:h].tolist() == tops[h:].tolist()
        assert bottoms[:h].tolist() == bottoms[h:].tolist()
        order = order[np.concatenate([tops[:h], bottoms[:h]])]
        assert order.tolist() == stage.elements.reshape(-1).tolist()
        a, b, c, d = (row * h + stage.coeff for row in range(4))
        assert ac.tolist() == [*a, *c] and bd.tolist() == [*b, *d]
    assert ladder.elements.tolist() == order.tolist()
    for array in (*(lane for stage in ladder.lanes for lane in stage), ladder.elements):
        assert not array.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        ladder.cycles = 0

    # fp16: every stage's output is rounded before the next stage reads it.
    rng = np.random.default_rng(seed)
    rows = 3
    if mode is BUMode.FFT:
        x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        got = Fp16ButterflyEngine(pbu=pbu, layout=layout).run_fft(x)
        want, factors = x[:, bit_reversal_permutation(n)], fft_butterfly(n).factors
    else:
        x = rng.normal(size=(rows, n))
        matrix = ButterflyMatrix.random(n, rng)
        got = Fp16ButterflyEngine(pbu=pbu, layout=layout).run_butterfly(x, matrix)
        want, factors = x.astype(np.complex128), matrix.factors
    want = quantize_fp16(want)
    for factor in factors:
        rounded = ButterflyFactor(n, factor.half, quantize_fp16(factor.coeffs))
        want = np.stack([
            replay_per_pair(row, [rounded], mode, pbu, layout)[0] for row in want])
        want = quantize_fp16(want)
    if mode is BUMode.BUTTERFLY:
        want = want.real
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


HW_SIM_MODEL = dict(
    vocab_size=64, n_classes=2, max_len=16, d_hidden=64, n_heads=4,
    r_ffn=4, n_total=2, n_abfly=1, dtype="float64", seed=0,
)


@pytest.mark.parametrize("layout, read_cycles, bank_conflicts", [
    ("butterfly", 20736, 0),
    ("row_major", 106752, 49152),
    ("column_major", 106752, 49152),
])
def test_hw_sim_sample_counts_are_pinned(layout, read_cycles, bank_conflicts):
    """One sample of the benchmark's ``hw_sim`` model, counts measured with
    the per-pair loop in place (PR 13): a change that moved the compiled
    program and the replay above together would still move these."""
    from repro.models import ModelConfig, build_fabnet

    config = ModelConfig(**HW_SIM_MODEL)
    model = build_fabnet(config).eval()
    accelerator = ButterflyAccelerator(AcceleratorConfig(pqk=8, psv=8))
    engine = ButterflyEngine(pbu=accelerator.config.pbu, layout=layout, verify=True)
    accelerator.engine = engine
    accelerator.executor = ButterflyLinearExecutor(engine)
    tokens = np.random.default_rng(0).integers(0, 64, size=(1, 16))
    accelerator.run_encoder(model, tokens)
    total = engine.cumulative_stats
    assert total.read_cycles == read_cycles
    assert total.bank_conflicts == bank_conflicts
    assert total.pair_ops == 82944
    assert total.mult_ops == 331776


def test_compiled_programs_are_read_only():
    program = compile_stage(64, 4, 8, "butterfly", 4)
    for array in (program.elements, program.coeff):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.cycles = 0
    perm, factors = engine_module._fft_plan(64)
    assert not perm.flags.writeable
    assert not any(factor.coeffs.flags.writeable for factor in factors)


def test_programs_are_keyed_by_the_whole_configuration():
    base = compile_stage(32, 2, 8, "butterfly", 4)
    assert compile_stage(32, 2, 8, "butterfly", 4) is base
    assert compile_stage(32, 2, 8, "row_major", 4) is not base
    assert compile_stage(32, 2, 4, "butterfly", 2) is not base
    # More units than the vector has lanes: same banks, different unit map.
    narrow, wide = compile_stage(4, 1, 4, "butterfly", 4), compile_stage(4, 1, 4, "butterfly", 8)
    assert narrow is not wide
    assert (narrow.unit_ops, wide.unit_ops) == ((1, 1, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0))
    # ... and engines built that way never see each other's program.
    rng = np.random.default_rng(0)
    matrix, x = ButterflyMatrix.random(32, rng), rng.normal(size=32)
    cycles = {}
    for pbu, layout in [(2, "butterfly"), (4, "butterfly"), (4, "column_major")]:
        engine = ButterflyEngine(pbu=pbu, layout=layout)
        np.testing.assert_allclose(engine.run_butterfly(x, matrix), matrix.apply(x), atol=1e-12)
        cycles[pbu, layout] = engine.last_stats.read_cycles
    assert cycles == {(2, "butterfly"): 40, (4, "butterfly"): 20, (4, "column_major"): 76}


def test_engines_on_eight_threads_agree():
    """Programs are shared between threads, including while the cache is
    still cold and several threads compile the same key at once."""
    rng = np.random.default_rng(5)
    n = 128
    matrix = ButterflyMatrix.random(n, rng)
    rows = rng.normal(size=(4, n))
    compile_stage.cache_clear()
    engine_module._fft_plan.cache_clear()
    results = [None] * 8
    barrier = threading.Barrier(len(results), timeout=60)

    def work(slot):
        engine = ButterflyEngine(pbu=4)
        barrier.wait()
        out = engine.run_butterfly(rows, matrix)
        spectrum = engine.run_fft(rows)
        results[slot] = (
            out.tobytes(), spectrum.tobytes(), engine.cumulative_stats,
            unit_counters(engine.units),
        )

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == results[0] for result in results)
    assert results[0][2].pair_ops == 2 * 4 * (n // 2) * 7
    assert results[0][2].bank_conflicts == 0


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_fp16_quantization_bounded_relative_error(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=64)
    q = quantize_fp16(x)
    nonzero = np.abs(x) > 1e-3
    rel = np.abs(q[nonzero] - x[nonzero]) / np.abs(x[nonzero])
    assert rel.max() < 1e-3  # fp16 has ~3 decimal digits


@given(
    pbe=st.sampled_from([4, 16, 64]),
    pbu=st.sampled_from([2, 4]),
    pqk=st.sampled_from([0, 8]),
)
@settings(max_examples=20, deadline=None)
def test_dsp_equation_invariant(pbe, pbu, pqk):
    config = AcceleratorConfig(pbe=pbe, pbu=pbu, pae=4 if pqk else 0,
                               pqk=pqk, psv=pqk)
    assert dsp_usage(config) == pbe * pbu * 4 + (4 if pqk else 0) * 2 * pqk
    assert estimate_resources(config).dsps == dsp_usage(config)


@given(
    seq=st.sampled_from([64, 128, 256, 512]),
    d=st.sampled_from([64, 128, 256]),
    n_total=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_latency_monotone_in_workload(seq, d, n_total):
    """More layers or longer sequences never reduce latency."""
    model = ButterflyPerformanceModel(AcceleratorConfig(pbe=16, pbu=4))
    base = model.model_latency(
        WorkloadSpec(seq_len=seq, d_hidden=d, n_total=n_total, n_abfly=0)
    ).total_cycles
    deeper = model.model_latency(
        WorkloadSpec(seq_len=seq, d_hidden=d, n_total=n_total + 1, n_abfly=0)
    ).total_cycles
    longer = model.model_latency(
        WorkloadSpec(seq_len=seq * 2, d_hidden=d, n_total=n_total, n_abfly=0)
    ).total_cycles
    assert deeper > base
    assert longer > base


@given(
    bw_low=st.floats(min_value=1.0, max_value=50.0),
    bw_delta=st.floats(min_value=1.0, max_value=400.0),
)
@settings(max_examples=25, deadline=None)
def test_latency_monotone_in_bandwidth(bw_low, bw_delta):
    spec = WorkloadSpec(seq_len=512, d_hidden=512, n_total=4, n_abfly=0)
    slow = ButterflyPerformanceModel(
        AcceleratorConfig(pbe=32, pbu=4, bandwidth_gbs=bw_low)
    ).model_latency(spec).total_cycles
    fast = ButterflyPerformanceModel(
        AcceleratorConfig(pbe=32, pbu=4, bandwidth_gbs=bw_low + bw_delta)
    ).model_latency(spec).total_cycles
    assert fast <= slow
