"""Cycle-level performance model: hand-checked counts, overlap, pipelining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    BE40_CONFIG,
    BE120_CONFIG,
    AcceleratorConfig,
    ButterflyPerformanceModel,
    WorkloadSpec,
    fabnet_spec,
)
from repro.hardware.functional import ButterflyAccelerator
from repro.hardware.isa import Opcode, compile_spec
from repro.hardware.perf import latency_vs_bandwidth, saturation_bandwidth_gbs
from repro.models import ModelConfig, build_fabnet


@pytest.fixture
def fast_config():
    """Huge bandwidth so compute dominates and counts are exact."""
    return AcceleratorConfig(pbe=2, pbu=4, pae=2, pqk=4, psv=4,
                             bandwidth_gbs=1e6)


class TestPrimitives:
    def test_butterfly_linear_compute_cycles(self, fast_config):
        model = ButterflyPerformanceModel(fast_config)
        # rows=16, n=64: 16 * 6 stages * 32 pairs / (2*4) lanes
        layer = model.butterfly_linear(16, 64, 64)
        assert layer.compute_cycles == 16 * 6 * 32 / 8

    def test_butterfly_linear_pads_to_pow2(self, fast_config):
        model = ButterflyPerformanceModel(fast_config)
        a = model.butterfly_linear(4, 48, 48)  # pads to 64
        b = model.butterfly_linear(4, 64, 64)
        assert a.compute_cycles == b.compute_cycles

    def test_fft2_compute_cycles(self, fast_config):
        model = ButterflyPerformanceModel(fast_config)
        layer = model.fft2(16, 64)
        expected = (16 * 6 * 32 + 64 * 4 * 8) / 8
        assert layer.compute_cycles == expected

    def test_fft2_refuses_an_axis_that_is_not_a_power_of_two(self, fast_config):
        """As the Butterfly Engine's FFT does; ``model_latency`` pads the
        sequence axis, as it pads ``d_hidden``."""
        model = ButterflyPerformanceModel(fast_config)
        for rows, cols in ((100, 64), (64, 48)):
            with pytest.raises(ValueError, match="powers of two"):
                model.fft2(rows, cols)

    def test_attention_requires_ap(self):
        config = AcceleratorConfig(pbe=2, pbu=4, pae=0, pqk=0, psv=0)
        model = ButterflyPerformanceModel(config)
        with pytest.raises(ValueError, match="no AP"):
            model.attention_core(16, 32, 4)

    def test_memory_bound_layer_reports_memory(self):
        config = AcceleratorConfig(pbe=128, pbu=4, bandwidth_gbs=1.0)
        model = ButterflyPerformanceModel(config)
        layer = model.butterfly_linear(256, 1024, 1024)
        assert layer.bound == "memory"

    def test_compute_bound_layer_reports_compute(self, fast_config):
        layer = ButterflyPerformanceModel(fast_config).butterfly_linear(256, 1024, 1024)
        assert layer.bound == "compute"


class TestOverlapStrategies:
    def test_ordering_naive_fft_butterfly(self):
        """Fig. 13: butterfly overlap <= fft overlap <= naive."""
        config = AcceleratorConfig(pbe=4, pbu=4, bandwidth_gbs=20.0)
        model = ButterflyPerformanceModel(config)
        comp, b_in, b_out = 1000.0, 1_000_00.0, 1_000_00.0
        naive = model._combine(comp, b_in, b_out, "naive")
        fft = model._combine(comp, b_in, b_out, "fft")
        bfly = model._combine(comp, b_in, b_out, "butterfly")
        assert bfly <= fft <= naive

    def test_overlap_disabled_equals_naive(self):
        config = AcceleratorConfig(pbe=4, pbu=4, bandwidth_gbs=20.0)
        with_overlap = ButterflyPerformanceModel(config, overlap=True)
        without = ButterflyPerformanceModel(config, overlap=False)
        spec = WorkloadSpec(seq_len=128, d_hidden=256, n_total=2, n_abfly=0)
        assert (
            without.model_latency(spec).total_cycles
            >= with_overlap.model_latency(spec).total_cycles
        )

    def test_unknown_strategy(self):
        model = ButterflyPerformanceModel(AcceleratorConfig())
        with pytest.raises(ValueError, match="strategy"):
            model._combine(1.0, 1.0, 1.0, "magic")

    def test_overlap_gain_grows_as_transfers_get_dearer(self):
        """Overlap only hides transfers: with free transfers it buys
        nothing, and it buys more as the bandwidth falls."""
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=4, n_abfly=0)

        def gain(bandwidth_gbs):
            config = AcceleratorConfig(pbe=8, pbu=4, bandwidth_gbs=bandwidth_gbs)
            on = ButterflyPerformanceModel(config, overlap=True)
            off = ButterflyPerformanceModel(config, overlap=False)
            return (off.model_latency(spec).total_cycles
                    / on.model_latency(spec).total_cycles)

        gains = [gain(bw) for bw in (1e6, 100.0, 20.0)]
        assert gains[0] == pytest.approx(1.0, rel=1e-4)
        assert gains[0] < gains[1] < gains[2]


class TestFineGrainedPipelining:
    def test_pipelining_reduces_abfly_latency(self):
        """Fig. 14: BP->AP pipelining strictly helps attention blocks."""
        config = AcceleratorConfig(pbe=8, pbu=4, pae=4, pqk=8, psv=8)
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=2, n_abfly=2,
                            n_heads=4)
        piped = ButterflyPerformanceModel(config, fine_grained_pipeline=True)
        naive = ButterflyPerformanceModel(config, fine_grained_pipeline=False)
        assert (
            piped.model_latency(spec).total_cycles
            < naive.model_latency(spec).total_cycles
        )

    def test_attention_is_charged_its_remainder_over_q_proj(self):
        """Fig. 14 moves only the attention charge: every other layer is
        the same with and without the pipeline, and EXEC_ATTN is charged
        what the AP needs beyond the Q projection it overlaps."""
        config = AcceleratorConfig(pbe=8, pbu=4, pae=4, pqk=8, psv=8)
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=2, n_abfly=1,
                            n_heads=4)
        piped = ButterflyPerformanceModel(config, fine_grained_pipeline=True)
        naive = ButterflyPerformanceModel(config, fine_grained_pipeline=False)
        piped_layers = piped.model_latency(spec).layers
        naive_layers = naive.model_latency(spec).layers
        assert [lay.name for lay in piped_layers] == [lay.name for lay in naive_layers]
        for p, n in zip(piped_layers, naive_layers):
            if not p.name.startswith("attn:"):
                assert p == n
        at = next(i for i, lay in enumerate(piped_layers) if lay.name == "attn:block1")
        assert piped_layers[at - 1].name == "bfly:block1.q_proj"
        core = piped.attention_core(256, 256, 4)
        assert piped_layers[at].total_cycles == max(
            0.0, core.total_cycles - piped_layers[at - 1].total_cycles)

    def test_pipelining_no_effect_on_fbfly_models(self):
        config = AcceleratorConfig(pbe=8, pbu=4)
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=2, n_abfly=0)
        piped = ButterflyPerformanceModel(config, fine_grained_pipeline=True)
        naive = ButterflyPerformanceModel(config, fine_grained_pipeline=False)
        assert (
            piped.model_latency(spec).total_cycles
            == naive.model_latency(spec).total_cycles
        )


class TestModelLatency:
    def test_block_counts(self):
        model = ButterflyPerformanceModel(AcceleratorConfig(pae=2, pqk=4, psv=4))
        spec = WorkloadSpec(seq_len=128, d_hidden=128, n_total=3, n_abfly=1)
        report = model.model_latency(spec)
        fft_layers = [lay for lay in report.layers if lay.name.startswith("fft")]
        attn_layers = [lay for lay in report.layers if lay.name.startswith("attn")]
        assert len(fft_layers) == 2
        assert len(attn_layers) == 1

    def test_latency_scales_with_depth(self):
        model = ButterflyPerformanceModel(AcceleratorConfig())
        shallow = WorkloadSpec(seq_len=128, d_hidden=256, n_total=2, n_abfly=0)
        deep = WorkloadSpec(seq_len=128, d_hidden=256, n_total=8, n_abfly=0)
        assert (
            model.model_latency(deep).total_cycles
            == pytest.approx(4 * model.model_latency(shallow).total_cycles)
        )

    def test_latency_ms_unit(self):
        model = ButterflyPerformanceModel(AcceleratorConfig(clock_mhz=200.0))
        spec = WorkloadSpec(seq_len=128, d_hidden=128, n_total=1, n_abfly=0)
        report = model.model_latency(spec)
        assert report.latency_ms == pytest.approx(
            report.total_cycles / 200e6 * 1e3
        )

    def test_cycles_by_kind_sums_to_total(self):
        model = ButterflyPerformanceModel(AcceleratorConfig(pae=2, pqk=4, psv=4))
        spec = WorkloadSpec(seq_len=64, d_hidden=64, n_total=2, n_abfly=1)
        report = model.model_latency(spec)
        assert sum(report.cycles_by_kind().values()) == pytest.approx(
            report.total_cycles
        )

    def test_all_fbfly_workload_keeps_the_bp_busy(self):
        """The unified-engine payoff: an all-FBfly workload charges the AP
        nothing and spends > 80% of its cycles on the BP."""
        config = AcceleratorConfig(pbe=8, pbu=4, pae=4, pqk=8, psv=8)
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=4, n_abfly=0)
        kinds = ButterflyPerformanceModel(config).model_latency(spec).cycles_by_kind()
        assert "attn" not in kinds
        assert (kinds["bfly"] + kinds["fft"]) / sum(kinds.values()) > 0.8

    def test_layers_follow_the_compiled_stream(self):
        """One charged layer per EXEC and ADD_NORM, in stream order."""
        model = ButterflyPerformanceModel(AcceleratorConfig(pae=2, pqk=4, psv=4))
        spec = WorkloadSpec(seq_len=64, d_hidden=64, n_total=2, n_abfly=1)
        names = [layer.name for layer in model.model_latency(spec).layers]
        assert names == [
            "fft:block0", "postp:block0.mix", "bfly:block0.ffn1",
            "bfly:block0.ffn2", "postp:block0.ffn",
            "bfly:block1.k_proj", "bfly:block1.v_proj", "bfly:block1.q_proj",
            "attn:block1", "bfly:block1.out_proj", "postp:block1.mix",
            "bfly:block1.ffn1", "bfly:block1.ffn2", "postp:block1.ffn",
        ]

    @pytest.mark.parametrize("shape", [
        dict(n_total=1, n_abfly=0),
        dict(n_total=3, n_abfly=1),
        dict(n_total=2, n_abfly=2),
    ])
    def test_one_layer_per_exec_and_add_norm(self, shape):
        """CONFIG, LOAD, STORE and GELU charge nothing: the report has one
        layer per EXEC and ADD_NORM of the spec's stream."""
        spec = WorkloadSpec(seq_len=64, d_hidden=64, n_heads=4, **shape)
        charged = {Opcode.EXEC_BFLY, Opcode.EXEC_FFT2, Opcode.EXEC_ATTN,
                   Opcode.ADD_NORM}
        n_charged = sum(inst.opcode in charged
                        for inst in compile_spec(spec).instructions)
        model = ButterflyPerformanceModel(AcceleratorConfig(pae=2, pqk=4, psv=4))
        assert len(model.model_latency(spec).layers) == n_charged

    def test_abfly_workload_charges_the_ap(self):
        """Each kind of layer goes to its processor: attention to the AP,
        FFT and butterfly layers to the BP, add + norm to PostP."""
        config = AcceleratorConfig(pbe=8, pbu=4, pae=4, pqk=8, psv=8)
        spec = WorkloadSpec(seq_len=128, d_hidden=128, r_ffn=4, n_total=2,
                            n_abfly=1, n_heads=4)
        kinds = ButterflyPerformanceModel(config).model_latency(spec).cycles_by_kind()
        assert set(kinds) == {"fft", "bfly", "attn", "postp"}
        assert all(cycles > 0.0 for cycles in kinds.values())

    def test_abfly_workload_refused_without_an_ap(self):
        """BE-40 has no QK/SV units: an all-FBfly spec runs on it, and a spec
        with one ABfly block is refused."""
        model = ButterflyPerformanceModel(BE40_CONFIG)
        fbfly = WorkloadSpec(seq_len=64, d_hidden=64, n_total=2, n_abfly=0)
        assert model.model_latency(fbfly).total_cycles > 0.0
        with pytest.raises(ValueError, match="no AP"):
            model.model_latency(WorkloadSpec(seq_len=64, d_hidden=64,
                                             n_total=2, n_abfly=1))

    def test_more_engines_not_slower(self):
        spec = WorkloadSpec(seq_len=512, d_hidden=512, n_total=4, n_abfly=0)
        lat = [
            ButterflyPerformanceModel(
                AcceleratorConfig(pbe=p, pbu=4)
            ).model_latency(spec).total_cycles
            for p in (8, 16, 32, 64)
        ]
        assert all(b <= a for a, b in zip(lat, lat[1:]))


class TestBandwidthSweep:
    def test_latency_monotone_in_bandwidth(self):
        spec = WorkloadSpec(seq_len=1024, d_hidden=1024, n_total=24, n_abfly=0)
        lats = latency_vs_bandwidth(spec, n_bes=64, bandwidths_gbs=[6, 12, 25, 50, 100, 200])
        assert all(b <= a for a, b in zip(lats, lats[1:]))

    def test_small_design_saturates_earlier(self):
        """Fig. 21: 16 BEs saturate by 50 GB/s; 128 BEs keep gaining."""
        spec = WorkloadSpec(seq_len=1024, d_hidden=1024, n_total=24, n_abfly=0)
        small = latency_vs_bandwidth(spec, 16, [50, 200])
        large = latency_vs_bandwidth(spec, 128, [50, 200])
        small_gain = small[0] / small[1]
        large_gain = large[0] / large[1]
        assert small_gain < 1.05  # saturated
        assert large_gain > small_gain

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WorkloadSpec(seq_len=0, d_hidden=64)
        with pytest.raises(ValueError):
            WorkloadSpec(seq_len=64, d_hidden=64, n_total=1, n_abfly=2)


def _demand(layer):
    """Memory cycles per compute cycle: the inverse of a layer's
    arithmetic intensity, in the units of its bandwidth."""
    return layer.memory_cycles / layer.compute_cycles


class TestSaturation:
    """The Fig. 21 knee, read from the latency model's per-layer charges."""

    @pytest.fixture
    def spec(self):
        return WorkloadSpec(seq_len=1024, d_hidden=1024, r_ffn=4, n_total=24,
                            n_abfly=0, n_heads=16)

    def test_intensity_grows_with_rows(self):
        """Weights amortize over more rows -> less traffic per pair op."""
        model = ButterflyPerformanceModel(AcceleratorConfig(pbe=16, pbu=4))
        small = model.butterfly_linear(4, 256, 256)
        large = model.butterfly_linear(1024, 256, 256)
        assert _demand(large) < _demand(small)

    def test_fft_intensity_lower_than_butterfly(self):
        """FFT spills complex intermediates, so it is more traffic-heavy."""
        model = ButterflyPerformanceModel(AcceleratorConfig(pbe=16, pbu=4))
        fft = model.fft2(1024, 1024)
        bfly = model.butterfly_linear(1024, 1024, 1024)
        assert _demand(fft) > _demand(bfly)

    def test_bigger_designs_need_more_bandwidth(self, spec):
        """The Fig. 21 observation, derived analytically."""
        bw16 = saturation_bandwidth_gbs(spec, AcceleratorConfig(pbe=16, pbu=4))
        bw128 = saturation_bandwidth_gbs(spec, AcceleratorConfig(pbe=128, pbu=4))
        assert bw128 == pytest.approx(8 * bw16)
        assert 10.0 < bw16 < 100.0  # the paper's ~50 GB/s ballpark

    def test_cross_check_against_cycle_model(self, spec):
        """Below saturation the cycle model gains from bandwidth; above
        it the gain collapses."""
        config = AcceleratorConfig(pbe=64, pbu=4)
        saturation = saturation_bandwidth_gbs(spec, config)

        def latency_ms(factor):
            cfg = config.with_(bandwidth_gbs=max(0.5, saturation * factor))
            return ButterflyPerformanceModel(cfg).model_latency(spec).latency_ms

        gain_below = latency_ms(0.5) / latency_ms(1.0)
        gain_above = latency_ms(2.0) / latency_ms(4.0)
        # Saturation is set by the *lowest*-intensity (FFT) layer, so the
        # aggregate gain below it is modest but clearly larger than the
        # vanishing gain above it.
        assert gain_below > 1.10
        assert gain_above < 1.05
        assert gain_below > gain_above

    def test_attention_spec_answers_without_an_ap(self):
        """Only the BP's layers are charged: a config with no Attention
        Processor, which cannot time an ABfly block, still has a knee,
        set by the FFT layer as in the block's all-FBfly sibling."""
        config = AcceleratorConfig(pbe=16, pbu=4, pae=0, pqk=0, psv=0)
        spec = WorkloadSpec(seq_len=128, d_hidden=128, n_total=2, n_abfly=1)
        with pytest.raises(ValueError, match="no AP"):
            ButterflyPerformanceModel(config).model_latency(spec)
        fbfly = WorkloadSpec(seq_len=128, d_hidden=128, n_total=1, n_abfly=0)
        assert (saturation_bandwidth_gbs(spec, config)
                == saturation_bandwidth_gbs(fbfly, config) > 0)


@pytest.mark.parametrize("shape, match", [
    (dict(n_heads=0), "n_heads"),
    (dict(n_heads=0, n_abfly=1), "n_heads"),
    (dict(d_hidden=100, n_heads=12, n_abfly=1), "heads"),
    (dict(r_ffn=0), "r_ffn"),
])
def test_spec_rejects_shapes_it_cannot_charge(shape, match):
    """No head count below one, heads that must split ``d_hidden`` when the
    spec has attention (an all-FBfly spec's heads are unused: see
    ``test_estimate_command``), and an FFN at least as wide as the hidden size."""
    with pytest.raises(ValueError, match=match):
        WorkloadSpec(**{**dict(seq_len=64, d_hidden=64, n_total=2), **shape})


class TestPinnedTotals:
    """``total_cycles`` at named points, pinned with ``==``: a change to any
    charge, or to the stream it is folded over, moves one of them."""

    @pytest.mark.parametrize("large, config, cycles", [
        (False, BE40_CONFIG, 5066719.231999998),
        (False, BE120_CONFIG, 1711276.0320000015),
        (True, BE40_CONFIG, 10448011.264000015),
        (True, BE120_CONFIG, 3527409.663999995),
    ])
    def test_fabnet_at_1024(self, large, config, cycles):
        report = ButterflyPerformanceModel(config).model_latency(fabnet_spec(1024, large))
        assert report.total_cycles == cycles

    def test_hw_sim_shape(self):
        """The e2e ``hw_sim`` workload's model on its accelerator."""
        spec = WorkloadSpec(seq_len=16, d_hidden=64, r_ffn=4, n_total=2,
                            n_abfly=1, n_heads=4)
        report = ButterflyPerformanceModel(
            AcceleratorConfig(pqk=8, psv=8)).model_latency(spec)
        assert report.total_cycles == 778.7306666666666

    @pytest.mark.parametrize("pipeline, overlap, cycles", [
        (True, True, 1429504.0),
        (False, True, 2490368.0),
        (True, False, 1432394.8657777782),
    ])
    def test_abfly_point(self, pipeline, overlap, cycles):
        config = AcceleratorConfig(pbe=8, pbu=4, pae=4, pqk=8, psv=8)
        spec = WorkloadSpec(seq_len=256, d_hidden=256, n_total=2, n_abfly=2,
                            n_heads=4)
        model = ButterflyPerformanceModel(
            config, fine_grained_pipeline=pipeline, overlap=overlap)
        assert model.model_latency(spec).total_cycles == cycles


# ----------------------------------------------------------------------
# The model's compute cycles against the functional simulator's counts.
# ----------------------------------------------------------------------
def counted_against_modeled(seq, d_hidden, r_ffn, n_total, n_abfly, n_heads, pbu):
    """One sample through the functional simulator, and the closed form's
    compute cycles turned back into pair ops, per layer kind."""
    config = AcceleratorConfig(pbe=1, pbu=pbu, pae=2, pqk=4, psv=4)
    model = build_fabnet(ModelConfig(
        vocab_size=16, n_classes=2, max_len=seq, d_hidden=d_hidden,
        n_heads=n_heads, r_ffn=r_ffn, n_total=n_total, n_abfly=n_abfly, seed=0,
    )).eval()
    accelerator = ButterflyAccelerator(config)
    accelerator.run_encoder(model, np.arange(seq)[None] % 16)
    report = ButterflyPerformanceModel(config).model_latency(WorkloadSpec(
        seq_len=seq, d_hidden=d_hidden, r_ffn=r_ffn, n_total=n_total,
        n_abfly=n_abfly, n_heads=n_heads,
    ))

    def modeled(kind):
        return sum(layer.compute_cycles * config.pbe * config.pbu
                   for layer in report.layers if layer.name.startswith(kind + ":"))

    trace = accelerator.trace
    return (trace.butterfly_pair_ops, trace.fft_pair_ops), (modeled("bfly"), modeled("fft"))


@st.composite
def fabnet_shapes(draw):
    n_total = draw(st.integers(min_value=1, max_value=2))
    return dict(
        seq=draw(st.sampled_from([4, 8, 16, 32])),
        d_hidden=draw(st.sampled_from([16, 32, 64])),
        r_ffn=draw(st.sampled_from([1, 2, 4])),
        n_total=n_total,
        n_abfly=draw(st.integers(min_value=0, max_value=n_total)),
        n_heads=draw(st.sampled_from([1, 2, 4])),
        pbu=draw(st.sampled_from([1, 2, 4, 8])),
    )


@given(shape=fabnet_shapes())
@settings(max_examples=30, deadline=None)
def test_compute_cycles_count_the_simulated_pair_ops(shape):
    """Every ``bfly:`` / ``fft:`` layer's compute cycles, times the
    ``pbe * pbu`` units that share them, are the pair ops the simulator
    issued for that kind of layer."""
    counted, modeled = counted_against_modeled(**shape)
    assert counted == modeled


def test_hw_sim_shape_is_counted():
    """The e2e ``hw_sim`` model: 5120 FFT + 77824 butterfly pair ops."""
    counted, modeled = counted_against_modeled(
        seq=16, d_hidden=64, r_ffn=4, n_total=2, n_abfly=1, n_heads=4, pbu=4)
    assert counted == modeled == (77824, 5120)
