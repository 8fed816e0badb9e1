"""Cycle-level performance model of the butterfly accelerator.

The paper evaluates all latency numbers with a custom cycle-accurate
performance model cross-validated against RTL simulation (Section VI-A);
this module is our equivalent.  A model's latency is a fold over the
instruction stream :func:`repro.hardware.isa.compile_spec` emits for it —
the stream the functional simulator replays — charging each EXEC and
ADD_NORM one of the primitives below.  ``test_compute_cycles_count_the_simulated_pair_ops``
in ``tests/hardware/test_perf.py`` draws FABNet shapes and parallelisms,
runs one sample through the functional simulator, and checks that every
``bfly:`` / ``fft:`` layer's compute cycles times ``pbe * pbu`` sum to the
butterfly / FFT pair ops the simulator issued; ``repro simulate`` prints
the two side by side.  It covers compute cycles only: the simulator's read
cycles, the off-chip traffic, the Fig. 13 overlap and the Fig. 14
pipelining below are not counted against it.

Modeled effects:

* BP compute throughput — ``pbe * pbu`` butterfly pair-ops per cycle.
* AP compute throughput — ``pae`` engines with ``pqk`` / ``psv`` MAC lanes.
* off-chip traffic for activations and butterfly weights (16-bit values;
  FFT intermediates are complex and twice as wide), with the paper's
  store-intermediates-off-chip policy (Section IV-A).
* the two double-buffering overlap strategies of Fig. 13 plus a naive
  mode (for the ablation bench), selected per layer kind.
* fine-grained BP<->AP pipelining of Fig. 14 (toggleable).

A ``WorkloadSpec`` describes the model analytically (no trained weights
needed) so the same equations cover FABNet at any size, including the
paper's non-power-of-two ``D_hid = 768`` (padded to the next power of two
inside butterfly layers and the 2D FFT, as the hardware does; the FFT
pads the sequence axis too).  Its ``layers()`` are the model's layers
with their widths.  The stream charged here wraps the same list, and the
FLOP and parameter counts, the CPU/GPU rooflines and the dense baseline
fold over it with their own cost per kind; the FLOP counts and the
rooflines split their fold with ``ComponentBreakdown``.  A dense
(``butterfly=False``) spec — BERT, FNet — is refused here as the compiler
refuses a dense model; :mod:`repro.hardware.baseline` times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Literal, Optional, Tuple

from ..kernels.layout import next_power_of_two
from ..models.blocks import block_layers, block_layout
from .config import BYTES_PER_VALUE, AcceleratorConfig
from .isa import Instruction, Opcode, compile_spec

OverlapStrategy = Literal["naive", "butterfly", "fft"]


def _log2i(n: int) -> int:
    return int(round(math.log2(n)))


@dataclass(frozen=True)
class WorkloadSpec:
    """Analytical description of an encoder workload.

    ``n_abfly`` of the ``n_total`` blocks are ABfly (attention) blocks;
    the rest are FBfly (Fourier) blocks.  ``n_abfly == n_total`` with
    ``butterfly=False`` describes a vanilla BERT-style encoder (used by
    the baseline comparisons).  ``n_heads`` must split ``d_hidden`` when
    the spec has attention.
    """

    seq_len: int
    d_hidden: int
    r_ffn: int = 4
    n_total: int = 12
    n_abfly: int = 0
    n_heads: int = 8
    butterfly: bool = True  # butterfly (True) vs dense (False) linear layers

    def __post_init__(self) -> None:
        if self.seq_len < 1 or self.d_hidden < 2:
            raise ValueError("seq_len and d_hidden must be positive")
        if not 0 <= self.n_abfly <= self.n_total:
            raise ValueError("n_abfly must lie in [0, n_total]")
        if self.r_ffn < 1 or self.n_heads < 1:
            raise ValueError("r_ffn and n_heads must be positive")
        if self.n_abfly and self.d_hidden % self.n_heads:
            raise ValueError(
                f"d_hidden={self.d_hidden} does not split into "
                f"{self.n_heads} attention heads"
            )

    @property
    def d_ffn(self) -> int:
        return self.d_hidden * self.r_ffn

    @property
    def n_fbfly(self) -> int:
        return self.n_total - self.n_abfly

    def widths(self, tag: str) -> Tuple[int, int]:
        """``(d_in, d_out)`` of the layers ``tag`` names: the FFN widens
        to ``d_ffn`` and back, every other layer keeps ``d_hidden``."""
        d, d_ffn = self.d_hidden, self.d_ffn
        return {"ffn1": (d, d_ffn), "ffn2": (d_ffn, d)}.get(tag, (d, d))

    def layers(self) -> Tuple[Tuple[int, str, str, int, int], ...]:
        """Every layer of the spec in stream order, as ``(block, tag, kind,
        d_in, d_out)``: the :func:`~repro.models.blocks.block_layers` of
        each block of its :func:`~repro.models.blocks.block_layout`."""
        layout = block_layout(self.n_fbfly, self.n_abfly, self.butterfly)
        return tuple((block, tag, kind) + self.widths(tag)
                     for block, (mixing, butterfly_ffn) in enumerate(layout)
                     for tag, kind in block_layers(mixing, butterfly_ffn))


# The component class of each layer kind (paper Figs. 1 and 3): the
# Fourier mixing of FNet and FBfly blocks counts as their attention.
_COMPONENT = {"dense": "linear", "butterfly": "linear", "attention": "attention",
              "fourier": "attention", "gelu": "other", "add_norm": "other"}


@dataclass(frozen=True)
class ComponentBreakdown:
    """A workload's cost split into attention, linear and other layers:
    FLOPs for Fig. 1, seconds on a CPU/GPU for Figs. 3 and 20."""

    attention: float
    linear: float
    other: float

    @property
    def total(self) -> float:
        return self.attention + self.linear + self.other

    def percentages(self) -> Dict[str, float]:
        return {
            "attention": 100.0 * self.attention / self.total,
            "linear": 100.0 * self.linear / self.total,
            "other": 100.0 * self.other / self.total,
        }

    @classmethod
    def fold(cls, spec: WorkloadSpec,
             cost: Callable[[str, int, int], Iterable[float]]) -> ComponentBreakdown:
        """Sum ``cost(kind, d_in, d_out)`` — the costs of the operations
        one layer runs, each added on its own — over ``spec``'s layers,
        by the component class of each layer's kind."""
        parts = {"attention": 0.0, "linear": 0.0, "other": 0.0}
        for _, _, kind, d_in, d_out in spec.layers():
            for value in cost(kind, d_in, d_out):
                parts[_COMPONENT[kind]] += value
        return cls(**parts)


@dataclass
class LayerLatency:
    """Latency contribution of one layer invocation."""

    name: str
    compute_cycles: float
    memory_cycles: float
    total_cycles: float

    @property
    def bound(self) -> str:
        return "compute" if self.compute_cycles >= self.memory_cycles else "memory"


@dataclass
class LatencyReport:
    """End-to-end latency and per-layer breakdown."""

    layers: List[LayerLatency] = field(default_factory=list)
    clock_mhz: float = 200.0

    @property
    def total_cycles(self) -> float:
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def latency_s(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e6)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def cycles_by_kind(self) -> Dict[str, float]:
        """Aggregate cycles by layer-name prefix (e.g. 'fft', 'bfly')."""
        out: Dict[str, float] = {}
        for layer in self.layers:
            kind = layer.name.split(":")[0]
            out[kind] = out.get(kind, 0.0) + layer.total_cycles
        return out


class ButterflyPerformanceModel:
    """Latency estimator for the adaptable butterfly accelerator."""

    def __init__(
        self,
        config: AcceleratorConfig,
        fine_grained_pipeline: bool = True,
        overlap: bool = True,
    ) -> None:
        self.config = config
        self.fine_grained_pipeline = fine_grained_pipeline
        self.overlap = overlap

    # ------------------------------------------------------------------
    # Primitive timing helpers
    # ------------------------------------------------------------------
    def _mem_cycles(self, num_bytes: float) -> float:
        return num_bytes / self.config.bandwidth_bytes_per_cycle

    def _combine(
        self, compute: float, bytes_in: float, bytes_out: float, strategy: OverlapStrategy
    ) -> float:
        """Combine compute and transfer time per Fig. 13.

        * ``naive`` — no overlap: load + compute + store.
        * ``butterfly`` (Fig. 13a) — ping-pong input banks let loads and
          stores fully overlap compute: the layer is bound by the slower
          of the compute stream and the memory stream.
        * ``fft`` (Fig. 13b) — the complex datapath consumes both buffer
          ports, so compute overlaps neither transfer; only the store
          overlaps the next tile's load.
        """
        t_in = self._mem_cycles(bytes_in)
        t_out = self._mem_cycles(bytes_out)
        if not self.overlap or strategy == "naive":
            return compute + t_in + t_out
        if strategy == "butterfly":
            return max(compute, t_in + t_out)
        if strategy == "fft":
            return compute + max(t_in, t_out)
        raise ValueError(f"unknown overlap strategy {strategy!r}")

    # ------------------------------------------------------------------
    def butterfly_linear(
        self, rows: int, in_features: int, out_features: int, name: str = "bfly"
    ) -> LayerLatency:
        """Butterfly linear transform of ``rows`` vectors on the BP."""
        n = next_power_of_two(max(in_features, out_features))
        pair_ops = rows * _log2i(n) * (n // 2)
        compute = pair_ops / (self.config.pbe * self.config.pbu)
        bytes_in = rows * in_features * BYTES_PER_VALUE
        bytes_in += 4 * (n // 2) * _log2i(n) * BYTES_PER_VALUE  # stage weights
        bytes_out = rows * out_features * BYTES_PER_VALUE
        total = self._combine(compute, bytes_in, bytes_out, "butterfly")
        mem = self._mem_cycles(bytes_in + bytes_out)
        return LayerLatency(name, compute, mem, total)

    def fft2(self, rows: int, cols: int, name: str = "fft") -> LayerLatency:
        """2D FFT over a (rows, cols) activation tile on the BP; both axes
        must be powers of two, as the Butterfly Engine's FFT needs.

        One complex pair-op per BU per cycle; intermediates are complex,
        doubling the off-chip width for the inter-pass spill.
        """
        if rows & (rows - 1) or cols & (cols - 1):
            raise ValueError(
                f"FFT axes must be powers of two, got ({rows}, {cols})")
        pair_ops = rows * _log2i(cols) * (cols // 2) + cols * _log2i(rows) * (rows // 2)
        compute = pair_ops / (self.config.pbe * self.config.pbu)
        real_tile = rows * cols * BYTES_PER_VALUE
        complex_tile = 2 * real_tile
        # load real input + spill/reload complex intermediate + store real output
        bytes_in = real_tile + complex_tile
        bytes_out = complex_tile + real_tile
        total = self._combine(compute, bytes_in, bytes_out, "fft")
        return LayerLatency(name, compute, self._mem_cycles(bytes_in + bytes_out), total)

    def postprocess(self, rows: int, cols: int, name: str = "postp") -> LayerLatency:
        """Shortcut add + LayerNorm on PostP (two passes per element)."""
        width = max(1, 2 * self.config.pbe)
        compute = 2.0 * rows * cols / width
        num_bytes = 2 * rows * cols * BYTES_PER_VALUE
        mem = self._mem_cycles(num_bytes)
        total = max(compute, mem) if self.overlap else compute + mem
        return LayerLatency(name, compute, mem, total)

    # ------------------------------------------------------------------
    def attention_core(
        self, seq: int, d_hidden: int, n_heads: int, name: str = "attn"
    ) -> LayerLatency:
        """Score (QK^T), softmax and context (SV) on the AP."""
        if self.config.pae < 1 or (self.config.pqk + self.config.psv) == 0:
            raise ValueError(
                "workload contains attention but the configuration has no AP "
                "(pae/pqk/psv are zero)"
            )
        d_head = d_hidden // n_heads
        qk_macs = n_heads * seq * seq * d_head
        sv_macs = n_heads * seq * seq * d_head
        t_qk = qk_macs / (self.config.pae * max(1, self.config.pqk))
        t_sv = sv_macs / (self.config.pae * max(1, self.config.psv))
        softmax = n_heads * seq * seq / max(1, self.config.pae)
        compute = t_qk + t_sv + softmax
        if self.fine_grained_pipeline:
            # Fig. 14: QK starts when the first Q rows arrive; SV consumes
            # score rows as they stream out of the QK unit.
            reduction = (seq - 1) / seq * min(t_qk, t_sv + softmax)
            compute -= reduction
        # Q, K, V tiles in; context tile out (scores stay on chip).
        bytes_in = 3 * seq * d_hidden * BYTES_PER_VALUE
        bytes_out = seq * d_hidden * BYTES_PER_VALUE
        total = self._combine(compute, bytes_in, bytes_out, "butterfly")
        return LayerLatency(name, compute, self._mem_cycles(bytes_in + bytes_out), total)

    # ------------------------------------------------------------------
    # Model-level latency: a fold over the compiled stream
    # ------------------------------------------------------------------
    def _charge(self, spec: WorkloadSpec, inst: Instruction) -> Optional[LayerLatency]:
        """The layer one instruction of ``spec``'s stream charges: one per
        EXEC and ADD_NORM.  CONFIG, LOAD, STORE and GELU charge nothing
        (None): their bytes are inside each EXEC's ``_combine``."""
        op, b, operand = inst.opcode, inst.block, inst.operand
        r, d = spec.seq_len, spec.d_hidden
        if op is Opcode.EXEC_BFLY:
            return self.butterfly_linear(r, *spec.widths(operand),
                                         name=f"bfly:block{b}.{operand}")
        if op is Opcode.ADD_NORM:
            return self.postprocess(r, d, name=f"postp:block{b}.{operand}")
        if op is Opcode.EXEC_FFT2:
            return self.fft2(next_power_of_two(r), next_power_of_two(d),
                             name=f"fft:block{b}")
        if op is Opcode.EXEC_ATTN:
            return self.attention_core(r, d, spec.n_heads, name=f"attn:block{b}")
        return None

    def model_latency(self, spec: WorkloadSpec) -> LatencyReport:
        """End-to-end encoder latency: a fold over the stream the simulator
        would replay for ``spec``, one layer per EXEC and ADD_NORM in
        stream order (:meth:`_charge`).

        With fine-grained pipelining the AP starts as soon as the first Q
        rows leave the BP (Fig. 14), so the Q projection charged just
        before EXEC_ATTN is hidden under the attention core: EXEC_ATTN is
        charged only its non-overlapped remainder.
        """
        report = LatencyReport(clock_mhz=self.config.clock_mhz)
        layers = report.layers
        for inst in compile_spec(spec).instructions:
            layer = self._charge(spec, inst)
            if layer is None:
                continue
            if inst.opcode is Opcode.EXEC_ATTN and self.fine_grained_pipeline:
                remainder = max(0.0, layer.total_cycles - layers[-1].total_cycles)
                layer = LayerLatency(layer.name, layer.compute_cycles,
                                     layer.memory_cycles, remainder)
            layers.append(layer)
        return report


def latency_vs_bandwidth(
    spec: WorkloadSpec,
    n_bes: int,
    bandwidths_gbs: List[float],
    pbu: int = 4,
    clock_mhz: float = 200.0,
) -> List[float]:
    """Latency (ms) across off-chip bandwidths — the Fig. 21 sweep."""
    out = []
    for bw in bandwidths_gbs:
        cfg = AcceleratorConfig(
            pbe=n_bes, pbu=pbu, pae=0, pqk=0, psv=0,
            clock_mhz=clock_mhz, bandwidth_gbs=bw,
        )
        model = ButterflyPerformanceModel(cfg)
        out.append(model.model_latency(spec).latency_ms)
    return out


def saturation_bandwidth_gbs(spec: WorkloadSpec, config: AcceleratorConfig) -> float:
    """Minimum off-chip bandwidth (GB/s) at which every BP layer of
    ``spec`` is compute-bound — the knee of the Fig. 21 sweep.

    Each EXEC_BFLY / EXEC_FFT2 charge needs ``bandwidth_gbs * memory /
    compute`` to hide its traffic; the lowest-intensity layer (the FFT,
    whose complex intermediates spill off-chip) sets the bound.
    EXEC_ATTN is not charged, so a config without an AP still answers.
    """
    model = ButterflyPerformanceModel(config)
    bp_layers = (model._charge(spec, inst) for inst in compile_spec(spec).instructions
                 if inst.opcode in (Opcode.EXEC_BFLY, Opcode.EXEC_FFT2))
    return config.bandwidth_gbs * max(
        layer.memory_cycles / layer.compute_cycles for layer in bp_layers)
