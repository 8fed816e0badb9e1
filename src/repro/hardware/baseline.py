"""Baseline MAC-array accelerator (paper Section VI-D).

The paper's baseline is a conventional design: multiply-accumulate units
(multiplier array + adder tree) with fine-grained intra-/inter-layer
pipelining, load-balanced across layers, implemented on the same VCU128
with the same 2048 multipliers and clock.  It executes dense linear
layers and attention matrix products directly; it has no FFT or butterfly
datapath, so

* Fourier mixing runs as dense DFT matrix multiplies (as the paper did),
* butterfly linear layers run as their dense ``n x n`` equivalents.

That inability to exploit butterfly structure is exactly what Fig. 19's
hardware-speedup column measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import BYTES_PER_VALUE
from .perf import LatencyReport, LayerLatency, WorkloadSpec


@dataclass(frozen=True)
class BaselineConfig:
    """MAC-array baseline: ``n_multipliers`` at ``clock_mhz``."""

    n_multipliers: int = 2048
    clock_mhz: float = 200.0
    bandwidth_gbs: float = 450.0

    @property
    def bandwidth_bytes_per_cycle(self) -> float:
        return self.bandwidth_gbs * 1e9 / (self.clock_mhz * 1e6)


class BaselineAccelerator:
    """Latency model of the dense MAC-array baseline."""

    def __init__(self, config: BaselineConfig | None = None) -> None:
        self.config = config or BaselineConfig()

    # ------------------------------------------------------------------
    def _mem_cycles(self, num_bytes: float) -> float:
        return num_bytes / self.config.bandwidth_bytes_per_cycle

    def _layer(self, name: str, macs: float, bytes_total: float) -> LayerLatency:
        compute = macs / self.config.n_multipliers
        mem = self._mem_cycles(bytes_total)
        # Double-buffered pipeline: bound by the slower stream.
        return LayerLatency(name, compute, mem, max(compute, mem))

    def dense_linear(
        self, rows: int, in_features: int, out_features: int, name: str = "dense"
    ) -> LayerLatency:
        macs = rows * in_features * out_features
        num_bytes = (
            rows * in_features + in_features * out_features + rows * out_features
        ) * BYTES_PER_VALUE
        return self._layer(name, macs, num_bytes)

    def attention_core(
        self, seq: int, d_hidden: int, n_heads: int, name: str = "attn"
    ) -> LayerLatency:
        d_head = d_hidden // n_heads
        macs = 2 * n_heads * seq * seq * d_head  # QK^T and SV
        softmax = n_heads * seq * seq  # one extra pass
        num_bytes = 4 * seq * d_hidden * BYTES_PER_VALUE
        return self._layer(name, macs + softmax, num_bytes)

    def dft_mixing(self, seq: int, d_hidden: int, name: str = "dft") -> LayerLatency:
        """Fourier layer executed as dense DFT matmuls (no FFT support).

        Sequence-direction DFT is a (seq x seq) matrix applied per hidden
        column; hidden-direction DFT is (d x d) per row.  Because the
        input is real and only the real output component is kept, the
        conjugate-symmetric half of each DFT can be skipped (rfft), so
        each product costs half its dense MAC count.
        """
        macs = (seq * seq * d_hidden + d_hidden * d_hidden * seq) // 2
        num_bytes = (
            seq * seq + d_hidden * d_hidden + 2 * seq * d_hidden
        ) * BYTES_PER_VALUE
        return self._layer(name, macs, num_bytes)

    # ------------------------------------------------------------------
    def model_latency(self, spec: WorkloadSpec) -> LatencyReport:
        """End-to-end latency of a workload on the baseline, a fold over
        its layers.

        Every linear layer runs dense: the baseline cannot exploit
        butterfly weights, so ABfly and vanilla attention blocks run the
        same dense projections (the paper's Fig. 19 methodology), and
        Fourier mixing runs as DFT matmuls.  Add + norm and GELU are not
        charged.
        """
        report = LatencyReport(clock_mhz=self.config.clock_mhz)
        r, d = spec.seq_len, spec.d_hidden
        for block, tag, kind, d_in, d_out in spec.layers():
            if kind in ("dense", "butterfly"):
                layer = self.dense_linear(r, d_in, d_out, name=f"dense:block{block}.{tag}")
            elif kind == "fourier":
                layer = self.dft_mixing(r, d, name=f"dft:block{block}")
            elif kind == "attention":
                layer = self.attention_core(r, d, spec.n_heads, name=f"attn:block{block}")
            else:
                continue
            report.layers.append(layer)
        return report


def bert_spec(seq_len: int, large: bool = False) -> WorkloadSpec:
    """BERT-Base/Large workload description for the Fig. 19 comparison."""
    if large:
        return WorkloadSpec(
            seq_len=seq_len, d_hidden=1024, r_ffn=4, n_total=24,
            n_abfly=24, n_heads=16, butterfly=False,
        )
    return WorkloadSpec(
        seq_len=seq_len, d_hidden=768, r_ffn=4, n_total=12,
        n_abfly=12, n_heads=12, butterfly=False,
    )


def fabnet_spec(seq_len: int, large: bool = False) -> WorkloadSpec:
    """FABNet-Base/Large (all-FBfly defaults of Section VI-A)."""
    if large:
        return WorkloadSpec(
            seq_len=seq_len, d_hidden=1024, r_ffn=4, n_total=24,
            n_abfly=0, n_heads=16, butterfly=True,
        )
    return WorkloadSpec(
        seq_len=seq_len, d_hidden=768, r_ffn=4, n_total=12,
        n_abfly=0, n_heads=12, butterfly=True,
    )
