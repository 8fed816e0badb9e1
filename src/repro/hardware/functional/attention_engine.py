"""Attention Engine — functional model of paper Figure 6(c).

Each AE contains a QK unit (MAC lanes + accumulator + softmax) and an SV
unit (MAC lanes).  The QK unit streams rows of Q against the whole K
matrix and emits softmaxed score rows; the SV unit consumes score rows as
they appear (this row-by-row handoff is what enables the fine-grained
BP/AP pipelining of Fig. 14).  The model runs a head's rows as one tile
and counts what each row costs.

The model is value-accurate and counts MAC operations; cycle-level timing
lives in :mod:`repro.hardware.perf`.

Construct an engine (or processor) with ``verify=True`` to check every
``attend`` invocation against the shared software kernel layer
(:func:`repro.kernels.attention_reference`), mirroring how the Butterfly
Engine verifies against :func:`repro.kernels.butterfly_apply_reference`:
value parity at float64 precision *and* operation-count parity against
the closed form :func:`repro.kernels.expected_macs` — the contract that
the row-streaming hardware model and the blockwise-streaming software
kernel compute the same function with the same amount of MAC work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import kernels as _kernels
from ...telemetry import counter_inc


@dataclass
class AttentionStats:
    """Operation counts from one attention execution."""

    qk_macs: int = 0
    sv_macs: int = 0
    softmax_elems: int = 0
    score_rows_emitted: int = 0


class QKUnit:
    """Computes softmax(Q K^T / sqrt(d)), one score row per query row."""

    def __init__(self, pqk: int = 8) -> None:
        if pqk < 1:
            raise ValueError(f"pqk must be >= 1, got {pqk}")
        self.pqk = pqk
        self.stats = AttentionStats()

    def score_rows(self, q: np.ndarray, keys: np.ndarray, scale: float) -> np.ndarray:
        """Softmaxed score rows of a query row or a ``(rows, d)`` tile;
        counts one MAC per multiply-accumulate."""
        if q.ndim not in (1, 2) or keys.ndim != 2 or keys.shape[1] != q.shape[-1]:
            raise ValueError(
                f"shape mismatch: q {q.shape} vs keys {keys.shape}"
            )
        rows = q.size // q.shape[-1]
        raw = q @ keys.T * scale
        self.stats.qk_macs += rows * keys.size
        shifted = raw - raw.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        self.stats.softmax_elems += e.size
        self.stats.score_rows_emitted += rows
        return e / e.sum(axis=-1, keepdims=True)


class SVUnit:
    """Multiplies incoming score rows with the V matrix."""

    def __init__(self, psv: int = 8) -> None:
        if psv < 1:
            raise ValueError(f"psv must be >= 1, got {psv}")
        self.psv = psv
        self.stats = AttentionStats()

    def context_rows(self, scores: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Context rows of a score row or a ``(rows, keys)`` tile."""
        if scores.shape[-1] != values.shape[0]:
            raise ValueError(
                f"scores ({scores.shape}) do not match values ({values.shape})"
            )
        self.stats.sv_macs += scores.size // scores.shape[-1] * values.size
        return scores @ values


class AttentionEngine:
    """One AE = QK unit + SV unit, processing one head at a time.

    ``verify=True`` checks every :meth:`attend` against the software
    attention kernel: bit-level value parity (float64 ``allclose`` at
    twelve decimals vs :func:`repro.kernels.attention_reference`) and
    op-count parity of the per-call MAC/softmax deltas vs
    :func:`repro.kernels.expected_macs`.
    """

    def __init__(self, pqk: int = 8, psv: int = 8, verify: bool = False) -> None:
        self.qk = QKUnit(pqk)
        self.sv = SVUnit(psv)
        self.verify = verify

    def attend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Full single-head attention: softmax(QK^T / sqrt(d)) V.

        The head's query rows stream through the QK unit as one tile and
        their score rows through the SV unit, counted row by row as the
        hardware issues them.
        """
        if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
            raise ValueError(f"incompatible shapes q={q.shape} k={k.shape} v={v.shape}")
        scale = 1.0 / np.sqrt(q.shape[1])
        before = (self.qk.stats.qk_macs, self.sv.stats.sv_macs,
                  self.qk.stats.softmax_elems)
        out = self.sv.context_rows(self.qk.score_rows(q, k, scale), v)
        counter_inc("hardware_ae_qk_macs_total",
                    amount=self.qk.stats.qk_macs - before[0])
        counter_inc("hardware_ae_sv_macs_total",
                    amount=self.sv.stats.sv_macs - before[1])
        counter_inc("hardware_ae_softmax_elems_total",
                    amount=self.qk.stats.softmax_elems - before[2])
        if self.verify:
            self._verify(q, k, v, out, before)
        return out

    def _verify(self, q, k, v, out, counts_before) -> None:
        reference = _kernels.attention_reference(q, k, v)
        if not np.allclose(out, reference, rtol=1e-12, atol=1e-12):
            raise RuntimeError(
                "attention engine diverged from the kernel reference "
                f"(max |err| = {np.abs(out - reference).max():.3e})"
            )
        expected = _kernels.expected_macs(q.shape[0], k.shape[0], q.shape[1])
        observed = {
            "qk_macs": self.qk.stats.qk_macs - counts_before[0],
            "sv_macs": self.sv.stats.sv_macs - counts_before[1],
            "softmax_elems": self.qk.stats.softmax_elems - counts_before[2],
        }
        if observed != expected:
            raise RuntimeError(
                "attention engine op counts diverged from the kernel "
                f"contract: observed {observed}, expected {expected}"
            )

    @property
    def stats(self) -> AttentionStats:
        merged = AttentionStats(
            qk_macs=self.qk.stats.qk_macs,
            sv_macs=self.sv.stats.sv_macs,
            softmax_elems=self.qk.stats.softmax_elems,
            score_rows_emitted=self.qk.stats.score_rows_emitted,
        )
        return merged


class AttentionProcessor:
    """``pae`` attention engines; heads are distributed round-robin."""

    def __init__(
        self, pae: int = 2, pqk: int = 8, psv: int = 8, verify: bool = False
    ) -> None:
        if pae < 1:
            raise ValueError(f"pae must be >= 1, got {pae}")
        self.engines = [AttentionEngine(pqk, psv, verify=verify) for _ in range(pae)]

    def attend_heads(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Multi-head attention over (heads, seq, d_head) operands."""
        if not (q.shape == k.shape == v.shape) or q.ndim != 3:
            raise ValueError(
                f"expected matching (heads, seq, d_head), got {q.shape}/{k.shape}/{v.shape}"
            )
        outputs = []
        for h in range(q.shape[0]):
            engine = self.engines[h % len(self.engines)]
            outputs.append(engine.attend(q[h], k[h], v[h]))
        return np.stack(outputs)
