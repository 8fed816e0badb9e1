"""Butterfly Engine — functional model of paper Figure 6(b).

A BE couples ``pbu`` adaptable Butterfly Units to a banked butterfly
memory system (S2P layout + index coalescing).  The same engine executes
either a trainable butterfly linear transform or an FFT, selected at
runtime — the paper's central hardware-efficiency claim.

The model is *value-accurate* and *access-accurate*: every operand read
is accounted by the banked buffer (so bank conflicts surface), every
pair-operation is accounted to a BU (so multiplier usage is counted), and
the result is bit-identical (up to float64 rounding) to the numpy
reference.

Access-accurate does not mean re-deriving the wiring per vector: which
pairs share a cycle, which banks it hits and how the crossbar routes it
depend on ``(n, half, banks, layout, pbu)``, never on the data — the
hardware is configured per layer and then streams.
:func:`~repro.hardware.functional.coalesce.compile_ladder` chains a
layer's ``compile_stage`` traces (each issued once through the per-cycle
primitives, conflicts counted cycle by cycle) into one cached program, and
``_run_stages`` replays it once per tile — a vector, or a layer's
``(rows, n)`` rows.  Per stage it gathers the doubled lanes ``[tops |
tops]`` and ``[bottoms | bottoms]`` straight from the previous stage's
issue order and drives them through the BU's lane form over ``(rows,
n)``: two lane-wide multiplies and one add (an FFT stage: one complex
product per pair, then one add and one subtract), whose result is
already the stage's output in issue order.  These are the IEEE
operations of the scalar ``butterfly_op`` / ``fft_op`` in the same
order, so outputs are bit-identical to issuing the pairs one by one.
One write-back to element order at the end; counts credited once,
``rows`` times the ladder's totals.  :class:`ButterflyLinearExecutor`
keeps one matrix per layer, rebuilt only when a stage parameter moves.

The software hot path lives in :mod:`repro.kernels`, which implements the
same pair geometry (see :mod:`repro.kernels.layout` for the pair-major
order that mirrors the S2P bank striping consumed here via
``schedule_stage``).  Construct the engine with ``verify=True`` to assert
bit-parity of every run against that shared kernel reference
(:func:`repro.kernels.butterfly_apply_reference`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ... import kernels as _kernels
from ...telemetry import counter_inc
from ...butterfly.factor import ButterflyFactor
from ...butterfly.fft import bit_reversal_permutation, fft_butterfly
from ...butterfly.matrix import ButterflyMatrix
from .butterfly_unit import (
    AdaptableButterflyUnit,
    BUMode,
    butterfly_lanes,
    fft_lanes,
)
from .coalesce import compile_ladder
from .memory import BankedBuffer


@dataclass
class EngineRunStats:
    """Cycle/operation counts from one engine invocation."""

    read_cycles: int = 0
    bank_conflicts: int = 0
    pair_ops: int = 0
    mult_ops: int = 0

    def add(self, other: "EngineRunStats") -> None:
        self.read_cycles += other.read_cycles
        self.bank_conflicts += other.bank_conflicts
        self.pair_ops += other.pair_ops
        self.mult_ops += other.mult_ops


@lru_cache(maxsize=32)  # one entry per power-of-two size
def _fft_plan(n: int) -> Tuple[np.ndarray, Tuple[ButterflyFactor, ...]]:
    """Input permutation and twiddle stages of a size-``n`` FFT (read-only)."""
    perm = bit_reversal_permutation(n)
    perm.setflags(write=False)
    factors = tuple(fft_butterfly(n).factors)
    for factor in factors:
        factor.coeffs.setflags(write=False)
    return perm, factors


class ButterflyEngine:
    """One BE: ``pbu`` butterfly units over a ``2 * pbu``-bank buffer.

    Args:
        pbu: number of adaptable Butterfly Units (the paper's parallelism
            knob); the banked buffer gets ``2 * pbu`` banks.
        layout: bank-mapping strategy of the butterfly memory.
        verify: when True, every ``_run_stages`` invocation is checked
            for bit-parity (float64 ``allclose`` at twelve decimals)
            against the shared software kernels in :mod:`repro.kernels`.
            This is the contract that the access-accurate hardware model
            and the vectorized software path compute the same function.
    """

    def __init__(
        self, pbu: int = 4, layout: str = "butterfly", verify: bool = False
    ) -> None:
        if (isinstance(pbu, bool) or not isinstance(pbu, (int, np.integer))
                or pbu < 1 or pbu & (pbu - 1)):
            # ``2 * pbu`` banks must divide a power-of-two butterfly size.
            raise ValueError(f"pbu must be a power of two >= 1, got {pbu!r}")
        self.pbu = pbu
        self.nbanks = 2 * pbu
        self.layout = layout
        self.verify = verify
        self.units = [AdaptableButterflyUnit() for _ in range(pbu)]
        #: Counts of the most recent invocation only: one tile (or vector).
        self.last_stats: Optional[EngineRunStats] = None
        #: Counts summed over every invocation since construction; callers
        #: that make several invocations (a 2D FFT) difference it.
        self.cumulative_stats = EngineRunStats()

    # ------------------------------------------------------------------
    def _stage_output(self, results: np.ndarray) -> np.ndarray:
        """What a stage writes back (a narrower datapath rounds here)."""
        return results

    def _run_stages(
        self,
        x: np.ndarray,
        factors: List[ButterflyFactor],
        mode: BUMode,
    ) -> np.ndarray:
        """One invocation: a vector, or every row of a ``(rows, n)`` tile."""
        if x.ndim not in (1, 2) or any(f.n != x.shape[-1] for f in factors):
            raise ValueError(f"expected a vector or (rows, n) tile of size "
                             f"{factors[0].n}, got {x.shape}")
        tile = x.reshape(-1, x.shape[-1])
        rows, n = tile.shape
        # Vectors smaller than the bank array only occupy the first banks.
        nbanks = min(self.nbanks, n)
        ladder = compile_ladder(
            n, tuple(f.half for f in factors), nbanks, self.layout, self.pbu)
        buffer = BankedBuffer(n, nbanks, layout=self.layout)
        buffer.store(tile)
        # The stored tile, element order; credits every stage's read cycles.
        values = buffer.read_trace(ladder.reads, ladder.cycles, ladder.conflicts)
        for factor, (tops, bottoms, ac, bd) in zip(factors, ladder.lanes):
            upper, coeffs = values.take(tops, axis=1), factor.coeffs
            if mode is BUMode.FFT:  # one product per pair; the twiddle is ``b``
                upper = fft_lanes(upper, values.take(bottoms[: n // 2], axis=1),
                                  coeffs.take(bd[: n // 2]))
            else:
                upper = butterfly_lanes(upper, values.take(bottoms, axis=1),
                                        coeffs.take(ac), coeffs.take(bd))
            values = self._stage_output(upper)
        buffer.write_elements(ladder.elements, values)
        for unit, ops in zip(self.units, ladder.unit_ops):
            unit.configure(mode)
            unit.reset_counters()
            unit.issue(mode, rows * ops)
        stats = EngineRunStats(
            read_cycles=buffer.stats.cycles,
            bank_conflicts=buffer.stats.conflicts,
            pair_ops=rows * ladder.pairs,
            mult_ops=sum(u.mult_ops for u in self.units),
        )
        self.last_stats = stats
        self.cumulative_stats.add(stats)
        counter_inc("hardware_be_read_cycles_total", amount=stats.read_cycles)
        counter_inc("hardware_be_bank_conflicts_total",
                    amount=stats.bank_conflicts)
        counter_inc("hardware_be_pair_ops_total", amount=stats.pair_ops)
        counter_inc("hardware_be_mult_ops_total", amount=stats.mult_ops)
        out = buffer.snapshot().reshape(x.shape)
        if self.verify:
            reference = x
            for f in factors:  # stage by stage, rounded as the datapath rounds
                reference = self._stage_output(
                    _kernels.butterfly_apply_reference(reference, [f.coeffs], [f.half]))
            if not np.allclose(out, reference, rtol=1e-12, atol=1e-12):
                raise RuntimeError(
                    "butterfly engine diverged from the kernel reference "
                    f"(max |err| = {np.abs(out - reference).max():.3e})"
                )
        return out

    # ------------------------------------------------------------------
    def run_butterfly(self, x: np.ndarray, matrix: ButterflyMatrix) -> np.ndarray:
        """Apply a trainable butterfly matrix to a real vector of size n, or
        to every row of a ``(rows, n)`` tile in one invocation."""
        x = np.asarray(x, dtype=np.float64)
        return self._run_stages(x, matrix.factors, BUMode.BUTTERFLY)

    def run_fft(self, x: np.ndarray) -> np.ndarray:
        """FFT of a vector of power-of-two size n, or of every row of a
        ``(rows, n)`` tile in one invocation."""
        x = np.asarray(x, dtype=np.complex128)
        perm, factors = _fft_plan(x.shape[-1])
        return self._run_stages(x[..., perm], factors, BUMode.FFT)

    def run_fft2(self, x: np.ndarray) -> np.ndarray:
        """2D FFT of a (rows, cols) tile: the rows in one invocation, then
        the columns in a second.

        This is the FBfly Fourier layer; both passes reuse the same engine.
        """
        return self.run_fft(self.run_fft(x).T).T


class ButterflyLinearExecutor:
    """Run a :class:`~repro.nn.butterfly_layer.ButterflyLinear` on a BE.

    Handles the layer's zero-padding (input dim -> butterfly size n) and
    output truncation plus the bias add, so the engine output matches the
    software layer exactly.
    """

    def __init__(self, engine: ButterflyEngine) -> None:
        self.engine = engine
        # layer -> (each stage's (version, data), the matrix built from them)
        self._matrices = weakref.WeakKeyDictionary()

    def _matrix(self, layer) -> ButterflyMatrix:
        """``layer``'s stages as a matrix over the live stage arrays (no
        copy), rebuilt only when a stage parameter's ``(version, data)``
        changes (an optimizer step, ``load_state_dict``, a rebind), as
        :class:`~repro.kernels.FrozenLadderCache` keys its ladder."""
        stages = layer.stage_parameters()
        entry = self._matrices.get(layer)
        if entry is not None and all(
            stage.version == version and stage.data is data
            for stage, (version, data) in zip(stages, entry[0])
        ):
            return entry[1]
        matrix = ButterflyMatrix([
            ButterflyFactor(layer.n, half, stage.data)
            for half, stage in zip(layer.halves, stages)])
        self._matrices[layer] = ([(stage.version, stage.data) for stage in stages],
                                 matrix)
        return matrix

    def forward(self, layer, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != layer.in_features:
            raise ValueError(
                f"expected input dim {layer.in_features}, got {x.shape[-1]}"
            )
        matrix = self._matrix(layer)
        padded = np.zeros((x.shape[0], layer.n))
        padded[:, : layer.in_features] = x
        out = self.engine.run_butterfly(padded, matrix)
        out = out[:, : layer.out_features]
        if layer.bias is not None:
            out = out + layer.bias.data
        return out
