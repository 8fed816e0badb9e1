"""Tile-streaming execution with double-buffered overlap (paper Fig. 13).

The analytical model in :mod:`repro.hardware.perf` charges overlapped
transfer times per layer; this module simulates the *mechanism*: row
tiles stream through ping-pong buffers, and per-tile load, compute and
store phases are placed on a timeline honoring the structural hazards of
each strategy:

* ``butterfly`` (Fig. 13a) — buffer A computes while buffer B loads and
  the previous tile's results store: load/store fully overlap compute.
* ``fft`` (Fig. 13b) — the complex datapath owns both buffer ports
  during compute, so only a tile's store overlaps the next tile's load.
* ``naive`` — strictly serial phases.

The simulator returns both the total cycles and the functional result
(computed through the real :class:`ButterflyEngine`), so tests can
cross-validate the overlap *ordering* claimed by the analytical model
while confirming values are untouched by the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np

from ...butterfly.matrix import ButterflyMatrix
from .engine import ButterflyEngine

Strategy = Literal["naive", "butterfly", "fft"]


@dataclass
class TilePhase:
    """Timing of one tile's load/compute/store phases (cycles)."""

    load: float
    compute: float
    store: float


@dataclass
class StreamingResult:
    """Outcome of streaming a full activation through one layer."""

    output: np.ndarray
    total_cycles: float
    tile_phases: List[TilePhase]

    @property
    def n_tiles(self) -> int:
        return len(self.tile_phases)


class StreamingExecutor:
    """Stream row tiles through a ButterflyEngine with overlap modeling."""

    def __init__(
        self,
        engine: Optional[ButterflyEngine] = None,
        tile_rows: int = 4,
        bytes_per_cycle: float = 64.0,
        bytes_per_value: int = 2,
    ) -> None:
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.engine = engine or ButterflyEngine(pbu=4)
        self.tile_rows = tile_rows
        self.bytes_per_cycle = bytes_per_cycle
        self.bytes_per_value = bytes_per_value

    # ------------------------------------------------------------------
    def _phases(self, rows: int, n: int, complex_data: bool) -> TilePhase:
        width = self.bytes_per_value * (2 if complex_data else 1)
        transfer = rows * n * width / self.bytes_per_cycle
        stages = int(np.log2(n))
        compute = rows * stages * (n // 2) / (self.engine.pbu)
        return TilePhase(load=transfer, compute=compute, store=transfer)

    def _timeline(self, phases: List[TilePhase], strategy: Strategy) -> float:
        """Place tile phases on a timeline under the strategy's hazards."""
        if strategy == "naive":
            return sum(p.load + p.compute + p.store for p in phases)
        if strategy == "butterfly":
            # Ping-pong input banks: tile k's load runs under tile k-1's
            # compute; stores use the second port. Steady state is bound
            # by the slower of compute and (load+store) streams, plus the
            # first load and last store.
            if not phases:
                return 0.0
            body = sum(
                max(p.compute, p.load + p.store) for p in phases
            )
            return phases[0].load + body + phases[-1].store
        if strategy == "fft":
            # Compute owns the buffer ports; store(k) overlaps load(k+1).
            if not phases:
                return 0.0
            total = phases[0].load
            for i, p in enumerate(phases):
                total += p.compute
                next_load = phases[i + 1].load if i + 1 < len(phases) else 0.0
                total += max(p.store, next_load)
            return total
        raise ValueError(f"unknown strategy {strategy!r}")

    # ------------------------------------------------------------------
    def _stream(self, x, run, strategy: Strategy, complex_data: bool) -> StreamingResult:
        """Run ``x`` through ``run`` one tile of ``tile_rows`` rows at a time."""
        outputs, phases = [], []
        for start in range(0, x.shape[0], self.tile_rows):
            tile = x[start : start + self.tile_rows]
            outputs.append(run(tile))
            phases.append(self._phases(tile.shape[0], x.shape[1], complex_data))
        total = self._timeline(phases, strategy)
        return StreamingResult(np.concatenate(outputs), total, phases)

    def run_butterfly(
        self, x: np.ndarray, matrix: ButterflyMatrix, strategy: Strategy = "butterfly"
    ) -> StreamingResult:
        """Stream a (rows, n) activation through a butterfly layer."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != matrix.n:
            raise ValueError(f"expected width {matrix.n}, got {x.shape[1]}")
        return self._stream(x, lambda tile: self.engine.run_butterfly(tile, matrix),
                            strategy, complex_data=False)

    def run_fft(
        self, x: np.ndarray, strategy: Strategy = "fft"
    ) -> StreamingResult:
        """Stream a (rows, n) complex activation through the FFT."""
        x = np.atleast_2d(np.asarray(x, dtype=np.complex128))
        return self._stream(x, self.engine.run_fft, strategy, complex_data=True)

    def compare_strategies(
        self, x: np.ndarray, matrix: ButterflyMatrix
    ) -> dict:
        """Cycles under each strategy for the same butterfly workload."""
        return {
            strategy: self.run_butterfly(x, matrix, strategy).total_cycles
            for strategy in ("naive", "fft", "butterfly")
        }
