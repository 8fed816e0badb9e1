"""Butterfly memory system: banked buffers, data layouts and S2P.

Reproduces Section IV-B2 of the paper.  The butterfly access pattern reads
index pairs ``(i, i + half)`` whose stride changes every stage; with a
naive row- or column-major placement across memory banks this causes bank
conflicts (paper Fig. 8).  The paper's S2P module instead stores column
``i`` of the data matrix rotated down by a *starting position* derived
from a bit-count of the column index (Fig. 9), which makes every stage's
paired access conflict-free (Fig. 10).

Layouts implemented:

* ``column_major`` — element ``e`` lives in bank ``e % nbanks`` (Fig. 8b).
* ``row_major`` — element ``e`` lives in bank ``e // (n / nbanks)``
  (Fig. 8c).
* ``butterfly`` — the paper's permuted layout: element at (column ``i``,
  row ``r``) is stored in bank ``(r + popcount(i)) % nbanks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

LAYOUTS = ("column_major", "row_major", "butterfly")


def popcount(value: int) -> int:
    """Number of set bits (the Fig. 9 'bit-count' block)."""
    return bin(value).count("1")


def bank_of(element: int, n: int, nbanks: int, layout: str) -> int:
    """Bank index holding ``element`` under the given layout."""
    if layout == "column_major":
        return element % nbanks
    if layout == "row_major":
        return element // (n // nbanks)
    if layout == "butterfly":
        column, row = divmod(element, nbanks)
        return (row + popcount(column)) % nbanks
    raise ValueError(f"unknown layout {layout!r}; choose from {LAYOUTS}")


@dataclass
class BankAccessStats:
    """Aggregate statistics from a sequence of banked reads."""

    cycles: int = 0
    conflicts: int = 0
    reads: int = 0


class BankedBuffer:
    """A buffer of ``nbanks`` single-port banks holding ``n`` elements.

    Values are stored according to ``layout``; ``read_elements`` models one
    read cycle and reports whether the requested elements collide in a
    bank.  Values are real, or complex (FFT mode concatenates the two
    ping-pong banks into a double-width port, paper Fig. 12 — functionally
    the element granularity is unchanged).
    """

    def __init__(self, n: int, nbanks: int, layout: str = "butterfly") -> None:
        if n % nbanks != 0:
            raise ValueError(f"n={n} must be a multiple of nbanks={nbanks}")
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
        self.n = n
        self.nbanks = nbanks
        self.layout = layout
        self.stats = BankAccessStats()
        self._values = np.zeros(n, dtype=np.complex128)

    # ------------------------------------------------------------------
    def store(self, values: Sequence[complex]) -> None:
        """Load a vector or a ``(rows, n)`` tile through S2P (a single
        streaming pass); every row sits in the banks at the same addresses."""
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} values per row, got shape {values.shape}")
        self._values = values.astype(np.result_type(values, np.float64))

    def bank_of(self, element: int) -> int:
        return bank_of(element, self.n, self.nbanks, self.layout)

    def read_elements(self, elements: Sequence[int]) -> Tuple[np.ndarray, bool]:
        """Read a group of elements in one cycle.

        Returns the values and a conflict flag.  A conflict (two elements
        mapping to the same bank) is counted and modeled as an extra
        serialization cycle per colliding access, matching how a real
        single-port bank would stall.
        """
        elements = list(elements)
        if len(elements) > self.nbanks:
            raise ValueError(
                f"cannot read {len(elements)} elements from {self.nbanks} banks in one cycle"
            )
        banks = [self.bank_of(e) for e in elements]
        n_conflicts = len(banks) - len(set(banks))
        self.stats.reads += len(elements)
        self.stats.cycles += 1 + n_conflicts
        self.stats.conflicts += n_conflicts
        return self._values[..., elements], n_conflicts > 0

    def read_trace(self, reads: int, cycles: int, conflicts: int) -> np.ndarray:
        """Credit an already-issued sequence of read cycles (a Butterfly
        Engine layer's whole ladder) and hand over the stored tile, in
        element order, for the ladder's own gathers.

        Which banks a cycle hits depends on the addresses alone, so a
        trace issued once through :meth:`read_elements` costs the same
        every time it runs, for every row of the tile: the counts,
        credited once per row, are what ``read_elements`` credited then.
        """
        rows = self._values.size // self.n
        self.stats.reads += rows * reads
        self.stats.cycles += rows * cycles
        self.stats.conflicts += rows * conflicts
        return self._values

    def write_elements(self, elements: Sequence[int], values: Sequence[complex]) -> None:
        """Write results back (the Recover module restores original order);
        ``values`` is shaped like the read of ``elements``."""
        self._values[..., np.asarray(elements, dtype=np.intp)] = np.asarray(values)

    def snapshot(self) -> np.ndarray:
        """Current contents in original element order."""
        return self._values.copy()
