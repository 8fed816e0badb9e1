"""Adaptable Butterfly Unit — functional model of paper Figure 7.

The BU contains exactly four real multipliers, two real adders/subtractors
and two complex adders.  Programmable multiplexers route either

* butterfly-linear operands (four real inputs/weights, Fig. 7b), or
* FFT operands (two complex inputs + one complex twiddle, Fig. 7c)

through the *same* multipliers.  This module reproduces that datapath at
value level and counts multiplier activations, so tests can assert that
both modes consume the same silicon (4 multiplies per pair-operation) —
the core claim behind the unified engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np


class BUMode(Enum):
    """Runtime configuration of the unit's muxes/demuxes."""

    BUTTERFLY = "butterfly"
    FFT = "fft"


def butterfly_datapath(in1, in2, w1, w2, w3, w4):
    """Butterfly linear transform pair-op (Fig. 7b)::

        out1 = in1 * w1 + in2 * w3
        out2 = in1 * w2 + in2 * w4

    on the four real multipliers and the two real adders; the
    de-multiplexers bypass the complex adders.  Operands are floats (one
    pair-op) or equal-shape lane arrays (one pair-op per lane, e.g. a
    tile's ``(rows, n/2)``): the same IEEE operations in the same order
    either way.
    """
    return in1 * w1 + in2 * w3, in1 * w2 + in2 * w4


def fft_datapath(in1, in2, w):
    """FFT pair-op (Fig. 7c)::

        t    = in2 * w      (one complex multiply on the 4 multipliers)
        out1 = in1 + t
        out2 = in1 - t

    The product is composed from the four real products, exactly as the
    demux routes them: the real adders combine ``rr - ii`` and
    ``ri + ir``, then the two complex adders produce the sums.  This is
    deliberately not a library complex multiply, whose rounding may
    differ.  Scalars or lane vectors, as :func:`butterfly_datapath`.
    """
    rr = in2.real * w.real
    ii = in2.imag * w.imag
    ri = in2.real * w.imag
    ir = in2.imag * w.real
    t = np.empty(np.shape(rr), dtype=np.complex128)
    t.real = rr - ii
    t.imag = ri + ir
    return in1 + t, in1 - t


@dataclass
class AdaptableButterflyUnit:
    """Value-level model of one adaptable BU.

    The unit is configured per layer (``configure``), then driven one
    pair-operation per cycle.  ``mult_ops`` / ``add_ops`` count real
    arithmetic operations so resource sharing can be asserted.  The
    arithmetic itself is :func:`butterfly_datapath` / :func:`fft_datapath`,
    shared with the engine's per-stage lane arrays.
    """

    mode: BUMode = BUMode.BUTTERFLY
    mult_ops: int = 0
    add_ops: int = 0
    cycles: int = 0

    def configure(self, mode: BUMode) -> None:
        """Set the mux/demux control signals before running a layer."""
        self.mode = mode

    def reset_counters(self) -> None:
        self.mult_ops = 0
        self.add_ops = 0
        self.cycles = 0

    # ------------------------------------------------------------------
    def issue(self, mode: BUMode, ops: int = 1) -> None:
        """Account for ``ops`` pair-operations driven through the unit.

        Per pair-op both modes fire the four real multipliers once;
        butterfly mode uses the two real adders, FFT mode those two plus
        the two complex adders (two real additions each).
        """
        if self.mode is not mode:
            name = "FFT" if self.mode is BUMode.FFT else "butterfly"
            raise RuntimeError(f"BU is configured for {name}; call configure() first")
        self.cycles += ops
        self.mult_ops += 4 * ops
        self.add_ops += (6 if mode is BUMode.FFT else 2) * ops

    def butterfly_op(
        self, in1: float, in2: float, w1: float, w2: float, w3: float, w4: float
    ) -> Tuple[float, float]:
        """One butterfly linear transform pair-op (Fig. 7b)."""
        self.issue(BUMode.BUTTERFLY)
        return butterfly_datapath(in1, in2, w1, w2, w3, w4)

    def fft_op(self, in1: complex, in2: complex, w: complex) -> Tuple[complex, complex]:
        """One FFT pair-op (Fig. 7c)."""
        self.issue(BUMode.FFT)
        return fft_datapath(in1, in2, w)
