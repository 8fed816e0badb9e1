"""Adaptable Butterfly Unit — functional model of paper Figure 7.

The BU contains exactly four real multipliers, two real adders/subtractors
and two complex adders.  Programmable multiplexers route either

* butterfly-linear operands (four real inputs/weights, Fig. 7b), or
* FFT operands (two complex inputs + one complex twiddle, Fig. 7c)

through the *same* multipliers.  This module reproduces that datapath at
value level and counts multiplier activations, so tests can assert that
both modes consume the same silicon (4 multiplies per pair-operation) —
the core claim behind the unified engine.  The Butterfly Engine drives a
whole stage of a tile through the unit's lane forms at once
(:func:`butterfly_lanes`, :func:`fft_lanes`): each operand is gathered
twice, side by side, so the two outputs of every pair come from two
lane-wide multiplies and one add, or one complex product and one
add/subtract pair.
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


def butterfly_lanes(upper, lower, ac, bd):
    """Butterfly linear transform pair-ops (Fig. 7b) on doubled lanes::

        upper = [in1 | in1] * [w1 | w2] + [in2 | in2] * [w3 | w4]
              = [out1 | out2]

    ``upper`` and ``lower`` are a tile's top and bottom operands, each
    gathered twice side by side (``(rows, n)`` for ``n/2`` pairs); ``ac``
    and ``bd`` are the matching coefficients.  Two lane-wide multiplies
    on the four real multipliers, one add on the two real adders, all in
    place: ``upper`` comes back holding every ``out1`` then every
    ``out2``.  Per element these are the IEEE operations of
    :meth:`AdaptableButterflyUnit.butterfly_op`, in the same order.
    """
    upper *= ac
    lower *= bd
    upper += lower
    return upper


def fft_lanes(upper, in2, w):
    """FFT pair-ops (Fig. 7c) on doubled lanes: ``upper`` is ``[in1 | in1]``
    (``(rows, n)`` for ``n/2`` pairs), ``in2`` and ``w`` one bottom operand
    and one twiddle per pair.  The product ``t = in2 * w`` is formed once
    per pair from the four real products, as the demux routes them (not
    a library complex multiply, whose rounding may differ); then the two
    complex adders write ``[in1 + t | in1 - t]`` into ``upper`` in place.
    ``out2`` is a subtraction, never ``in1 + (-t)``, which flips a NaN's
    sign bit.  Bit-identical to :meth:`AdaptableButterflyUnit.fft_op`.
    """
    half = upper.shape[-1] // 2
    t = np.empty(in2.shape, dtype=np.complex128)
    np.subtract(in2.real * w.real, in2.imag * w.imag, out=t.real)
    np.add(in2.real * w.imag, in2.imag * w.real, out=t.imag)
    upper[..., :half] += t
    upper[..., half:] -= t
    return upper


@dataclass
class AdaptableButterflyUnit:
    """Value-level model of one adaptable BU.

    The unit is configured per layer (``configure``), then driven one
    pair-operation per cycle.  ``mult_ops`` / ``add_ops`` count real
    arithmetic operations so resource sharing can be asserted.  The
    scalar ops spell the datapath out on their own: they are the oracle
    that the engine's lane forms (:func:`butterfly_lanes`,
    :func:`fft_lanes`) are replayed against pair by pair.
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
        """One butterfly linear transform pair-op (Fig. 7b): the four real
        multipliers and the two real adders; the de-multiplexers bypass the
        complex adders."""
        self.issue(BUMode.BUTTERFLY)
        return in1 * w1 + in2 * w3, in1 * w2 + in2 * w4

    def fft_op(self, in1: complex, in2: complex, w: complex) -> Tuple[complex, complex]:
        """One FFT pair-op (Fig. 7c)::

            t    = in2 * w      (one complex multiply on the 4 multipliers)
            out1 = in1 + t
            out2 = in1 - t

        The real adders combine the four real products into ``rr - ii``
        and ``ri + ir``; the two complex adders produce the sums.
        """
        self.issue(BUMode.FFT)
        t = complex(in2.real * w.real - in2.imag * w.imag,
                    in2.real * w.imag + in2.imag * w.real)
        return in1 + t, in1 - t
