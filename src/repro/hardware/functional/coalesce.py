"""Index coalescing and stage scheduling (paper Figs. 10-11).

``schedule_stage`` packs the ``n/2`` index pairs of one butterfly stage
into read cycles of ``lanes`` pairs (``2 * lanes`` elements, one per
bank).  It uses first-fit packing over the bank mapping, which attains the
optimal ``n / (2 * lanes)`` cycles under the paper's permuted layout and
exposes the extra serialization cycles a row-/column-major layout incurs —
the quantitative content of Fig. 8.

``coalesce_pairs`` models the Index Coalescing crossbar of Fig. 11: data
arrives from the banks in arbitrary bank order, and the crossbar reorders
it into (top, bottom) operand pairs for the butterfly units using the
element indices (bit-count + shift in RTL; here, a direct reordering whose
output order is asserted by tests).

None of this depends on the data — the engine is configured per layer and
then streams vectors through fixed wiring — so ``compile_stage`` issues a
stage's cycles once through those primitives and records the trace as a
:class:`StageProgram`, and ``compile_ladder`` chains a layer's stage
programs into the :class:`LadderProgram` that the Butterfly Engine
replays once per tile, over all of its rows at a time.  The ladder holds
each stage's operands as doubled lanes: ``[tops | tops]`` and
``[bottoms | bottoms]`` gathers, and the flat indices of ``[a | c]`` and
``[b | d]`` in the stage's ``(4, n/2)`` coefficients, so one lane-wide
multiply covers both outputs of every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ...butterfly.factor import pair_indices
from ...kernels import pair_index_of
from .memory import BankedBuffer, bank_of

Pair = Tuple[int, int]


def schedule_stage(
    n: int, half: int, nbanks: int, layout: str = "butterfly"
) -> List[List[Pair]]:
    """Group a stage's pairs into conflict-free read cycles.

    Each returned group holds at most ``nbanks // 2`` pairs whose
    ``2 * len(group)`` elements map to distinct banks under ``layout``.
    First-fit packing: a pair joins the earliest group it does not
    conflict with.
    """
    if nbanks < 2 or nbanks % 2 != 0:
        raise ValueError(f"nbanks must be an even number >= 2, got {nbanks}")
    lanes = nbanks // 2
    pairs = [(int(a), int(b)) for a, b in pair_indices(n, half)]
    groups: List[List[Pair]] = []
    group_banks: List[set] = []
    for pair in pairs:
        banks = {bank_of(pair[0], n, nbanks, layout), bank_of(pair[1], n, nbanks, layout)}
        if len(banks) < 2:
            banks = set()  # self-conflicting pair: needs its own serialized group
        placed = False
        if banks:
            for group, used in zip(groups, group_banks):
                if len(group) < lanes and not (banks & used):
                    group.append(pair)
                    used |= banks
                    placed = True
                    break
        if not placed:
            groups.append([pair])
            group_banks.append(banks or {-1})
    return groups


@dataclass(frozen=True)
class StageProgram:
    """Address trace of one stage under one engine configuration.

    Read-only and shared by every engine and thread with the same key.
    """

    #: ``(2, n/2)`` top / bottom element of each pair, in issue order.
    elements: np.ndarray
    #: Coefficient index of each pair, same order.
    coeff: np.ndarray
    #: Pair-ops the stage issues to each of the ``pbu`` butterfly units.
    unit_ops: Tuple[int, ...]
    #: What the banked buffer credited for the stage's read cycles.
    reads: int
    cycles: int
    conflicts: int


@lru_cache(maxsize=1024)  # a model uses a few dozen keys; each trace is 12 n bytes
def compile_stage(n: int, half: int, nbanks: int, layout: str, pbu: int) -> StageProgram:
    """Issue one stage's read cycles once and record where everything went.

    A vector of element ids takes the path a data vector takes —
    ``schedule_stage`` groups, one ``BankedBuffer.read_elements`` per
    cycle (so its lane limit and conflict count apply, for any layout),
    the ``coalesce_pairs`` crossbar (which raises if it disagrees with
    the scheduler) — so the ids reaching lane ``i`` are that lane's
    operands.  Lane ``i`` of a cycle drives butterfly unit ``i % pbu``.
    """
    buffer = BankedBuffer(n, nbanks, layout)
    buffer.store(np.arange(n))
    lanes: List[Pair] = []
    unit_ops = [0] * pbu
    for group in schedule_stage(n, half, nbanks, layout):
        elements = [e for pair in group for e in pair]
        ids, _conflict = buffer.read_elements(elements)
        for lane, (top, bottom) in enumerate(coalesce_pairs(elements, ids, group)):
            lanes.append((int(top.real), int(bottom.real)))
            unit_ops[lane % pbu] += 1
    wiring = np.ascontiguousarray(np.array(lanes, dtype=np.intp).T)
    coeff = pair_index_of(wiring[0], half)
    for array in (wiring, coeff):
        array.setflags(write=False)
    stats = buffer.stats
    return StageProgram(
        wiring, coeff, tuple(unit_ops), stats.reads, stats.cycles, stats.conflicts
    )


@dataclass(frozen=True)
class LadderProgram:
    """A layer's stage programs chained (read-only, shared).  Each stage's
    results stay in its issue order, tops then bottoms, so stage ``s``'s
    gathers index stage ``s - 1``'s output (stage 0's, element order)."""

    #: per stage, ``(tops, bottoms, ac, bd)``: the ``(n,)`` operand gathers
    #: ``[tops | tops]`` and ``[bottoms | bottoms]``, and the flat indices
    #: of ``[a | c]`` and ``[b | d]`` in the stage's ``(4, n/2)`` coefficients
    lanes: Tuple[Tuple[np.ndarray, ...], ...]
    elements: np.ndarray  #: the element each value of the last stage lands on
    unit_ops: Tuple[int, ...]  #: this and the rest: summed over the stages
    reads: int
    cycles: int
    conflicts: int
    pairs: int


@lru_cache(maxsize=256)  # one key per (layer size, engine configuration)
def compile_ladder(
    n: int, halves: Tuple[int, ...], nbanks: int, layout: str, pbu: int
) -> LadderProgram:
    """Chain the :func:`compile_stage` programs of ``halves`` (in
    application order): each stage's ``elements``, composed with the
    previous stage's wiring, gives its doubled operand lanes."""
    stages = [compile_stage(n, half, nbanks, layout, pbu) for half in halves]
    lanes, position = [], np.arange(n)  # where each element sits now
    for stage in stages:
        tops, bottoms = position[stage.elements]
        a, b, c, d = (row * (n // 2) + stage.coeff for row in range(4))
        lanes.append((np.tile(tops, 2), np.tile(bottoms, 2),
                      np.concatenate([a, c]), np.concatenate([b, d])))
        for array in lanes[-1]:
            array.setflags(write=False)
        elements = stage.elements.reshape(-1)
        position = np.empty(n, dtype=np.intp)
        position[elements] = np.arange(n)
    return LadderProgram(
        tuple(lanes), elements,
        tuple(map(sum, zip(*(stage.unit_ops for stage in stages)))),
        *(sum(getattr(stage, field) for stage in stages)
          for field in ("reads", "cycles", "conflicts")),
        len(stages) * (n // 2),
    )


def stage_read_cycles(n: int, half: int, nbanks: int, layout: str = "butterfly") -> int:
    """Number of read cycles for one stage under a layout.

    A group whose two operands share a bank still needs two accesses, so a
    self-conflicting pair counts as two cycles.
    """
    return compile_stage(n, half, nbanks, layout, nbanks // 2).cycles


def coalesce_pairs(
    elements: Sequence[int], values: Sequence[complex], pairs: Sequence[Pair]
) -> List[Tuple[complex, complex]]:
    """Reorder bank outputs into (top, bottom) operand tuples per pair.

    Args:
        elements: element indices in the order the banks delivered them.
        values: the corresponding data values.
        pairs: the (top, bottom) index pairs scheduled for this cycle.

    Raises if any requested index was not delivered — i.e. if the
    scheduler and the crossbar disagree, which tests treat as a wiring bug.
    """
    lookup = {int(e): v for e, v in zip(elements, values)}
    out: List[Tuple[complex, complex]] = []
    for top, bottom in pairs:
        try:
            out.append((lookup[top], lookup[bottom]))
        except KeyError as missing:
            raise KeyError(f"crossbar did not receive element {missing} for pair "
                           f"({top}, {bottom})") from None
    return out
