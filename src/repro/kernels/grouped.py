"""Fused multi-stage butterfly kernel: radix-``2^g`` grouped matmuls.

The per-stage kernels in :mod:`repro.kernels.stage` are already
vectorized, but applying ``log2 n`` of them in sequence is memory-bound:
every stage streams the whole ``(batch, n)`` activation through numpy
elementwise ops with small strided slices.  This module instead *fuses*
runs of ``g`` consecutive stages into one batched matrix multiply, the
software analogue of the paper's Butterfly Engine processing ``2 * pbu``
operands per cycle from the S2P-banked memory (the engine hides the pair
stride in its bank mapping; we hide it in a block-diagonal regrouping).

Why fusing is legal: stages ``s0 .. s0+g-1`` (pair strides ``2^s0 ..
2^(s0+g-1)``) only couple elements whose indices differ in bit positions
``s0 .. s0+g-1``.  Writing a global index as ``i = (o * T + t) * h0 + j``
with ``T = 2^g`` and ``h0 = 2^s0``, the product of those ``g`` sparse
factors is block-diagonal with one dense ``T x T`` matrix per ``(o, j)``
— ``n / T`` small matrices per chunk, independent of batch size.  Each
chunk therefore becomes::

    y[o, j, b, :] = M[o, j] @ x[o, j, b, :]        # batched GEMM

The chunk blocks come in closed form.  Inside a chunk, stage ``l`` maps
input bit ``a_l`` to output bit ``b_l`` by the 2x2 block of the pair
that the other bits pick (the output bits below ``l``, the input bits
above it), so one path joins each input to each output and every block
entry is a product of one coefficient per stage.  Each stage's ``(4,
n/2)`` array is viewed on the block's digit axes by reshape and
transpose alone (:func:`_stage_factors`), and the views are multiplied
out in stage order (:func:`_product`).  The exact VJP contracts the
block's gradient back through the same views of the ``(stages, 4,
n/2)`` gradient (:func:`_chain`), the layout the optimizer expects.  A
ladder's dense block is the same product one level up, over the chunk
blocks (:func:`_closed_form`); the two tiers share the product and its
chain.  All view geometry is computed once per ``(n, stages)`` and
cached FFTW-style (:func:`get_plan`).

Rows meet the chunk operators in one loop, :func:`_walk`: per chunk a
regrouping copy and one ``backend.matmul``.  A ladder runs in one of
three ways:

* **Built per call** (:func:`grouped_forward` / :func:`grouped_vjp`):
  training, where the weights move every step, and raw-array callers,
  who hold nothing a cache could be validated against.  Every full
  ladder that :func:`repro.kernels.butterfly_apply` is handed runs here
  or densified, real or complex (FFT twiddles).  The walk copies every
  chunk's input, the first one included, into the caller's ``take``,
  so a context holds no plan scratch.
* **Built per call and densified** (:func:`dense_forward` /
  :func:`dense_vjp`): a recorded call whose folded ``in_features x
  out_features`` block fits the :data:`DENSE_MAX_N` budget and that
  brings at least ``in_features`` rows.  The block ``W`` comes in
  closed form (:func:`_closed_form`), its VJP is one contraction per
  chunk, and the call's own rows see one GEMM each way, so the ladder's
  cost no longer scales with batch x sequence.
* **Frozen** (:class:`FrozenLadder`): a layer's inference path builds
  its operators **once per weight version** — the same ``in x out``
  block when the fold fits the same budget, else the contiguous,
  already-transposed chunk operators that every later call walks, at
  every ``(rows, n)``.  Trained factors are static at inference, laid
  out once for the engine's buffers while every token streams through
  them.  The layer keeps the ladder in a
  :class:`FrozenLadderCache`, which revalidates it against the stage
  parameters' version counters on each call.

Frozen and recorded outputs of one ladder agree to rounding, not to the
bit, and nothing relies on more: a chunked frozen ladder's last chunk
computes only the columns its fold keeps, a GEMM BLAS may block
differently (n 1024 fp32 1024 -> 256 differs in the last bits), and a
dense block sums a row in another order than the chunks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..faults import fault_point
from ..telemetry import STATE, counter_inc, span
from . import backend
from .layout import check_power_of_two, num_stages
from .pool import ScratchPool, check_out, fresh

#: Largest number of stages fused into one chunk.  Radix 32 balances the
#: batched-GEMM efficiency against the O(n * 2^g) chunk-matrix build cost.
MAX_GROUP = 5

#: A :class:`FrozenLadder` multiplies its chunks out into one dense block
#: at build time when the block the layer's fold leaves of it,
#: ``in_features x out_features``, is no larger than ``DENSE_MAX_N x n``
#: (for a square ladder: ``n <= DENSE_MAX_N``); a recorded call with at
#: least ``in_features`` rows densifies the ladder per call under the
#: same rule (:func:`dense_forward`).  It is the one constant that picks
#: a ladder's path.  Measured (one BLAS thread, ms,
#: chunked vs dense; ``*`` = dense under the rule).  Inference, by input
#: shape:
#:
#: ======================  ==============  ==============  ==============
#: n, in -> out, dtype     ``(1,1024,.)``  ``(1,1,.)``     ``(8,1,.)``
#: ======================  ==============  ==============  ==============
#: 128, square, fp32 *     0.44 vs 0.32    0.023 vs 0.006  0.035 vs 0.014
#: 128, square, fp64 *     0.58 vs 0.61    0.017 vs 0.005  0.027 vs 0.021
#: 256, 64->256, fp32 *    0.80 vs 0.28    0.021 vs 0.006  0.036 vs 0.010
#: 256, 128->256, fp32 *   0.77 vs 0.49    0.020 vs 0.005  0.033 vs 0.016
#: 256, square, fp32       1.07 vs 0.98    0.018 vs 0.006  0.031 vs 0.027
#: 256, square, fp64       1.61 vs 2.20    0.018 vs 0.012  0.036 vs 0.077
#: 512, 128->512, fp32 *   4.49 vs 1.77    0.041 vs 0.013  0.081 vs 0.055
#: 512, 512->128, fp32 *   3.65 vs 1.67    0.033 vs 0.013  0.070 vs 0.048
#: 512, 128->512, fp64 *   7.00 vs 2.60    0.031 vs 0.014  0.071 vs 0.080
#: 512, 512->128, fp64 *   4.49 vs 3.02    0.027 vs 0.014  0.071 vs 0.074
#: 512, 256->512, fp32     2.85 vs 1.91    0.022 vs 0.012  0.047 vs 0.068
#: 512, square, fp32       3.99 vs 3.75    0.019 vs 0.020  0.043 vs 0.138
#: 512, square, fp64       5.21 vs 9.91    0.028 vs 0.063  0.077 vs 0.424
#: 1024, 128->1024, fp32 * 8.82 vs 2.56    0.033 vs 0.012  0.087 vs 0.062
#: 1024, 256->1024, fp32   8.84 vs 4.00    0.026 vs 0.016  0.070 vs 0.101
#: 1024, 256->1024, fp64   14.4 vs 8.02    0.030 vs 0.055  0.127 vs 0.362
#: ======================  ==============  ==============  ==============
#:
#: Within the budget the single GEMM wins prefill 1.5-3x and the decode
#: rows in fp32, and gives back under 15 % on a few fp64 rows; past it
#: the batched decode rows (the serving engine's step) lose up to 5x,
#: whatever a long prefill would gain.
#:
#: Recorded call, forward + VJP, by rows (grouped vs dense; the dense
#: column of a shape the rule refuses is :func:`dense_forward` called
#: directly; median of 9-25 calls in held buffers, sgemm ~117 GFLOP/s
#: at 1024^2):
#:
#: ======================  ==============  ==============
#: n, in -> out, dtype     2048 rows       256 rows
#: ======================  ==============  ==============
#: 128, square, fp32 *     2.44 vs 2.39    0.51 vs 0.55
#: 128, square, fp64 *     5.15 vs 5.06    0.65 vs 0.87
#: 256, 64->256, fp32 *    8.11 vs 2.65    0.89 vs 0.69
#: 256, 128->256, fp32 *   7.81 vs 4.55    0.92 vs 0.97
#: 256, square, fp32       7.70 vs 8.31    0.92 vs 1.55
#: 256, square, fp64       16.9 vs 18.5    1.20 vs 2.71
#: 512, 128->512, fp32 *   30.7 vs 8.94    1.80 vs 1.77
#: 512, 512->128, fp32 *   31.2 vs 9.25    1.90 vs 1.89  (rows < in)
#: 512, 128->512, fp64 *   45.0 vs 19.0    2.81 vs 3.07
#: 512, 512->128, fp64 *   44.5 vs 20.8    2.93 vs 3.17  (rows < in)
#: 512, 256->512, fp32     31.3 vs 16.7    1.78 vs 2.94
#: 512, square, fp32       31.4 vs 31.0    1.81 vs 5.25
#: 512, square, fp64       46.1 vs 63.1    2.72 vs 10.1
#: 1024, 128->1024, fp32 * 66.0 vs 19.2    4.33 vs 3.70
#: 1024, 256->1024, fp32   68.6 vs 33.2    4.27 vs 5.96
#: 1024, 256->1024, fp64   118 vs 65.2     9.46 vs 10.9
#: ======================  ==============  ==============
#:
#: Within the budget the dense call wins 1-3.5x at 2048 rows and runs
#: 1.3x faster to 1.3x slower at 256.  The squares the rule refuses are
#: break-even or lose at both row counts; the refused rectangles win ~2x
#: at 2048 rows and lose 1.4-1.7x at 256.  The block's build does not
#: scale with ``in``, but the call's three ``in x out`` GEMMs per row
#: do, so below the row floor the grouped call wins (512 -> 128 fp32 at
#: 16 / 64 rows: 0.71 / 0.93 ms against 1.06 / 1.12; square 128 at 127
#: rows: 0.33 against 0.43); they meet near ``in / 2`` (marked cells).
DENSE_MAX_N = 128


def dense_by_area(in_features: int, out_features: int, n: int) -> bool:
    """The one dense-or-chunked rule, shared by inference
    (:class:`FrozenLadder`) and recorded calls (:func:`dense_forward`)."""
    return in_features * out_features <= DENSE_MAX_N * n


@dataclass
class _ChunkPlan:
    """One fused run of ``gc`` stages starting at global stage ``s0``."""

    s0: int
    gc: int
    T: int   # 2**gc, the dense block size
    h0: int  # 2**s0, elements per low-bit position
    o: int   # n // (T * h0), outer blocks
    views: tuple  # per stage, see :func:`_stage_factors`


class GroupedPlan:
    """Cached geometry for one ``(n, num_stages)`` problem, fused
    :data:`MAX_GROUP` stages at a time: the chunks, each stage's view on
    its chunk's digit axes, and each fold's view of the chunk blocks.

    Also owns a pool of *transient* scratch buffers (:meth:`scratch`).
    Only arrays that never escape a single kernel call may use it —
    anything returned to the caller is the caller's ``take``'s, and a
    context keeps only what its caller's ``take`` holds.
    """

    def __init__(self, n: int, stages: int) -> None:
        check_power_of_two(n)
        if stages != num_stages(n):
            raise ValueError(
                f"grouped kernel needs the full ladder of {num_stages(n)} "
                f"stages for n={n}, got {stages}"
            )
        self.n = n
        self.stages = stages
        # Balance chunk sizes (e.g. 10 stages -> [5, 5]; 9 -> [5, 4]).
        nchunks = -(-stages // MAX_GROUP)
        base, rem = divmod(stages, nchunks)
        sizes = [base + (1 if k < rem else 0) for k in range(nchunks)]
        self.chunks: List[_ChunkPlan] = []
        s0 = 0
        for gc in sizes:
            T, h0 = 1 << gc, 1 << s0
            o = n // (T * h0)
            views = []
            for l in range(gc):
                # Stage s0 + l's pair index is (o, a_{>l}, b_{<l}, h0), so
                # its (4, n/2) array splits into (b_l, a_l, o, the digits
                # of a_{>l} and b_{<l}, h0), plus size-1 axes for b_{>l}
                # and a_{<l}, then moves onto the block's digit axes.
                u = gc - 1 - l
                shape = (2, 2, o, *(2,) * (u + l), h0, *(1,) * (u + l))
                perm = (2, 3 + u + l, *range(4 + u + l, 4 + 2 * u + l), 0,
                        *range(3 + u, 3 + u + l), *range(3, 3 + u), 1,
                        *range(4 + 2 * u + l, 4 + 2 * (u + l)))
                views.append((shape, perm))
            self.chunks.append(_ChunkPlan(s0, gc, T, h0, o, tuple(views)))
            s0 += gc
        # Plans are shared through the process-global cache, so the pool
        # is per thread and capped (see :class:`ScratchPool`).
        self._pool = ScratchPool()
        self._folds: dict = {}  # (in, out) -> geometry, see :func:`_factors`

    def scratch(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable uninitialized buffer for call-local temporaries,
        from this plan's :class:`~repro.kernels.pool.ScratchPool`."""
        return self._pool.take(tag, shape, dtype)


_PLAN_CACHE: dict = {}
_PLAN_CACHE_MAX = 32
_PLAN_CACHE_LOCK = threading.Lock()
# Always-on plain ints (not telemetry counters) so benchmarks can report
# plan-cache hit rates without the global telemetry opt-in; each event is
# also counted in the telemetry registry at its call site while that is on.
_PLAN_CACHE_HITS = 0
_PLAN_CACHE_MISSES = 0
# Frozen ladders built (see :class:`FrozenLadderCache`) and applied
# (:meth:`FrozenLadder.apply`).  Builds that keep pace with hits mean
# inference is interleaved with weight updates and every call pays the
# chunk-block build again.
_FROZEN_BUILDS = 0
_FROZEN_HITS = 0


def plan_cache_stats() -> dict:
    """Lifetime plan-cache ``{"hits", "misses", "size", "hit_rate"}`` plus
    the frozen-ladder ``{"frozen_builds", "frozen_hits"}`` (ladders built,
    ladder applies).  ``hit_rate`` is ``None`` before any lookup: compiled
    inference runs frozen ladders and never looks a plan up."""
    with _PLAN_CACHE_LOCK:
        hits, misses = _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
        size = len(_PLAN_CACHE)
        frozen_builds, frozen_hits = _FROZEN_BUILDS, _FROZEN_HITS
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": size,
        "hit_rate": (hits / total) if total else None,
        "frozen_builds": frozen_builds,
        "frozen_hits": frozen_hits,
    }


def get_plan(n: int, stages: int) -> GroupedPlan:
    """Fetch (or build and cache) the plan for an ``(n, stages)`` problem.

    Thread-safe: concurrent callers for the same key get one shared plan
    (the build runs under the cache lock — it is view geometry only, tens
    of microseconds — so no duplicate plans are ever created).
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES
    key = (n, stages)
    with _PLAN_CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is None:
            _PLAN_CACHE_MISSES += 1
            if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
                _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
            plan = GroupedPlan(n, stages)
            _PLAN_CACHE[key] = plan
            hit = False
        else:
            _PLAN_CACHE_HITS += 1
            hit = True
    counter_inc("kernels_plan_cache_hits_total" if hit
                else "kernels_plan_cache_misses_total")
    return plan


# ----------------------------------------------------------------------
# Blocks in closed form: stages -> chunk blocks -> a ladder's dense block
# ----------------------------------------------------------------------
def _product(factors: Sequence[np.ndarray], take: Callable,
             tag: str) -> List[np.ndarray]:
    """Every prefix product of ``factors`` (views over shared digit axes,
    size 1 where a factor reads no such digit), multiplied left to right
    by broadcasting: the first is ``factors[0]`` itself, the rest ``take``
    buffers ``{tag}{k}``.  The last is the block, given ``+ 0`` in place:
    a lone factor too, so factors view the caller's own buffers."""
    products = [factors[0]]
    for k, b in enumerate(factors[1:], 1):
        a = products[-1]
        out = take(f"{tag}{k}", tuple(map(max, a.shape, b.shape)), b.dtype)
        if out.dtype.kind == "c":  # as zgemm rounds it, with no fused multiply-add
            np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
            np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
        else:
            np.multiply(a, b, out=out)
        products.append(out)
    # A GEMM's sums start from +0, so the walk's blocks hold no -0.
    np.add(products[-1], 0, out=products[-1])
    return products


def _contract(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a * b`` summed over the axes on which ``out`` has size 1."""
    axes = list(range(a.ndim))
    keep = [i for i, n in enumerate(out.shape) if n > 1]
    np.einsum(a, axes, b, axes, keep, out=out.squeeze())
    return out


def _chain(G: np.ndarray, factors: Sequence[np.ndarray],
           products: Sequence[np.ndarray], dfactors: Sequence[np.ndarray],
           plan: GroupedPlan, tag: str) -> None:
    """The VJP of :func:`_product`: ``G``, the gradient of its last
    product, into ``dfactors`` (views of the factors' shapes).  Factor
    ``k``'s gradient is ``G`` summed against the product of the factors
    before it, and ``G`` moves down past it summed against the factor."""
    for k in range(len(factors) - 1, 0, -1):
        # Summed in plan scratch and copied: einsum runs several times
        # slower into a view as scattered as a stage's.
        np.copyto(dfactors[k], _contract(G, products[k - 1], plan.scratch(
            f"{tag}d{k}", factors[k].shape, G.dtype)))
        G = _contract(G, factors[k], plan.scratch(
            f"{tag}{k}", products[k - 1].shape, G.dtype))
    np.copyto(dfactors[0], G)


def _stage_factors(chunk: _ChunkPlan,
                   arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The chunk's stages in ``arrays`` (``(4, n/2)`` each, a ladder's
    coefficients or their gradients) as views over its block's digit
    axes ``(o, h0, b_{gc-1} .. b_0, a_{gc-1} .. a_0)``.  Stage ``l`` maps
    input digit ``a_l`` to output digit ``b_l`` at the pair picked by
    ``o``, ``h0``, the output digits below ``l`` and the input digits
    above it; it has size 1 on the rest."""
    return [arrays[chunk.s0 + l].reshape(shape).transpose(perm)
            for l, (shape, perm) in enumerate(chunk.views)]


class ChunkBlocks(NamedTuple):
    """Every chunk's block ``Ms[k]`` ``(o, h0, T, T)`` (``M[o, j]`` maps
    ``x -> M @ x``) and what its VJP needs, per chunk: its stages'
    views (:func:`_stage_factors`) and their :func:`_product`."""

    Ms: list
    factors: list
    products: list


def _chunk_blocks(plan: GroupedPlan, coeffs: Sequence[np.ndarray], dtype,
                  take: Callable = fresh) -> ChunkBlocks:
    """Every chunk's block as the product of its stages' views over a
    copy of ``coeffs`` in ``dtype`` (``take`` buffers ``grouped.coeffs``
    and ``grouped.P{k}.{l}``)."""
    stages = take("grouped.coeffs", (plan.stages, 4, plan.n // 2), dtype)
    for s, c in enumerate(coeffs):
        stages[s] = c
    factors = [_stage_factors(chunk, stages) for chunk in plan.chunks]
    products = [_product(f, take, f"grouped.P{k}.") for k, f in enumerate(factors)]
    Ms = [p[-1].reshape(c.o, c.h0, c.T, c.T)
          for c, p in zip(plan.chunks, products)]
    return ChunkBlocks(Ms, factors, products)


def _chunk_blocks_vjp(dMs: Sequence[np.ndarray], blocks: ChunkBlocks,
                      plan: GroupedPlan, take: Callable) -> np.ndarray:
    """The chunk blocks' gradients ``dMs`` as the stage coefficients'
    ``(stages, 4, n/2)`` gradient, a ``take`` buffer written through the
    stages' views."""
    dtype = blocks.Ms[0].dtype
    G = take("grouped.gcoeffs", (plan.stages, 4, plan.n // 2), dtype)
    for k, (chunk, dM) in enumerate(zip(plan.chunks, dMs)):
        products = blocks.products[k]
        _chain(dM.reshape(products[-1].shape), blocks.factors[k], products,
               _stage_factors(chunk, G), plan, f"grouped.G{k}.")
    return G


# ----------------------------------------------------------------------
# Forward / VJP over the full stage ladder
# ----------------------------------------------------------------------
class GroupedContext(NamedTuple):
    """Saved state from :func:`grouped_forward` needed by :func:`grouped_vjp`."""

    plan: GroupedPlan
    dtype: np.dtype
    rows: int
    take: Callable  # the forward's buffers: the VJP's outputs too
    MTs: list  # transposed chunk blocks (o, h0, q, t)
    blocks: ChunkBlocks
    xs: list  # chunk inputs, arranged (o, h0, rows, T)


def _pad_last(x: np.ndarray, n: int, take: Callable = fresh) -> np.ndarray:
    """``x`` zero-padded on its last axis to width ``n`` in a ``take``
    buffer, or ``x`` itself when it is that wide already."""
    # Slice assignments: np.pad's generic machinery costs ~20 us per call
    # whatever the size.
    width = x.shape[-1]
    if width == n:
        return x
    out = take("butterfly.pad", x.shape[:-1] + (n,), x.dtype)
    out[..., :width] = x
    out[..., width:] = 0
    return out


def _walk(
    plan: GroupedPlan,
    ops: Sequence[np.ndarray],
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    inputs: Optional[Callable] = None,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Stream ``x`` ``(..., n)`` through the transposed chunk operators
    ``ops`` — per chunk one regrouping copy and one ``backend.matmul`` —
    into ``out`` or a new array; returns it and the chunk inputs.  The
    one forward chunk loop: a recorded grouped call and a chunked frozen
    apply run it; a dense block comes from :func:`_closed_form` instead.

    Chunk arrays are ``(..., o, h0, S, T)``: the GEMM axes are ``(S, T)``,
    ``S`` the last leading axis of ``x`` and the axes before it batch
    axes (:class:`FrozenLadder`'s row independence).  The last operator
    may keep only its first columns (a fold); the result keeps ``out``'s
    width, else every column computed.  ``inputs``, a ``take``, gets a
    copy of every chunk input, the first one included, in the operators'
    dtype; without it the first chunk reads ``x`` (of that dtype) through
    a view and the rest live in plan scratch.
    """
    lead = x.shape[:-1]
    batch, S = lead[:-1], (lead[-1] if lead else 1)
    B = math.prod(batch)
    dtype = ops[0].dtype
    first = plan.chunks[0]
    # The first chunk has h0 == 1, so its arrangement is a view.
    nb = len(batch)
    cur = (x.reshape(batch + (S, first.o, 1, first.T))
           .transpose(*range(nb), nb + 1, nb + 2, nb, nb + 3))
    xs: List[np.ndarray] = []
    for k, (chunk, MT) in enumerate(zip(plan.chunks, ops)):
        shape = batch + (chunk.o, chunk.h0, S, chunk.T)
        if k or inputs is not None:
            buf = (inputs or plan.scratch)(f"grouped.x{k}", shape, dtype)
            if k:
                # Previous output (o * T, h0', S, T') regroups into
                # (o, h0 = T' * h0', S, T): undo the old grouping and
                # apply the new one in a single copy.
                h0p, Tp = y.shape[-3], y.shape[-1]
                np.copyto(
                    buf.reshape(B, chunk.o, Tp, h0p, S, chunk.T),
                    y.reshape(B, chunk.o, chunk.T, h0p, S, Tp)
                    .transpose(0, 1, 5, 3, 4, 2),
                )
            else:
                np.copyto(buf, cur)
            cur = buf
        y = plan.scratch(f"y{k}", shape[:-1] + (MT.shape[-1],), dtype)
        backend.matmul(cur, MT, y)
        xs.append(cur)
    # The last chunk has one block: (1, h0, S, cols) -> (S, cols * h0), of
    # which the result keeps its own width: whole groups of h0 positions
    # in one copy, the group a fold cuts in another.
    h0, cols = y.shape[-3], y.shape[-1]
    arranged = y.reshape(B, h0, S, cols).transpose(0, 2, 3, 1)
    if out is None:
        out = np.empty(lead + (cols * h0,), dtype)
    flat = out.reshape(B, S, -1)
    whole, rest = divmod(flat.shape[-1], h0)
    np.copyto(flat[..., : whole * h0].reshape(B, S, whole, h0),
              arranged[:, :, :whole])
    if rest:
        flat[..., whole * h0:] = arranged[:, :, whole, :rest]
    return out, xs


def grouped_forward(
    x: np.ndarray,
    coeffs: Sequence[np.ndarray],
    plan: GroupedPlan,
    need_ctx: bool = True,
    take: Callable = fresh,
) -> Tuple[np.ndarray, Optional[GroupedContext]]:
    """Apply the full stage ladder to ``x`` of shape ``(rows, n)``.

    The result, and what a context saves (each chunk's operator and
    input, the blocks' prefix products), are ``take`` buffers; the rest
    is the plan's scratch."""
    rows, n = x.shape
    dtype = np.result_type(x.dtype, *[c.dtype for c in coeffs])
    saved = take if need_ctx else plan.scratch
    blocks = _chunk_blocks(plan, coeffs, dtype, saved)
    MTs = []
    for k, M in enumerate(blocks.Ms):
        MTs.append(saved(f"grouped.MT{k}", M.shape, dtype))
        np.copyto(MTs[k], M.swapaxes(-1, -2))
    y, xs = _walk(plan, MTs, x, take("grouped.y", (rows, n), dtype),
                  inputs=saved)
    if not need_ctx:
        return y, None
    return y, GroupedContext(plan, dtype, rows, take, MTs, blocks, xs)


def grouped_vjp(
    grad: np.ndarray, ctx: GroupedContext
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """VJP of :func:`grouped_forward`: returns ``(grad_x, [grad_coeffs])``."""
    plan = ctx.plan
    rows, n = ctx.rows, plan.n
    dMs: List[Optional[np.ndarray]] = [None] * len(plan.chunks)
    # The gradient is carried batch-last, as gT[o, h0, T, rows]: then both
    # backward GEMMs consume it directly (dM = gT @ x, gxT = MT @ gT) and
    # each chunk needs only one rearrangement copy.
    gT = None
    for k in range(len(plan.chunks) - 1, -1, -1):
        chunk = plan.chunks[k]
        shape = (chunk.o, chunk.h0, chunk.T, rows)
        grT = plan.scratch(f"grT{k}", shape, ctx.dtype)
        if k == len(plan.chunks) - 1:
            # natural (B, n) -> (o, h0, T, B)
            np.copyto(
                grT,
                grad.reshape(rows, chunk.o, chunk.T, chunk.h0)
                .transpose(1, 3, 2, 0),
            )
        else:
            # (o', h0', T', B) -> (o, h0, T, B) with o = o' T', h0' = h0 T
            nxt = plan.chunks[k + 1]
            np.copyto(
                grT.reshape(nxt.o, nxt.T, chunk.h0, chunk.T, rows),
                gT.reshape(nxt.o, chunk.T, chunk.h0, nxt.T, rows)
                .transpose(0, 3, 2, 1, 4),
            )
        dM = plan.scratch(f"dM{k}", ctx.MTs[k].shape, ctx.dtype)
        backend.matmul(grT, ctx.xs[k], dM)
        dMs[k] = dM
        gT = plan.scratch(f"gT{k}", shape, ctx.dtype)
        backend.matmul(ctx.MTs[k], grT, gT)
    chunk0 = plan.chunks[0]
    gx = ctx.take("grouped.gx", (rows, n), ctx.dtype)
    np.copyto(gx.reshape(rows, chunk0.o, chunk0.T, chunk0.h0),
              gT.transpose(3, 0, 2, 1))
    return gx, list(_chunk_blocks_vjp(dMs, ctx.blocks, plan, ctx.take))


# ----------------------------------------------------------------------
# The dense block in closed form
# ----------------------------------------------------------------------
def _factors(plan: GroupedPlan, Ms: Sequence[np.ndarray], in_features: int,
             out_features: int) -> List[np.ndarray]:
    """The chunk blocks ``Ms`` as views over the fold's ``2K`` digit axes
    (row digits ``a_{K-1} .. a_0``, then column digits; digit ``l`` is an
    index's chunk-``l`` bits), of size 1 where the chunk reads no such
    digit, each digit cut below the fold's last index (its box)."""
    geometry = plan._folds.get((in_features, out_features))
    if geometry is None:
        K = len(plan.chunks)
        R = [min(c.T, -(-in_features // c.h0)) for c in plan.chunks]
        C = [min(c.T, -(-out_features // c.h0)) for c in plan.chunks]
        geometry = []
        for k, c in enumerate(plan.chunks):
            # M[o, j, b_k, a_k]: o is the row digits above k, j the column
            # digits below, both high first.
            hi, lo = range(K - 1, k - 1, -1), range(k, -1, -1)
            shape = [plan.chunks[l].T for l in (*hi[:-1], *lo[1:])] + [c.T, c.T]
            perm = [*range(K - 1 - k), K, K - 1, *range(K - 1 - k, K - 1)]
            box = (*(slice(R[l]) for l in hi), *(None,) * (K - 1),
                   *(slice(C[l]) for l in lo))
            geometry.append((tuple(shape), tuple(perm), box))
        plan._folds[(in_features, out_features)] = geometry
    return [M.reshape(shape).transpose(perm)[box]
            for M, (shape, perm, box) in zip(Ms, geometry)]


def _closed_form(
    plan: GroupedPlan, Ms: Sequence[np.ndarray], in_features: int,
    out_features: int, take: Callable = fresh,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The ladder's ``(in_features, out_features)`` block ``W`` and the
    prefix products a VJP needs (``take`` buffers; the last, ``W``'s box).
    Chunk ``k`` maps row digit ``a_k`` to column digit ``b_k`` by
    ``M_k[a_{>k}, b_{<k}][b_k, a_k]``: one path joins each row to each
    column, and ``W[i, j]`` is the product of one entry per chunk, taken
    in walk order so the bytes are the identity's rows walked."""
    products = _product(_factors(plan, Ms, in_features, out_features), take,
                        "dense.P")
    W = products[-1].reshape(math.prod(products[-1].shape[: len(Ms)]), -1)
    return W[:in_features, :out_features], products


def dense_block(coeffs: Sequence[np.ndarray], dtype) -> np.ndarray:
    """The full ladder's dense ``(n, n)`` block (``y = x @ W``), in
    closed form."""
    n = 2 * coeffs[0].shape[-1]
    plan = get_plan(n, len(coeffs))
    return _closed_form(plan, _chunk_blocks(plan, coeffs, dtype).Ms, n, n)[0]


# ----------------------------------------------------------------------
# Densified per call: the recorded path of a small fold
# ----------------------------------------------------------------------
def dense_forward(
    x: np.ndarray,
    coeffs: Sequence[np.ndarray],
    plan: GroupedPlan,
    out_features: int,
    take: Callable = fresh,
) -> Tuple[np.ndarray, tuple]:
    """``(rows, in_features) -> (rows, out_features)`` as one GEMM with
    the ladder's block ``W`` (:func:`_closed_form`), built for this call
    (the weights move every step, so nothing is cached across calls).

    The context keeps ``x`` and the coefficients by reference, and ``W``
    and both tiers' prefix products: nothing else of ``rows`` height.
    ``y`` and the rest are ``take`` buffers.
    """
    rows, in_features = x.shape
    dtype = np.result_type(x.dtype, *[c.dtype for c in coeffs])
    blocks = _chunk_blocks(plan, coeffs, dtype, take)
    W, products = _closed_form(plan, blocks.Ms, in_features, out_features, take)
    y = take("dense.y", (rows, out_features), dtype)
    backend.matmul(x, W, y)
    return y, (plan, take, x, W, blocks, products)


def dense_vjp(
    grad: np.ndarray, ctx: tuple
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """VJP of :func:`dense_forward`: ``gx = g @ W^T``, and the chain rule
    through the block — ``dW = x^T @ g`` down both tiers' products, one
    contraction per chunk, then one per stage."""
    plan, take, x, W, blocks, products = ctx
    Ms = blocks.Ms
    dtype, (in_features, out_features) = W.dtype, W.shape
    gx = take("dense.gx", x.shape, dtype)
    backend.matmul(grad, W.T, gx)
    # Zeros wherever the fold's box reaches past the fold, and in every
    # chunk block's entries outside the box.
    dW = plan.scratch("dense.dW", products[-1].shape, dtype)
    dW[...] = 0
    backend.matmul(x.T, grad, dW.reshape(math.prod(dW.shape[: len(Ms)]), -1)
                   [:in_features, :out_features])
    dMs = [plan.scratch(f"dense.dM{k}", M.shape, dtype) for k, M in enumerate(Ms)]
    for dM in dMs:
        dM[...] = 0
    _chain(dW, _factors(plan, Ms, in_features, out_features), products,
           _factors(plan, dMs, in_features, out_features), plan, "dense.G")
    return gx, list(_chunk_blocks_vjp(dMs, blocks, plan, take))


# ----------------------------------------------------------------------
# Frozen ladder: the inference path
# ----------------------------------------------------------------------
class FrozenLadder:
    """A full ladder densified once, in one of two forms.  When the folded
    ``in_features x out_features`` block fits the :data:`DENSE_MAX_N`
    budget (every ladder of at most :data:`MAX_GROUP` stages, an
    ``r_ffn = 4`` FFN's two ladders up to ``d_hidden = 128``), ``ops`` is
    that one block, in closed form (:func:`_closed_form`), and
    :meth:`apply` a single GEMM.  Otherwise ``ops`` are the chunk
    operators (:func:`_chunk_blocks`), contiguous and already
    transposed, and :meth:`apply` walks them (:func:`_walk`).

    Arithmetic per row is the grouped path's ``n * T`` multiply-adds per
    chunk (what training already pays) or the dense block's ``in * out``,
    not the butterfly's ``2 n`` per stage; layers keep reporting the
    butterfly count in ``flops()``.

    ``in_features`` / ``out_features`` fold :class:`ButterflyLinear
    <repro.nn.butterfly_layer.ButterflyLinear>`'s zero-pad and output
    slice into the operators where that is free: a single block keeps
    only its first ``in_features`` rows and ``out_features`` columns,
    and a chunked ladder's last chunk only the columns that land below
    ``out_features`` (its input is zero-filled to ``n`` in scratch).
    :meth:`apply` then takes ``(..., in_features)`` and returns
    ``(..., out_features)`` directly.

    **Row independence.**  ``apply`` multiplies on the input's own
    leading axes, like :func:`repro.kernels.linear_act_forward`:
    ``(B, S, in)`` runs per-``B`` GEMMs with ``M = S`` and never
    flattens the batch into ``M``.  BLAS picks its kernel (gemv, or a
    gemm blocking) by ``M``, so a flattened ``(B*S, n)`` GEMM gives a
    decode row different last bits depending on who shares its batch;
    the serving engine's failover replay and its batched-vs-solo
    identity rely on a row's bits being its own.
    """

    __slots__ = ("plan", "dtype", "in_features", "out_features", "ops")

    def __init__(
        self,
        coeffs: Sequence[np.ndarray],
        dtype,
        in_features: Optional[int] = None,
        out_features: Optional[int] = None,
    ) -> None:
        global _FROZEN_BUILDS
        n = 2 * coeffs[0].shape[-1]
        plan = get_plan(n, len(coeffs))
        in_features = n if in_features is None else in_features
        out_features = n if out_features is None else out_features
        if not (1 <= in_features <= n and 1 <= out_features <= n):
            raise ValueError(
                f"in/out features must lie in [1, {n}], got "
                f"in={in_features}, out={out_features}"
            )
        self.plan = plan
        self.dtype = np.dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        Ms = _chunk_blocks(plan, coeffs, self.dtype).Ms
        if dense_by_area(in_features, out_features, n):
            ops = [_closed_form(plan, Ms, in_features, out_features)[0]]
        else:
            # M[o, j] maps x -> M @ x, so the operators are the transposes;
            # an output position is t * h0 + j in the last chunk (one block).
            ops = [M.swapaxes(-1, -2) for M in Ms]
            ops[-1] = ops[-1][..., : -(-out_features // plan.chunks[-1].h0)]
        self.ops = [np.ascontiguousarray(op) for op in ops]
        with _PLAN_CACHE_LOCK:
            _FROZEN_BUILDS += 1
        counter_inc("kernels_frozen_ladder_builds_total")

    def apply(self, x: np.ndarray, out=None) -> np.ndarray:
        """``(..., in_features) -> (..., out_features)``; the result is
        always an owned array (intermediates live in pooled scratch) —
        or ``out``, a C-contiguous array of the result's shape and dtype
        that does not alias ``x``, filled with the same bytes.  Owns the
        ``kernels.butterfly_apply`` fault point and ``path="frozen"`` span,
        and counts one frozen hit."""
        global _FROZEN_HITS
        plan = self.plan
        fault_point("kernels.butterfly_apply", stages=plan.stages)
        _FROZEN_HITS += 1  # unlocked: a diagnostic on the decode path
        if STATE.on:  # no call at all on the decode path while it is off
            counter_inc("kernels_frozen_ladder_hits_total")
        with span("kernels.butterfly_apply", n=plan.n, path="frozen"):
            x = np.asarray(x, dtype=self.dtype)
            if x.shape[-1] != self.in_features:
                raise ValueError(
                    f"expected input dim {self.in_features}, got {x.shape[-1]}"
                )
            shape = x.shape[:-1] + (self.out_features,)
            if out is None:
                out = np.empty(shape, dtype=self.dtype)
            else:
                check_out(out, shape, self.dtype, x)
            if len(self.ops) == 1:
                backend.matmul(x, self.ops[0], out)
            else:
                _walk(plan, self.ops, _pad_last(x, plan.n, plan.scratch), out)
            return out


class FrozenLadderCache:
    """One layer's :class:`FrozenLadder`, rebuilt only when what it was
    built from changes.

    The owner (a ``ButterflyLinear``) keeps one of these and asks it for
    the ladder on every inference call.  The entry records each stage
    parameter's ``(version, data)`` plus the input dtype — the rule
    :func:`cached_transpose <repro.kernels.fused.cached_transpose>` uses
    for ``W^T`` — so an optimizer step or ``load_state_dict`` (version
    bump), a ``.data`` rebind, or a dtype-context switch rebuilds it and
    nothing else does.  Copies and pickles start empty: the ladder is
    derived state, and its plan pins a thread-local scratch pool.
    """

    __slots__ = ("in_features", "out_features", "_entry")

    def __init__(self, in_features: int, out_features: int) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self._entry = None

    def __reduce__(self):
        return (FrozenLadderCache, (self.in_features, self.out_features))

    def get(self, stages: Sequence, x_dtype) -> FrozenLadder:
        """The ladder over ``stages`` (objects with ``.data`` and a
        ``version`` counter, in full-ladder order) for inputs of
        ``x_dtype``, real or complex."""
        entry = self._entry
        if entry is not None and entry[0] == x_dtype and all(
            stage.version == version and stage.data is data
            for stage, (version, data) in zip(stages, entry[1])
        ):
            return entry[2]
        arrays = [stage.data for stage in stages]
        dtype = np.result_type(x_dtype, *[a.dtype for a in arrays])
        ladder = FrozenLadder(arrays, dtype, self.in_features,
                              self.out_features)
        stamps = [(stage.version, stage.data) for stage in stages]
        self._entry = (np.dtype(x_dtype), stamps, ladder)
        return ladder
