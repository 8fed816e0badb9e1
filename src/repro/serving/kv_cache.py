"""Per-layer key/value caches for incremental decoder inference.

A :class:`DecoderKVCache` holds, for every decoder block, the projected
keys and values of all tokens seen so far, so a decode step only runs
the projections for the newest token and attends against the cache
(O(T) per token instead of the O(T^2) full-window recompute the seed
``generate`` loop performed).

Rows are per-request: ``lengths[b]`` tracks how many cached positions
row ``b`` holds, so a single cache serves a continuously-batched set of
sequences at different context lengths (padded slots are masked inside
attention).  Rows can be dropped (:meth:`select_rows`) when sequences
finish and caches can be concatenated (:meth:`merge`) when freshly
prefilled requests join the running batch — the two compaction
primitives the scheduler builds on.

Capacity is fixed at ``max_len`` (the model's positional-embedding
horizon).  The sliding-window eviction policy lives one level up: the
model uses learned *absolute* positions, so once a row reaches
``max_len`` its cached keys cannot simply shift — the caller re-prefills
the clipped window instead (see ``ButterflyDecoderLM.generate`` and the
scheduler), which keeps incremental decoding exactly equivalent to the
full-window recompute at the boundary.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..kernels.dtype import get_default_dtype


class LayerKV:
    """Cached keys/values of one attention layer: ``(batch, heads, max_len, d_head)``."""

    __slots__ = ("k", "v")

    def __init__(self, k: np.ndarray, v: np.ndarray) -> None:
        self.k = k
        self.v = v

    def view(self, total: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached keys/values truncated to ``total`` positions."""
        return self.k[:, :, :total], self.v[:, :, :total]


class DecoderKVCache:
    """Key/value cache for every block of a decoder, batched over requests."""

    def __init__(
        self,
        n_layers: int,
        batch: int,
        n_heads: int,
        d_head: int,
        max_len: int,
        dtype=None,
    ) -> None:
        if n_layers < 1 or batch < 0 or n_heads < 1 or d_head < 1 or max_len < 1:
            raise ValueError("cache dimensions must be positive")
        dtype = dtype or get_default_dtype()
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.max_len = max_len
        self.dtype = np.dtype(dtype)
        self.lengths = np.zeros(batch, dtype=np.int64)
        shape = (batch, n_heads, max_len, d_head)
        self._layers = [
            LayerKV(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))
            for _ in range(n_layers)
        ]

    # ------------------------------------------------------------------
    @property
    def batch(self) -> int:
        return self.lengths.shape[0]

    def layer(self, index: int) -> LayerKV:
        return self._layers[index]

    def advance(self, s_new: int) -> None:
        """Commit ``s_new`` freshly written positions on every row."""
        self.lengths = self.lengths + s_new

    def rows_full(self) -> np.ndarray:
        """Boolean mask of rows that hit ``max_len`` (need window re-prefill)."""
        return self.lengths >= self.max_len

    def clone(self) -> "DecoderKVCache":
        """Deep copy of every layer's keys/values and the length vector.

        This is the KV half of the resilience layer's step snapshot
        (:mod:`repro.serving.resilience`): a clone taken before a decode
        step, restored after an injected fault, makes the retried step
        bit-identical to the failed attempt's starting state.
        """
        out = DecoderKVCache(
            self.n_layers, 0, self.n_heads, self.d_head,
            self.max_len, dtype=self.dtype,
        )
        out.lengths = self.lengths.copy()
        for src, dst in zip(self._layers, out._layers):
            dst.k = src.k.copy()
            dst.v = src.v.copy()
        return out

    # ------------------------------------------------------------------
    # Continuous-batching primitives
    # ------------------------------------------------------------------
    def select_rows(self, rows: Sequence[int]) -> "DecoderKVCache":
        """New cache holding only ``rows``, in the given order (compaction)."""
        rows = np.asarray(rows, dtype=np.int64)
        out = DecoderKVCache(
            self.n_layers, len(rows), self.n_heads, self.d_head,
            self.max_len, dtype=self.dtype,
        )
        out.lengths = self.lengths[rows].copy()
        for src, dst in zip(self._layers, out._layers):
            dst.k[...] = src.k[rows]
            dst.v[...] = src.v[rows]
        return out

    @staticmethod
    def merge(caches: Sequence["DecoderKVCache"]) -> "DecoderKVCache":
        """Concatenate cache rows (new requests joining the running batch)."""
        caches = [c for c in caches if c is not None and c.batch > 0]
        if not caches:
            raise ValueError("merge requires at least one non-empty cache")
        first = caches[0]
        for other in caches[1:]:
            if (
                other.n_layers != first.n_layers
                or other.n_heads != first.n_heads
                or other.d_head != first.d_head
                or other.max_len != first.max_len
            ):
                raise ValueError("cannot merge caches of different geometry")
            if other.dtype != first.dtype:
                # Slice assignment would cast silently, and the attention
                # kernels would run in a dtype the program never compiled for.
                raise ValueError(
                    f"cannot merge a {other.dtype} cache into a {first.dtype} batch"
                )
        total_batch = sum(c.batch for c in caches)
        out = DecoderKVCache(
            first.n_layers, 0, first.n_heads,
            first.d_head, first.max_len, dtype=first.dtype,
        )
        out.lengths = np.concatenate([c.lengths for c in caches])
        # Allocate uninitialized and slice-assign each source (rather than
        # zero-fill + np.concatenate temporaries): merge sits on the
        # scheduler's admission path, so the memory traffic matters.  The
        # slice assignments below cover every row, and every source buffer
        # is itself zeros-born (__init__/select_rows) — so no slot is ever
        # truly uninitialized, an invariant the attention kernels' masking
        # relies on (stale slots are finite, never NaN).
        shape = (total_batch, first.n_heads, first.max_len, first.d_head)
        for layer_idx in range(first.n_layers):
            layer = out._layers[layer_idx]
            layer.k = np.empty(shape, dtype=first.dtype)
            layer.v = np.empty(shape, dtype=first.dtype)
            offset = 0
            for cache in caches:
                src = cache._layers[layer_idx]
                layer.k[offset:offset + cache.batch] = src.k
                layer.v[offset:offset + cache.batch] = src.v
                offset += cache.batch
        return out
