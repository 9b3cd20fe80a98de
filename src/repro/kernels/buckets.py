"""Length-bucketed slab index matrices over one corpus axis.

The samplers visit tokens either word-by-word or document-by-document (the two
orders of the paper's Sec. 5.2 layout).  A :class:`SlabBucket` packs all rows
(words or documents) whose length falls in the same power-of-two band into one
rectangular ``(n_slabs, slab_len)`` matrix of *flat token indices*, so the
rows of a whole bucket are processed together with single NumPy operations —
the per-row Python loop disappears from the hot path.

A boolean mask marks the real cells (padding positions repeat the row's
**last** token, so they are valid indices), and the one consumer,
:mod:`repro.kernels.warp`, reads a chunk only as ``tokens[mask]``: no padded
cell is ever gathered, drawn for or scattered.

Buckets depend only on the corpus structure (offsets and visiting order), so
they are built once and cached on the corpus instance via
:func:`corpus_buckets`; a sliced shard (``Corpus.slice``) is a new object and
gets its own cache, which is exactly the "rebuild only when the corpus slice
changes" policy the training layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SlabBucket", "build_buckets", "corpus_buckets"]

#: Cap on ``n_slabs * slab_len`` cells processed by one kernel invocation.
#: Keeps the per-chunk working set (a few float64 arrays of this size) in the
#: L2/L3 range instead of materialising corpus-sized temporaries.
MAX_SLAB_CELLS = 1 << 18

#: Floor on the width of WarpLDA's per-row slot tables
#: (:func:`repro.kernels.warp.slot_table_width`): short rows still get 64
#: slots, so ``K <= 64`` always takes the dense ``W == K`` layout.
MIN_SLOT_WIDTH = 64


@dataclass(frozen=True)
class SlabBucket:
    """One padded bucket of equal-band rows over a corpus axis.

    Attributes
    ----------
    rows:
        Row ids (word ids or document indices) of the slabs, shape ``(R,)``.
    tokens:
        Flat token indices, shape ``(R, L)``; padding cells repeat the row's
        last token (always a valid index).
    mask:
        ``True`` for real cells, shape ``(R, L)``.
    lengths:
        True row lengths, shape ``(R,)``; every entry is ``>= 1``.
    """

    rows: np.ndarray
    tokens: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of slabs ``R`` in the bucket."""
        return int(self.rows.size)

    @property
    def slab_len(self) -> int:
        """Padded row length ``L`` (a power of two)."""
        return int(self.tokens.shape[1])

    def chunks(
        self, max_cells: int = MAX_SLAB_CELLS, max_rows: Optional[int] = None
    ) -> Iterator["SlabBucket"]:
        """Yield row-range views whose ``R * L`` stays below ``max_cells``.

        ``max_rows`` additionally bounds ``R`` — the kernels use it to cap
        their ``R x W`` per-row count tables (``W`` the slot-table width of
        the WarpLDA chain, ``K`` for the dense samplers), which ``max_cells``
        (an ``R x L`` budget) cannot see.
        """
        rows_per_chunk = max(1, max_cells // max(1, self.slab_len))
        if max_rows is not None:
            rows_per_chunk = max(1, min(rows_per_chunk, max_rows))
        if rows_per_chunk >= self.num_rows:
            yield self
            return
        for start in range(0, self.num_rows, rows_per_chunk):
            stop = start + rows_per_chunk
            yield SlabBucket(
                rows=self.rows[start:stop],
                tokens=self.tokens[start:stop],
                mask=self.mask[start:stop],
                lengths=self.lengths[start:stop],
            )


def build_buckets(
    offsets: np.ndarray,
    order: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> List[SlabBucket]:
    """Bucket the rows described by CSR/CSC ``offsets`` into padded slabs.

    Parameters
    ----------
    offsets:
        Length ``R + 1`` row offsets; row ``r`` owns positions
        ``[offsets[r], offsets[r+1])``.
    order:
        Optional permutation mapping positions to flat token indices (the
        corpus ``word_order`` for the word axis); ``None`` means positions
        *are* token indices (the document axis).
    rows:
        Optional subset of row ids to bucket; ``None`` buckets every row.
        The streaming corpus uses this to rebuild only the rows an append
        actually touched.

    Returns
    -------
    list of SlabBucket
        One bucket per occupied power-of-two length band, ascending by
        ``slab_len``.  Empty rows are dropped (the phases skip them anyway).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if rows is None:
        nonempty = np.flatnonzero(lengths)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        nonempty = rows[lengths[rows] > 0]
    buckets: List[SlabBucket] = []
    if nonempty.size == 0:
        return buckets

    # Power-of-two band of each non-empty row: smallest L = 2^b >= length.
    bands = np.ceil(np.log2(np.maximum(lengths[nonempty], 1))).astype(np.int64)
    bands[lengths[nonempty] == 1] = 0
    for band in np.unique(bands):
        rows = nonempty[bands == band]
        slab_len = 1 << int(band)
        row_lengths = lengths[rows]
        # Column c of row r holds token offsets[r] + min(c, length - 1): real
        # cells in order, padding saturated at the last token (valid index).
        positions = offsets[rows][:, None] + np.minimum(
            np.arange(slab_len)[None, :], (row_lengths - 1)[:, None]
        )
        tokens = positions if order is None else order[positions]
        mask = np.arange(slab_len)[None, :] < row_lengths[:, None]
        buckets.append(
            SlabBucket(
                rows=rows,
                tokens=np.ascontiguousarray(tokens),
                mask=mask,
                lengths=row_lengths,
            )
        )
    return buckets


def corpus_buckets(corpus, axis: str) -> List[SlabBucket]:
    """Bucket ``corpus`` along ``axis`` (``"word"`` or ``"doc"``), cached.

    The bucket list is memoised on the corpus instance, so repeated
    iterations — and every sampler sharing the corpus — reuse the same index
    matrices; a new corpus object (e.g. a shard view) rebuilds its own.
    """
    if axis not in ("word", "doc"):
        raise ValueError(f"axis must be 'word' or 'doc', got {axis!r}")
    cache = corpus.__dict__.setdefault("_slab_bucket_cache", {})
    if axis not in cache:
        if axis == "word":
            cache[axis] = build_buckets(corpus.word_offsets, corpus.word_order)
        else:
            cache[axis] = build_buckets(corpus.doc_offsets)
    return cache[axis]
