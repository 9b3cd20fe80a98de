"""Length-bucketed bands of rows over one corpus axis.

The samplers visit tokens either word-by-word or document-by-document (the two
orders of the paper's Sec. 5.2 layout): the token-major CSR order with
``doc_offsets``, and the CSC order ``word_order`` with ``word_offsets``.  A
:class:`SlabBucket` groups the rows (words or documents) whose length falls in
the same power-of-two band, so the rows of a whole band are processed together
with single NumPy operations — the per-row Python loop disappears from the hot
path.

A band is a view over that layout, never a copy of it: the row ids, their
lengths, where each row starts in the axis order (``offsets[rows]``) and, on
the word axis, a reference to the ``word_order`` permutation.  The kernels
read a chunk's flat token indices through one ragged gather,
:meth:`SlabBucket.token_indices`, so only real tokens are ever gathered,
drawn for or scattered, and the memory of a band is O(rows) whatever the
corpus size — a memory-mapped corpus trains straight from its mapped
``word_order``.

Buckets depend only on the corpus structure (offsets and visiting order), so
they are built once and cached on the corpus instance via
:func:`corpus_buckets`; a sliced shard (``Corpus.slice``) is a new object and
gets its own cache, which is exactly the "rebuild only when the corpus slice
changes" policy the training layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels.proposals import token_layout

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
    """One band of rows over a corpus axis whose lengths share a power of two.

    Attributes
    ----------
    rows:
        Row ids (word ids or document indices), shape ``(R,)``.
    lengths:
        True row lengths, shape ``(R,)``; every entry is ``>= 1``.
    starts:
        Where each row starts in the axis order, ``offsets[rows]``, shape
        ``(R,)``.
    slab_len:
        The band's length ``L``: the smallest power of two ``>= lengths``.
    order:
        The axis permutation from positions to flat token indices — the
        corpus ``word_order`` on the word axis, ``None`` on the document axis
        (positions *are* token indices there).
    """

    rows: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    slab_len: int
    order: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        """Number of rows ``R`` in the bucket."""
        return int(self.rows.size)

    @property
    def mask(self) -> np.ndarray:
        """``(R, L)`` bool, ``True`` where a padded ``L``-cell row holds a real
        token — derived on each read; the kernels never use it."""
        return np.arange(self.slab_len)[None, :] < self.lengths[:, None]

    def token_indices(
        self, layout: Optional[Tuple[np.ndarray, ...]] = None
    ) -> np.ndarray:
        """Flat token indices of every row, row after row, each in axis order.

        ``layout`` is :func:`~repro.kernels.proposals.token_layout` of
        ``lengths`` when the caller has already computed it: token ``i``
        sits at axis position ``starts[row] + (i - row offset)``, one ragged
        gather through ``order`` on the word axis.
        """
        if layout is None:
            layout = token_layout(self.lengths)
        _, token_row, token_offset, _ = layout
        positions = np.arange(token_row.size, dtype=np.int64)
        positions += self.starts.take(token_row) - token_offset
        return positions if self.order is None else self.order.take(positions)

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
            yield self.select(slice(start, start + rows_per_chunk))

    def select(self, which) -> "SlabBucket":
        """The bucket restricted to ``rows[which]`` (a slice or a mask)."""
        return replace(
            self,
            rows=self.rows[which],
            lengths=self.lengths[which],
            starts=self.starts[which],
        )


def build_buckets(
    offsets: np.ndarray,
    order: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> List[SlabBucket]:
    """Bucket the rows described by CSR/CSC ``offsets`` into power-of-two bands.

    Parameters
    ----------
    offsets:
        Length ``R + 1`` row offsets; row ``r`` owns positions
        ``[offsets[r], offsets[r+1])``.
    order:
        Optional permutation mapping positions to flat token indices (the
        corpus ``word_order`` for the word axis); ``None`` means positions
        *are* token indices (the document axis).  Referenced, never copied.
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
        band_rows = nonempty[bands == band]
        buckets.append(
            SlabBucket(
                rows=band_rows,
                lengths=lengths[band_rows],
                starts=offsets[band_rows],
                slab_len=1 << int(band),
                order=order,
            )
        )
    return buckets


def corpus_buckets(corpus, axis: str) -> List[SlabBucket]:
    """Bucket ``corpus`` along ``axis`` (``"word"`` or ``"doc"``), cached.

    The bucket list is memoised on the corpus instance, so repeated
    iterations — and every sampler sharing the corpus — reuse the same
    bands; a new corpus object (e.g. a shard view) rebuilds its own.
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
