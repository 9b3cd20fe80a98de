"""A growable corpus that appends mini-batches and keeps kernel caches warm.

:class:`StreamingCorpus` extends :class:`~repro.corpus.corpus.Corpus` with an
:meth:`~StreamingCorpus.append` operation so arriving documents join the
token-major layout without rebuilding it from scratch:

* the flat token arrays live in capacity-doubling stores, so appends are
  amortised O(tokens appended);
* the word-major (CSC) permutation is *merged*, not re-sorted: new tokens are
  inserted at the end of their word's region (``O(T)`` memmove + ``O(B log
  B)`` batch sort instead of ``O(T log T)``), preserving the stable
  document-order-within-word layout of Sec. 5.2;
* the slab-bucket cache of :mod:`repro.kernels.buckets` (``(rows,
  lengths)`` bands over the offsets) is maintained **incrementally**: on the
  document axis the new documents' rows are appended to their power-of-two
  bands and every untouched band is reused as the *same object*; on the word
  axis only the bands containing words that actually received tokens are
  re-banded, and every untouched band keeps its rows and lengths and is
  rebound in O(rows) to the merged ``word_order`` (new row starts), so no
  superseded permutation stays alive.  A sampler running over the stream
  between appends pays only for the rows the append dirtied.

Any contiguous window of the stream is served by the inherited
:meth:`~repro.corpus.corpus.Corpus.slice` (a zero-copy view);
:meth:`~StreamingCorpus.window` returns the trailing ``num_docs`` documents,
or the streaming corpus itself when the window covers everything — which is
what keeps the incrementally-maintained buckets on the hot path while the
stream is still shorter than the training window.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.corpus.corpus import Corpus, Document
from repro.corpus.vocabulary import Vocabulary
from repro.kernels.buckets import SlabBucket, build_buckets

__all__ = ["StreamingCorpus"]

#: Initial capacity (tokens) of the flat stores.
_INITIAL_CAPACITY = 1024


def _as_documents(
    documents: Sequence[Union[Document, np.ndarray, Sequence[int]]]
) -> List[Document]:
    out = []
    for doc in documents:
        if isinstance(doc, Document):
            out.append(doc)
        else:
            out.append(Document(np.asarray(doc, dtype=np.int64)))
    return out


def _merge_band(existing: Optional[SlabBucket], new: SlabBucket) -> SlabBucket:
    """Append ``new``'s rows to ``existing`` (same band, same axis order)."""
    if existing is None:
        return new
    return replace(
        new,
        rows=np.concatenate([existing.rows, new.rows]),
        lengths=np.concatenate([existing.lengths, new.lengths]),
        starts=np.concatenate([existing.starts, new.starts]),
    )


class StreamingCorpus(Corpus):
    """A corpus that grows by mini-batch appends (see module docstring).

    Parameters
    ----------
    vocabulary:
        The shared vocabulary; typically unfrozen and grown by the ingestion
        layer (:class:`~repro.streaming.stream.DocumentStream`) before each
        append.  A fresh empty vocabulary is created when omitted.

    Notes
    -----
    Unlike :class:`~repro.corpus.corpus.Corpus`, a streaming corpus may be
    empty (zero documents) — samplers are only ever built over non-empty
    windows.  Views returned by :meth:`slice` (including partial
    :meth:`window` calls) are snapshots: they keep referencing the storage
    that backed them at creation time, so later appends never mutate a view
    handed to a sampler or server.  :meth:`window` covering the whole stream
    returns the *live* corpus itself, not a snapshot — slice explicitly if
    immutability is needed there.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self._vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._documents: List[Document] = []
        self._token_store = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._token_doc_store = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._doc_offsets = np.zeros(1, dtype=np.int64)
        self._token_words = self._token_store[:0]
        self._token_docs = self._token_doc_store[:0]
        self._word_order = np.empty(0, dtype=np.int64)
        self._word_frequencies = np.zeros(self._vocabulary.size, dtype=np.int64)
        self._word_offsets = np.zeros(self._vocabulary.size + 1, dtype=np.int64)
        # Eager-maintenance mode: while True, every append merges the CSC
        # view and refreshes any built slab buckets in place.  Once a
        # consumer detaches (stop_incremental_maintenance), appends only
        # touch the token-major arrays and the CSC view is rebuilt lazily
        # on first use — keeping appends O(batch) for the stream's lifetime.
        self._csc_live = True
        self._csc_dirty = False
        #: Appends performed so far.
        self.appends = 0
        #: Per-axis counts of bucket objects reused as-is vs rebuilt across
        #: all appends — the observability hook the incremental-maintenance
        #: tests (and the streaming bench) read.
        self.bucket_reuses: Dict[str, int] = {"doc": 0, "word": 0}
        self.bucket_rebuilds: Dict[str, int] = {"doc": 0, "word": 0}

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, num_tokens: int) -> None:
        if num_tokens <= self._token_store.size:
            return
        capacity = self._token_store.size
        while capacity < num_tokens:
            capacity *= 2
        # Old views (window slices) keep the old stores alive and unchanged.
        token_store = np.empty(capacity, dtype=np.int64)
        token_store[: self.num_tokens] = self._token_words
        doc_store = np.empty(capacity, dtype=np.int64)
        doc_store[: self.num_tokens] = self._token_docs
        self._token_store = token_store
        self._token_doc_store = doc_store

    def append(
        self, documents: Sequence[Union[Document, np.ndarray, Sequence[int]]]
    ) -> int:
        """Append ``documents`` to the stream; returns the tokens added.

        Word ids must be valid for the *current* vocabulary — grow the
        vocabulary first (``encode(on_oov="add")``), then append.
        """
        docs = _as_documents(documents)
        if not docs:
            return 0
        old_tokens = self.num_tokens
        old_docs = self.num_documents
        old_vocab = self._word_offsets.size - 1

        lengths = np.array([doc.length for doc in docs], dtype=np.int64)
        if lengths.sum():
            batch_words = np.concatenate(
                [doc.word_ids for doc in docs if doc.length]
            ).astype(np.int64)
        else:
            batch_words = np.empty(0, dtype=np.int64)
        if batch_words.size and batch_words.max() >= self._vocabulary.size:
            raise ValueError(
                f"word id {int(batch_words.max())} out of range for vocabulary "
                f"of size {self._vocabulary.size}"
            )

        new_tokens = old_tokens + int(lengths.sum())
        self._ensure_capacity(new_tokens)
        self._token_store[old_tokens:new_tokens] = batch_words
        self._token_doc_store[old_tokens:new_tokens] = np.repeat(
            np.arange(old_docs, old_docs + len(docs), dtype=np.int64), lengths
        )
        self._token_words = self._token_store[:new_tokens]
        self._token_docs = self._token_doc_store[:new_tokens]
        self._doc_offsets = np.concatenate(
            [self._doc_offsets, old_tokens + np.cumsum(lengths)]
        )
        self._documents.extend(docs)

        if self._csc_live:
            self._merge_word_axis(batch_words, old_tokens, old_vocab)
            self._update_bucket_cache(batch_words, old_docs)
        else:
            self._csc_dirty = True
            # Any buckets a kernel built since detaching are now stale.
            self.__dict__.pop("_slab_bucket_cache", None)
        self.appends += 1
        return new_tokens - old_tokens

    def _merge_word_axis(
        self, batch_words: np.ndarray, old_tokens: int, old_vocab: int
    ) -> None:
        """Merge the new tokens into the CSC view without a full re-sort.

        The old ``word_order`` is sorted by word id, stable in document
        order; every new token sorts after all old tokens of its word (its
        flat index is larger), so each lands exactly at the *end* of its
        word's old region — ``old_word_offsets[w + 1]`` — and new-word tokens
        land at the very end.  Ties within the batch keep batch order via a
        stable sort, so the merged permutation equals a stable argsort of the
        full token array.
        """
        live_vocab = self._vocabulary.size
        if batch_words.size:
            batch_sort = np.argsort(batch_words, kind="stable")
            sorted_words = batch_words[batch_sort]
            sorted_index = (old_tokens + batch_sort).astype(np.int64)
            if old_vocab:
                insert_at = np.where(
                    sorted_words < old_vocab,
                    self._word_offsets[np.minimum(sorted_words, old_vocab - 1) + 1],
                    old_tokens,
                )
            else:
                insert_at = np.full(sorted_words.size, old_tokens, dtype=np.int64)
            self._word_order = np.insert(self._word_order, insert_at, sorted_index)

        frequencies = np.zeros(live_vocab, dtype=np.int64)
        frequencies[:old_vocab] = self._word_frequencies
        if batch_words.size:
            frequencies += np.bincount(batch_words, minlength=live_vocab)
        self._word_frequencies = frequencies
        self._word_offsets = np.zeros(live_vocab + 1, dtype=np.int64)
        np.cumsum(frequencies, out=self._word_offsets[1:])

    # ------------------------------------------------------------------ #
    # Incremental slab-bucket maintenance
    # ------------------------------------------------------------------ #
    def _update_bucket_cache(self, batch_words: np.ndarray, old_docs: int) -> None:
        """Refresh any built slab buckets for the rows this append touched.

        Buckets are only maintained if a kernel already built them
        (:func:`~repro.kernels.buckets.corpus_buckets` memoises on this
        instance); otherwise the next kernel call builds them fresh.
        """
        cache = self.__dict__.get("_slab_bucket_cache")
        if not cache:
            return
        if "doc" in cache:
            cache["doc"] = self._append_doc_buckets(cache["doc"], old_docs)
        if "word" in cache:
            cache["word"] = self._rebuild_word_buckets(
                cache["word"], np.unique(batch_words)
            )

    def _append_doc_buckets(
        self, buckets: List[SlabBucket], old_docs: int
    ) -> List[SlabBucket]:
        """Append the new documents' rows to their band buckets.

        Existing rows never move on the document axis (token indices are
        append-only), so untouched bands keep their exact bucket objects.
        """
        by_len: Dict[int, SlabBucket] = {b.slab_len: b for b in buckets}
        touched = set()
        # Offsets of the appended suffix only; entry 0 is the absolute start
        # of the first new document, so positions are absolute token indices.
        for fresh in build_buckets(self._doc_offsets[old_docs:]):
            band = fresh.slab_len
            shifted = replace(fresh, rows=fresh.rows + old_docs)
            by_len[band] = _merge_band(by_len.get(band), shifted)
            touched.add(band)
        self.bucket_rebuilds["doc"] += len(touched)
        self.bucket_reuses["doc"] += sum(
            1 for b in buckets if b.slab_len not in touched
        )
        return [by_len[band] for band in sorted(by_len)]

    def _rebuild_word_buckets(
        self, buckets: List[SlabBucket], affected_words: np.ndarray
    ) -> List[SlabBucket]:
        """Re-band only the rows of words that received new tokens.

        A word with new tokens may change band (its frequency grew), so its
        row is removed from wherever it lived and re-bucketed from the merged
        CSC view.  Every other row keeps its band and length but starts
        elsewhere in the merged ``word_order``, so each kept band is rebound
        to the merged view in O(rows); a band containing none of the
        affected words counts as reused.
        """

        def rebind(bucket: SlabBucket) -> SlabBucket:
            return replace(
                bucket, starts=self._word_offsets[bucket.rows], order=self._word_order
            )

        by_len: Dict[int, SlabBucket] = {}
        untouched = set()
        for bucket in buckets:
            keep = ~np.isin(bucket.rows, affected_words, assume_unique=False)
            if keep.all():
                by_len[bucket.slab_len] = rebind(bucket)
                untouched.add(bucket.slab_len)
                continue
            self.bucket_rebuilds["word"] += 1
            if keep.any():
                by_len[bucket.slab_len] = rebind(bucket.select(keep))
        for fresh in build_buckets(
            self._word_offsets, self._word_order, rows=affected_words
        ):
            band = fresh.slab_len
            if band in untouched:
                # The band was about to be reused as-is, but an affected word
                # migrated into it — it is a rebuild after all.
                untouched.discard(band)
                self.bucket_rebuilds["word"] += 1
            elif band not in by_len:
                self.bucket_rebuilds["word"] += 1
            by_len[band] = _merge_band(by_len.get(band), fresh)
        self.bucket_reuses["word"] += len(untouched)
        return [by_len[band] for band in sorted(by_len)]

    def stop_incremental_maintenance(self) -> None:
        """Drop the slab buckets and switch the CSC view to lazy rebuilds.

        Once a consumer stops sampling the stream corpus itself (e.g. the
        online trainer's window detaches into slice views, which carry their
        own caches and CSC permutations), the full-stream buckets and the
        per-append CSC merge are dead weight: both grow with the stream, so
        every append would keep paying O(stream) for structures nothing
        reads.  After this call, appends only touch the token-major arrays;
        the word-major view (``word_offsets``/``word_order``/word
        frequencies) is rebuilt on demand the next time something asks for
        it, and a later kernel call simply rebuilds its buckets from that.
        """
        self._csc_live = False
        self.__dict__.pop("_slab_bucket_cache", None)

    def _refresh_csc(self) -> None:
        """Bring the word-major view up to date before anyone reads it.

        Two staleness sources: lazy appends after
        :meth:`stop_incremental_maintenance` (full rebuild), and vocabulary
        growth *between* appends — the ingestion layer adds words at push
        time, before the batch is appended — which only needs zero-frequency
        padding for the new words (the permutation is untouched).
        """
        if self._csc_dirty:
            self._word_order = np.argsort(self._token_words, kind="stable")
            self._word_frequencies = np.bincount(
                self._token_words, minlength=self._vocabulary.size
            ).astype(np.int64)
            self._word_offsets = np.zeros(self._vocabulary.size + 1, dtype=np.int64)
            np.cumsum(self._word_frequencies, out=self._word_offsets[1:])
            self._csc_dirty = False
            return
        grown = self._vocabulary.size - (self._word_offsets.size - 1)
        if grown > 0:
            self._word_frequencies = np.concatenate(
                [self._word_frequencies, np.zeros(grown, dtype=np.int64)]
            )
            self._word_offsets = np.concatenate(
                [
                    self._word_offsets,
                    np.full(grown, self._word_offsets[-1], dtype=np.int64),
                ]
            )

    @property
    def word_offsets(self) -> np.ndarray:
        """CSC offsets (lazily refreshed after detached appends)."""
        self._refresh_csc()
        return self._word_offsets

    @property
    def word_order(self) -> np.ndarray:
        """CSC permutation (lazily refreshed after detached appends)."""
        self._refresh_csc()
        return self._word_order

    def word_frequencies(self) -> np.ndarray:
        """Per-word term frequencies (lazily refreshed)."""
        self._refresh_csc()
        return self._word_frequencies.copy()

    def word_token_indices(self, word_id: int) -> np.ndarray:
        """Token indices of ``word_id`` (lazily refreshed)."""
        self._refresh_csc()
        return super().word_token_indices(word_id)

    # ------------------------------------------------------------------ #
    # Windows
    # ------------------------------------------------------------------ #
    def window(self, num_docs: Optional[int] = None) -> Corpus:
        """The trailing ``num_docs`` documents as a corpus.

        Returns *this* corpus when the window covers the whole stream (so
        the incrementally-maintained bucket cache stays on the hot path),
        otherwise a zero-copy :meth:`~repro.corpus.corpus.Corpus.slice`
        snapshot of the tail.
        """
        if num_docs is not None and num_docs < 0:
            raise ValueError(f"num_docs must be non-negative, got {num_docs}")
        if num_docs is None or num_docs >= self.num_documents:
            return self
        return self.slice(self.num_documents - num_docs, self.num_documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingCorpus(documents={self.num_documents}, "
            f"tokens={self.num_tokens}, vocabulary={self._vocabulary.size}, "
            f"appends={self.appends})"
        )
