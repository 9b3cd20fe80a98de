"""A growable corpus that appends mini-batches to one flat token store.

:class:`StreamingCorpus` extends :class:`~repro.corpus.corpus.Corpus` with an
:meth:`~StreamingCorpus.append` operation so arriving documents join the
token-major layout without rebuilding it from scratch:

* the flat token arrays live in capacity-doubling stores, so appends are
  amortised O(tokens appended) and touch nothing else;
* the word-major (CSC) view of the whole stream is rebuilt lazily, the next
  time something reads it, and any slab buckets memoised on the stream are
  dropped by every append.

The stream is trained through windows: :meth:`~StreamingCorpus.window` and
the inherited :meth:`~repro.corpus.corpus.Corpus.slice` return zero-copy
snapshots of a document range, whose CSC view and slab bands are rebuilt
from the window's own offsets.  A window sweep therefore depends only on the
window's documents, never on the history of appends that produced them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.corpus.corpus import Corpus, DocumentLike, _check_word_ids, _flatten
from repro.corpus.vocabulary import Vocabulary

__all__ = ["StreamingCorpus"]

#: Initial capacity (tokens) of the flat stores.
_INITIAL_CAPACITY = 1024


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
    windows.  Views returned by :meth:`slice` and :meth:`window` are
    snapshots: they keep referencing the storage that backed them at
    creation time, so later appends never mutate a view handed to a sampler
    or server.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self._vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._token_store = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._token_doc_store = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._doc_offsets = np.zeros(1, dtype=np.int64)
        self._token_words = self._token_store[:0]
        self._token_docs = self._token_doc_store[:0]
        self._init_word_major()
        #: Appends performed so far.
        self.appends = 0
        # Constant zeros, kept only because benchmarks/suite/stream.py reads
        # both dicts for streaming.corpus.bucket_reuse_ratio; ROADMAP item 6
        # deletes them together with that reader.
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

    def append(self, documents: Sequence[DocumentLike]) -> int:
        """Append ``documents`` to the stream; returns the tokens added.

        Word ids must be valid for the *current* vocabulary — grow the
        vocabulary first (``encode(on_oov="add")``), then append.
        """
        lengths, batch_words = _flatten(documents)
        if not lengths.size:
            return 0
        _check_word_ids(batch_words, self._vocabulary.size)
        old_tokens = self.num_tokens
        old_docs = self.num_documents
        new_tokens = old_tokens + batch_words.size
        self._ensure_capacity(new_tokens)
        self._token_store[old_tokens:new_tokens] = batch_words
        self._token_doc_store[old_tokens:new_tokens] = np.repeat(
            np.arange(old_docs, old_docs + lengths.size, dtype=np.int64), lengths
        )
        self._token_words = self._token_store[:new_tokens]
        self._token_docs = self._token_doc_store[:new_tokens]
        self._doc_offsets = np.concatenate(
            [self._doc_offsets, old_tokens + np.cumsum(lengths)]
        )
        # Buckets a kernel built over the whole stream are stale now.
        self.__dict__.pop("_slab_bucket_cache", None)
        self.appends += 1
        return new_tokens - old_tokens

    # ------------------------------------------------------------------ #
    # Lazily rebuilt word-major view
    # ------------------------------------------------------------------ #
    def _refresh_csc(self) -> None:
        """Rebuild the word-major view if appends or vocabulary growth
        (the ingestion layer adds words at push time, before the batch is
        appended) left it behind the token arrays."""
        if (
            self._word_order.size != self.num_tokens
            or self._word_offsets.size != self._vocabulary.size + 1
        ):
            self._init_word_major()

    @property
    def word_offsets(self) -> np.ndarray:
        """CSC offsets (lazily refreshed after appends)."""
        self._refresh_csc()
        return self._word_offsets

    @property
    def word_order(self) -> np.ndarray:
        """CSC permutation (lazily refreshed after appends)."""
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
        """The trailing ``num_docs`` documents (all when omitted), as a
        zero-copy :meth:`~repro.corpus.corpus.Corpus.slice` snapshot."""
        if num_docs is not None and num_docs < 0:
            raise ValueError(f"num_docs must be non-negative, got {num_docs}")
        stop = self.num_documents
        start = 0 if num_docs is None else max(0, stop - num_docs)
        return self.slice(start, stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingCorpus(documents={self.num_documents}, "
            f"tokens={self.num_tokens}, vocabulary={self._vocabulary.size}, "
            f"appends={self.appends})"
        )
