"""Per-algorithm memory-access trace generation.

Following the paper's methodology (Sec. 3.3), the traces record only the reads
and writes to the count structures — the document-topic matrix ``C_d``, the
word-topic matrix ``C_w``, the global vector ``c_k`` and, for WarpLDA, the
single per-document / per-word count vector it keeps in scratch memory — since
those random accesses dominate the running time.

Each generator yields byte addresses in the visiting order the algorithm
actually uses (document-by-document or word-by-word, Table 2), so replaying a
trace through :class:`~repro.cache.simulator.HierarchySimulator` reproduces
the locality behaviour that PAPI measured on real hardware.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

import numpy as np

from repro.corpus.corpus import Corpus
from repro.sampling.rng import RngLike, ensure_rng

__all__ = ["AddressSpace", "AccessTraceGenerator", "ALGORITHM_TRACERS"]

_ENTRY_BYTES = 8


class AddressSpace:
    """Byte-address layout of the count structures for a (D, V, K) problem."""

    def __init__(self, num_documents: int, vocabulary_size: int, num_topics: int):
        self.num_documents = num_documents
        self.vocabulary_size = vocabulary_size
        self.num_topics = num_topics
        self.doc_topic_base = 0
        self.word_topic_base = self.doc_topic_base + num_documents * num_topics * _ENTRY_BYTES
        self.topic_counts_base = self.word_topic_base + vocabulary_size * num_topics * _ENTRY_BYTES
        self.scratch_base = self.topic_counts_base + num_topics * _ENTRY_BYTES

    def doc_topic(self, doc: np.ndarray, topic: np.ndarray) -> np.ndarray:
        """Addresses of ``C_d[doc, topic]`` (vectorised)."""
        return self.doc_topic_base + (doc * self.num_topics + topic) * _ENTRY_BYTES

    def word_topic(self, word: np.ndarray, topic: np.ndarray) -> np.ndarray:
        """Addresses of ``C_w[word, topic]`` (vectorised)."""
        return self.word_topic_base + (word * self.num_topics + topic) * _ENTRY_BYTES

    def topic_counts(self, topic: np.ndarray) -> np.ndarray:
        """Addresses of ``c_k[topic]``."""
        return self.topic_counts_base + topic * _ENTRY_BYTES

    def scratch(self, topic: np.ndarray) -> np.ndarray:
        """Addresses of WarpLDA's per-row scratch count vector (size K)."""
        return self.scratch_base + topic * _ENTRY_BYTES


class AccessTraceGenerator:
    """Generates count-matrix access traces for every algorithm in Table 2.

    Parameters
    ----------
    corpus:
        The corpus whose tokens are visited.
    num_topics:
        Number of topics ``K``.
    assignments:
        Per-token topic assignments used to derive which matrix entries are
        touched; random assignments are drawn if omitted (which topic is
        touched matters far less for locality than which *row* is touched).
    num_mh_steps:
        ``M`` for the MH-based algorithms (Table 4 uses 1).
    rng:
        Seed or generator for the random components of the access patterns.
    max_tokens:
        Optional cap on the number of tokens visited per trace, so that the
        (slow, pure-Python) cache simulation stays tractable on larger
        corpora; the visiting order is preserved.
    """

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        assignments: Optional[np.ndarray] = None,
        num_mh_steps: int = 1,
        rng: RngLike = None,
        max_tokens: Optional[int] = None,
    ):
        if num_topics <= 0:
            raise ValueError("num_topics must be positive")
        if num_mh_steps <= 0:
            raise ValueError("num_mh_steps must be positive")
        self.corpus = corpus
        self.num_topics = num_topics
        self.num_mh_steps = num_mh_steps
        self.rng = ensure_rng(rng)
        self.max_tokens = max_tokens
        if assignments is None:
            assignments = self.rng.integers(num_topics, size=corpus.num_tokens)
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.shape != (corpus.num_tokens,):
            raise ValueError("assignments must have one entry per token")
        self.assignments = assignments
        self.address_space = AddressSpace(
            corpus.num_documents, corpus.vocabulary_size, num_topics
        )
        # Distinct topics currently present in each document / word, which is
        # what the sparsity-aware algorithms enumerate (their K_dn sets).
        self._doc_topics = [
            np.unique(assignments[corpus.document_token_indices(d)])
            for d in range(corpus.num_documents)
        ]
        self._word_topics = [
            np.unique(assignments[corpus.word_token_indices(w)])
            for w in range(corpus.vocabulary_size)
        ]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _budget(self) -> int:
        if self.max_tokens is None:
            return self.corpus.num_tokens
        return min(self.max_tokens, self.corpus.num_tokens)

    def _emit(self, addresses: np.ndarray) -> Iterator[int]:
        yield from addresses.tolist()

    # ------------------------------------------------------------------ #
    # Algorithm traces
    # ------------------------------------------------------------------ #
    def sparselda(self) -> Iterator[int]:
        """SparseLDA: doc order; reads the non-zero topics of both c_d and c_w."""
        space = self.address_space
        remaining = self._budget()
        for doc in range(self.corpus.num_documents):
            if remaining <= 0:
                return
            doc_topics = self._doc_topics[doc]
            for token_index in self.corpus.document_token_indices(doc):
                if remaining <= 0:
                    return
                remaining -= 1
                word = int(self.corpus.token_words[token_index])
                topic = int(self.assignments[token_index])
                word_topics = self._word_topics[word]
                yield from self._emit(space.doc_topic(np.int64(doc), doc_topics))
                yield from self._emit(space.word_topic(np.int64(word), word_topics))
                yield int(space.doc_topic(np.int64(doc), np.int64(topic)))
                yield int(space.word_topic(np.int64(word), np.int64(topic)))

    def aliaslda(self) -> Iterator[int]:
        """AliasLDA: doc order; enumerates c_d, probes a few c_w entries."""
        space = self.address_space
        rng = self.rng
        remaining = self._budget()
        for doc in range(self.corpus.num_documents):
            if remaining <= 0:
                return
            doc_topics = self._doc_topics[doc]
            for token_index in self.corpus.document_token_indices(doc):
                if remaining <= 0:
                    return
                remaining -= 1
                word = int(self.corpus.token_words[token_index])
                topic = int(self.assignments[token_index])
                probes = rng.integers(self.num_topics, size=self.num_mh_steps)
                yield from self._emit(space.doc_topic(np.int64(doc), doc_topics))
                yield from self._emit(space.word_topic(np.int64(word), probes))
                yield int(space.doc_topic(np.int64(doc), np.int64(topic)))
                yield int(space.word_topic(np.int64(word), np.int64(topic)))

    def fpluslda(self) -> Iterator[int]:
        """F+LDA: word order; enumerates the non-zero topics of c_d."""
        space = self.address_space
        remaining = self._budget()
        for word in range(self.corpus.vocabulary_size):
            if remaining <= 0:
                return
            word_topics = self._word_topics[word]
            for token_index in self.corpus.word_token_indices(word):
                if remaining <= 0:
                    return
                remaining -= 1
                doc = int(self.corpus.token_documents[token_index])
                topic = int(self.assignments[token_index])
                doc_topics = self._doc_topics[doc]
                yield from self._emit(space.doc_topic(np.int64(doc), doc_topics))
                # The word's own counts are kept in the F+ tree, rebuilt per
                # word: sequential within the current column.
                yield from self._emit(
                    space.word_topic(np.int64(word), word_topics[: min(4, word_topics.size)])
                )
                yield int(space.doc_topic(np.int64(doc), np.int64(topic)))
                yield int(space.word_topic(np.int64(word), np.int64(topic)))

    def lightlda(self) -> Iterator[int]:
        """LightLDA: doc order; O(1) probes per token but into both matrices."""
        space = self.address_space
        rng = self.rng
        remaining = self._budget()
        for doc in range(self.corpus.num_documents):
            if remaining <= 0:
                return
            for token_index in self.corpus.document_token_indices(doc):
                if remaining <= 0:
                    return
                remaining -= 1
                word = int(self.corpus.token_words[token_index])
                topic = int(self.assignments[token_index])
                for _ in range(self.num_mh_steps):
                    candidates = rng.integers(self.num_topics, size=2)
                    yield int(space.doc_topic(np.int64(doc), candidates[0]))
                    yield int(space.doc_topic(np.int64(doc), candidates[1]))
                    yield int(space.word_topic(np.int64(word), candidates[0]))
                    yield int(space.word_topic(np.int64(word), candidates[1]))
                    yield int(space.topic_counts(candidates[0]))
                    yield int(space.topic_counts(candidates[1]))
                yield int(space.doc_topic(np.int64(doc), np.int64(topic)))
                yield int(space.word_topic(np.int64(word), np.int64(topic)))

    def warplda(self) -> Iterator[int]:
        """WarpLDA: two passes whose random accesses stay inside one K-vector.

        The document pass touches only the scratch ``c_d`` of the current
        document plus ``c_k``; the word pass touches only the scratch ``c_w``
        of the current word.  The per-token data itself is accessed
        sequentially.
        """
        space = self.address_space
        rng = self.rng
        half_budget = max(self._budget() // 2, 1)

        # Document pass.
        remaining = half_budget
        for doc in range(self.corpus.num_documents):
            if remaining <= 0:
                break
            for token_index in self.corpus.document_token_indices(doc):
                if remaining <= 0:
                    break
                remaining -= 1
                topic = int(self.assignments[token_index])
                for _ in range(self.num_mh_steps):
                    candidate = int(rng.integers(self.num_topics))
                    yield int(space.scratch(np.int64(topic)))
                    yield int(space.scratch(np.int64(candidate)))
                    yield int(space.topic_counts(np.int64(candidate)))

        # Word pass.
        remaining = half_budget
        for word in range(self.corpus.vocabulary_size):
            if remaining <= 0:
                break
            for token_index in self.corpus.word_token_indices(word):
                if remaining <= 0:
                    break
                remaining -= 1
                topic = int(self.assignments[token_index])
                for _ in range(self.num_mh_steps):
                    candidate = int(rng.integers(self.num_topics))
                    yield int(space.scratch(np.int64(topic)))
                    yield int(space.scratch(np.int64(candidate)))
                    yield int(space.topic_counts(np.int64(candidate)))


#: Map from algorithm display name to the tracer method that generates its trace.
ALGORITHM_TRACERS: Dict[str, str] = {
    "SparseLDA": "sparselda",
    "AliasLDA": "aliaslda",
    "F+LDA": "fpluslda",
    "LightLDA": "lightlda",
    "WarpLDA": "warplda",
}
