"""Documents and corpora.

A :class:`Corpus` stores every token of every document as flat NumPy arrays
plus CSR-style offsets, which gives the samplers exactly the two visiting
orders the paper analyses:

* **document-by-document** — iterate ``corpus.document_token_indices(d)``;
* **word-by-word** — iterate ``corpus.word_token_indices(w)`` (the CSC view).

Both views index into the *same* flat per-token arrays, mirroring the paper's
data layout where only one copy of the token data is stored (Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.sampling.rng import RngLike, ensure_rng

__all__ = ["Document", "Corpus"]


@dataclass(frozen=True)
class Document:
    """A single document: a sequence of word ids (tokens, with repetition).

    Attributes
    ----------
    word_ids:
        The tokens of the document in order, as vocabulary ids.
    doc_id:
        Optional external identifier (e.g. a filename).
    """

    word_ids: np.ndarray
    doc_id: Optional[str] = None

    def __post_init__(self) -> None:
        word_ids = np.asarray(self.word_ids, dtype=np.int64)
        if word_ids.ndim != 1:
            raise ValueError(f"word_ids must be 1-D, got shape {word_ids.shape}")
        if word_ids.size and word_ids.min() < 0:
            raise ValueError("word ids must be non-negative")
        object.__setattr__(self, "word_ids", word_ids)

    @property
    def length(self) -> int:
        """Number of tokens ``L_d``."""
        return int(self.word_ids.size)

    def bag_of_words(self) -> Dict[int, int]:
        """Return ``{word_id: count}`` for this document."""
        unique, counts = np.unique(self.word_ids, return_counts=True)
        return {int(w): int(c) for w, c in zip(unique, counts)}

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return iter(self.word_ids.tolist())


class Corpus:
    """A collection of documents over one vocabulary, stored token-major.

    Parameters
    ----------
    documents:
        The documents, each a :class:`Document` whose word ids are valid for
        ``vocabulary``.
    vocabulary:
        The shared vocabulary.  Its size bounds every word id.
    """

    def __init__(self, documents: Sequence[Document], vocabulary: Vocabulary):
        if not documents:
            raise ValueError("a corpus must contain at least one document")
        self._vocabulary = vocabulary
        self._documents = list(documents)

        lengths = np.array([doc.length for doc in self._documents], dtype=np.int64)
        if lengths.sum() == 0:
            raise ValueError("a corpus must contain at least one token")

        # Flat, token-major representation (document order).
        self._doc_offsets = np.zeros(len(self._documents) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._doc_offsets[1:])
        self._token_words = np.concatenate(
            [doc.word_ids for doc in self._documents]
        ).astype(np.int64)
        max_word = int(self._token_words.max()) if self._token_words.size else -1
        if max_word >= vocabulary.size:
            raise ValueError(
                f"word id {max_word} out of range for vocabulary of size "
                f"{vocabulary.size}"
            )
        self._init_derived()

    def _init_derived(self) -> None:
        """Compute the per-token document ids and the word-major (CSC) view.

        Requires ``_vocabulary``, ``_documents``, ``_doc_offsets`` and
        ``_token_words`` to be set; shared between ``__init__`` and the cheap
        document-range views of :meth:`slice`.
        """
        self._token_docs = np.repeat(
            np.arange(len(self._documents), dtype=np.int64),
            np.diff(self._doc_offsets),
        )
        # Word-major (CSC) view: a permutation of token indices sorted by word
        # id, stable so that within a word the tokens stay in document order —
        # exactly the "entries sorted by row id" layout of Sec. 5.2.  Sorted
        # through the narrowest unsigned type that holds V: the permutation is
        # the same and 16-bit keys take NumPy's radix sort (several times
        # faster), which every ``slice`` — every streaming batch — pays.
        narrow = np.min_scalar_type(self._vocabulary.size)
        self._word_order = np.argsort(
            self._token_words.astype(narrow, copy=False), kind="stable"
        )
        word_frequencies = np.bincount(
            self._token_words, minlength=self._vocabulary.size
        )
        self._word_offsets = np.zeros(self._vocabulary.size + 1, dtype=np.int64)
        np.cumsum(word_frequencies, out=self._word_offsets[1:])
        self._word_frequencies = word_frequencies.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def vocabulary(self) -> Vocabulary:
        """The shared vocabulary."""
        return self._vocabulary

    @property
    def num_documents(self) -> int:
        """Number of documents ``D``."""
        return len(self._documents)

    @property
    def num_tokens(self) -> int:
        """Total number of tokens ``T``."""
        return int(self._token_words.size)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct words ``V`` (vocabulary size, not observed)."""
        return self._vocabulary.size

    @property
    def documents(self) -> List[Document]:
        """The documents (the internal list; treat as read-only)."""
        return self._documents

    def document_lengths(self) -> np.ndarray:
        """Return ``L_d`` for every document."""
        return np.diff(self._doc_offsets)

    def word_frequencies(self) -> np.ndarray:
        """Return ``L_w`` (term frequency) for every word id."""
        return self._word_frequencies.copy()

    # ------------------------------------------------------------------ #
    # Token-major views (used directly by the samplers)
    # ------------------------------------------------------------------ #
    @property
    def token_words(self) -> np.ndarray:
        """Word id of every token, in document order (read-only view)."""
        return self._token_words

    @property
    def token_documents(self) -> np.ndarray:
        """Document index of every token, in document order (read-only view)."""
        return self._token_docs

    @property
    def doc_offsets(self) -> np.ndarray:
        """CSR offsets: tokens of document ``d`` are ``[offsets[d], offsets[d+1])``."""
        return self._doc_offsets

    @property
    def word_offsets(self) -> np.ndarray:
        """CSC offsets into :attr:`word_order` for every word id."""
        return self._word_offsets

    @property
    def word_order(self) -> np.ndarray:
        """Permutation of token indices grouping tokens by word id."""
        return self._word_order

    def document_token_indices(self, doc_index: int) -> np.ndarray:
        """Indices (into the flat token arrays) of document ``doc_index``."""
        self._check_doc(doc_index)
        return np.arange(
            self._doc_offsets[doc_index], self._doc_offsets[doc_index + 1]
        )

    def word_token_indices(self, word_id: int) -> np.ndarray:
        """Indices (into the flat token arrays) of all tokens of ``word_id``."""
        if not 0 <= word_id < self.vocabulary_size:
            raise IndexError(
                f"word id {word_id} out of range [0, {self.vocabulary_size})"
            )
        return self._word_order[
            self._word_offsets[word_id] : self._word_offsets[word_id + 1]
        ]

    def document_words(self, doc_index: int) -> np.ndarray:
        """Word ids of the tokens of document ``doc_index``."""
        self._check_doc(doc_index)
        return self._token_words[
            self._doc_offsets[doc_index] : self._doc_offsets[doc_index + 1]
        ]

    # ------------------------------------------------------------------ #
    # Statistics and manipulation
    # ------------------------------------------------------------------ #
    def term_document_counts(self) -> np.ndarray:
        """Return the dense ``D x V`` term-count matrix (small corpora only)."""
        matrix = np.zeros((self.num_documents, self.vocabulary_size), dtype=np.int64)
        np.add.at(matrix, (self._token_docs, self._token_words), 1)
        return matrix

    def subset(self, doc_indices: Sequence[int]) -> "Corpus":
        """Return a new corpus containing only the given documents."""
        doc_indices = list(doc_indices)
        if not doc_indices:
            raise ValueError("subset requires at least one document index")
        documents = [self._documents[i] for i in doc_indices]
        return Corpus(documents, self._vocabulary)

    def slice(self, start: int, stop: int) -> "Corpus":
        """Return a cheap view of documents ``[start, stop)``.

        Unlike :meth:`subset`, the token array is shared with the parent (a
        NumPy view, no concatenation), so slicing a corpus into contiguous
        shards — the layout used by data-parallel training — costs O(tokens in
        the slice) for the derived indices only.  The slice may contain only
        empty documents (zero tokens), or no documents at all (``start ==
        stop``, which the streaming appender hits for an empty window);
        samplers must tolerate the former, and nothing may be trained on the
        latter.
        """
        if not 0 <= start <= stop <= self.num_documents:
            raise IndexError(
                f"invalid document range [{start}, {stop}) for corpus with "
                f"{self.num_documents} documents"
            )
        view = Corpus.__new__(Corpus)
        view._vocabulary = self._vocabulary
        view._documents = self._documents[start:stop]
        base = self._doc_offsets[start]
        view._doc_offsets = self._doc_offsets[start : stop + 1] - base
        view._token_words = self._token_words[base : self._doc_offsets[stop]]
        view._init_derived()
        return view

    def split(
        self, train_fraction: float = 0.8, seed: RngLike = None
    ) -> Tuple["Corpus", "Corpus"]:
        """Randomly split documents into a train and a held-out corpus."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        order = ensure_rng(seed).permutation(self.num_documents)
        cut = int(round(train_fraction * self.num_documents))
        cut = min(max(cut, 1), self.num_documents - 1)
        return self.subset(order[:cut]), self.subset(order[cut:])

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_token_lists(
        cls,
        token_lists: Sequence[Sequence[Union[int, str]]],
        vocabulary: Optional[Vocabulary] = None,
    ) -> "Corpus":
        """Build a corpus from per-document token lists.

        Tokens may be strings (a vocabulary is built / extended) or integer
        word ids (a vocabulary must be supplied or ids are named ``w<i>``).
        """
        if not token_lists:
            raise ValueError("token_lists must be non-empty")
        uses_strings = any(
            isinstance(token, str) for tokens in token_lists for token in tokens
        )
        if uses_strings:
            vocab = vocabulary if vocabulary is not None else Vocabulary()
            documents = []
            for tokens in token_lists:
                ids = np.array([vocab.add(str(token)) for token in tokens], dtype=np.int64)
                documents.append(Document(ids))
            return cls(documents, vocab)

        max_id = max((int(t) for tokens in token_lists for t in tokens), default=-1)
        if vocabulary is None:
            vocabulary = Vocabulary(f"w{i}" for i in range(max_id + 1))
        documents = [
            Document(np.asarray(list(tokens), dtype=np.int64)) for tokens in token_lists
        ]
        return cls(documents, vocabulary)

    @classmethod
    def from_bags(
        cls,
        bags: Sequence[Dict[int, int]],
        vocabulary: Vocabulary,
    ) -> "Corpus":
        """Build a corpus from per-document ``{word_id: count}`` bags."""
        documents = []
        for bag in bags:
            if bag:
                word_ids = np.repeat(
                    np.fromiter(bag.keys(), dtype=np.int64, count=len(bag)),
                    np.fromiter(bag.values(), dtype=np.int64, count=len(bag)),
                )
            else:
                word_ids = np.empty(0, dtype=np.int64)
            documents.append(Document(word_ids))
        return cls(documents, vocabulary)

    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        tokenizer=None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> "Corpus":
        """Build a corpus from raw text using ``tokenizer`` (default simple)."""
        if tokenizer is None:
            from repro.corpus.tokenize import simple_tokenize

            tokenizer = simple_tokenize
        return cls.from_token_lists([tokenizer(text) for text in texts], vocabulary)

    # ------------------------------------------------------------------ #
    def _check_doc(self, doc_index: int) -> None:
        if not 0 <= doc_index < self.num_documents:
            raise IndexError(
                f"document index {doc_index} out of range [0, {self.num_documents})"
            )

    def __len__(self) -> int:
        return self.num_documents

    def __getitem__(self, doc_index: int) -> Document:
        self._check_doc(doc_index)
        return self._documents[doc_index]

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Corpus(documents={self.num_documents}, tokens={self.num_tokens}, "
            f"vocabulary={self.vocabulary_size})"
        )
