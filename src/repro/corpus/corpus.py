"""Documents and corpora.

A :class:`Corpus` stores every token of every document as flat NumPy arrays
plus CSR-style offsets, which gives the samplers exactly the two visiting
orders the paper analyses:

* **document-by-document** — iterate ``corpus.document_token_indices(d)``;
* **word-by-word** — iterate ``corpus.word_token_indices(w)`` (the CSC view).

Both views index into the *same* flat per-token arrays, mirroring the paper's
data layout where only one copy of the token data is stored (Sec. 5.2).  The
flat arrays are that copy: a corpus keeps no per-document objects, and
``corpus.documents``, ``corpus[d]`` and iteration hand out :class:`Document`
views over ``token_words[doc_offsets[d]:doc_offsets[d + 1]]``.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

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
    """

    word_ids: np.ndarray

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


DocumentLike = Union[Document, np.ndarray, Sequence[int]]


def _flatten(documents: Sequence[DocumentLike]) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, flat word ids)`` of ``documents`` (``Document``s or 1-D arrays).

    Word ids are checked against the vocabulary separately, by
    :func:`_check_word_ids` on the flat array.
    """
    arrays = []
    for doc in documents:
        words = np.asarray(
            doc.word_ids if isinstance(doc, Document) else doc, dtype=np.int64
        )
        if words.ndim != 1:
            raise ValueError(f"word_ids must be 1-D, got shape {words.shape}")
        arrays.append(words)
    lengths = np.array([words.size for words in arrays], dtype=np.int64)
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    return lengths, flat


def _check_word_ids(token_words: np.ndarray, vocabulary_size: int) -> None:
    """Reject negative ids and ids outside a vocabulary of ``vocabulary_size``."""
    if not token_words.size:
        return
    if int(token_words.min()) < 0:
        raise ValueError("word ids must be non-negative")
    max_word = int(token_words.max())
    if max_word >= vocabulary_size:
        raise ValueError(
            f"word id {max_word} out of range for vocabulary of size "
            f"{vocabulary_size}"
        )


class _DocumentViews(collections.abc.Sequence):
    """A read-only document sequence over flat ``(token_words, doc_offsets)``.

    Supports ``len``, integer indexing (negative too; builds a read-only
    :class:`Document` view on demand), step-1 slicing (the same arrays under
    a narrower run of offsets) and iteration.  Nothing is copied, so a
    corpus holds its tokens once however its documents are visited.
    """

    __slots__ = ("_token_words", "_doc_offsets")

    def __init__(self, token_words: np.ndarray, doc_offsets: np.ndarray) -> None:
        self._token_words = token_words
        self._doc_offsets = doc_offsets

    def __len__(self) -> int:
        return int(self._doc_offsets.size) - 1

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("document views support step-1 slices only")
            stop = max(start, stop)
            return _DocumentViews(
                self._token_words, self._doc_offsets[start : stop + 1]
            )
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(
                f"document index {index} out of range [0, {len(self)})"
            )
        words = np.asarray(
            self._token_words[self._doc_offsets[index] : self._doc_offsets[index + 1]]
        )
        words.flags.writeable = False
        return Document(words)

    def __iter__(self) -> Iterator[Document]:
        for index in range(len(self)):
            yield self[index]


class Corpus:
    """A collection of documents over one vocabulary, stored token-major.

    Parameters
    ----------
    documents:
        The documents, each a :class:`Document` (or a 1-D word-id array)
        whose word ids are valid for ``vocabulary``.  Their tokens are copied
        into the flat arrays once; the corpus keeps no reference to them.
    vocabulary:
        The shared vocabulary.  Its size bounds every word id.
    """

    def __init__(self, documents: Sequence[DocumentLike], vocabulary: Vocabulary):
        lengths, token_words = _flatten(documents)
        self._adopt(vocabulary, np.concatenate(([0], np.cumsum(lengths))), token_words)

    @staticmethod
    def _from_flat(
        vocabulary: Vocabulary, doc_offsets: np.ndarray, token_words: np.ndarray
    ) -> "Corpus":
        """A plain corpus over already-flat CSR arrays (validated, not copied)."""
        corpus = Corpus.__new__(Corpus)
        corpus._adopt(vocabulary, doc_offsets, token_words)
        return corpus

    def _adopt(
        self, vocabulary: Vocabulary, doc_offsets: np.ndarray, token_words: np.ndarray
    ) -> None:
        """Validate flat CSR arrays and make them this corpus' token store."""
        if doc_offsets.size < 2:
            raise ValueError("a corpus must contain at least one document")
        token_words = np.asarray(token_words, dtype=np.int64)
        if not token_words.size:
            raise ValueError("a corpus must contain at least one token")
        _check_word_ids(token_words, vocabulary.size)
        self._vocabulary = vocabulary
        self._doc_offsets = doc_offsets
        self._token_words = token_words
        self._init_derived()

    def _init_derived(self) -> None:
        """Compute the per-token document ids and the word-major (CSC) view.

        Requires ``_vocabulary``, ``_doc_offsets`` and ``_token_words`` to be
        set; shared between ``__init__`` and the cheap document-range views
        of :meth:`slice`.
        """
        self._token_docs = np.repeat(
            np.arange(self.num_documents, dtype=np.int64),
            np.diff(self._doc_offsets),
        )
        self._init_word_major()

    def _init_word_major(self) -> None:
        """(Re)build the CSC view from ``_token_words`` and the vocabulary."""
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
        return int(self._doc_offsets.size) - 1

    @property
    def num_tokens(self) -> int:
        """Total number of tokens ``T``."""
        return int(self._token_words.size)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct words ``V`` (vocabulary size, not observed)."""
        return self._vocabulary.size

    @property
    def documents(self) -> Sequence[Document]:
        """The documents, as read-only views over the flat token array."""
        return _DocumentViews(self._token_words, self._doc_offsets)

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
        """Return a new corpus containing only the given documents (copied)."""
        indices = np.asarray(list(doc_indices), dtype=np.int64)
        if not indices.size:
            raise ValueError("subset requires at least one document index")
        num_docs = self.num_documents
        if indices.min() < -num_docs or indices.max() >= num_docs:
            raise IndexError(
                f"document index out of range [{-num_docs}, {num_docs})"
            )
        indices %= num_docs
        offsets = np.asarray(self._doc_offsets)
        starts = offsets[indices]
        doc_offsets = np.concatenate(([0], np.cumsum(offsets[indices + 1] - starts)))
        # Flat source index of every kept token: each document's run of
        # positions, shifted from its new start back to its old one.
        source = np.repeat(
            starts - doc_offsets[:-1], np.diff(doc_offsets)
        ) + np.arange(doc_offsets[-1])
        return Corpus._from_flat(
            self._vocabulary, doc_offsets, np.asarray(self._token_words[source])
        )

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
        return self._fill_view(Corpus.__new__(Corpus), start, stop)

    def _fill_view(self, view: "Corpus", start: int, stop: int) -> "Corpus":
        """Point ``view`` at documents ``[start, stop)`` and derive its indices."""
        if not 0 <= start <= stop <= self.num_documents:
            raise IndexError(
                f"invalid document range [{start}, {stop}) for corpus with "
                f"{self.num_documents} documents"
            )
        view._vocabulary = self._vocabulary
        base = int(self._doc_offsets[start])
        view._doc_offsets = np.asarray(self._doc_offsets[start : stop + 1]) - base
        view._token_words = self._token_words[base : int(self._doc_offsets[stop])]
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
        return self.documents[doc_index]

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Corpus(documents={self.num_documents}, tokens={self.num_tokens}, "
            f"vocabulary={self.vocabulary_size})"
        )
