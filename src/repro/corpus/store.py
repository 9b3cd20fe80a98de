"""On-disk token-major corpus store: corpora bigger than RAM.

A *corpus store* is a directory holding the exact arrays a
:class:`~repro.corpus.corpus.Corpus` computes in RAM — the flat token-major
``token_words`` / ``token_docs`` arrays, the CSR ``doc_offsets``, the CSC view
(``word_order`` permutation + ``word_offsets``) — each as a plain ``.npy``
file, plus a JSON manifest and the vocabulary.  That is the whole of the
paper's Sec. 5.2 layout: the slab bands of :mod:`repro.kernels.buckets` are
``(rows, lengths)`` views over these offsets and ``word_order``, built in
O(rows) memory at first use, so nothing else is stored.

Layout of ``<store>/``::

    store.json            manifest (format, version, D/T/V)
    vocab.json            Vocabulary.to_serializable()
    token_words.npy       (T,) int64 — word id of every token, document order
    doc_offsets.npy       (D+1,) int64 — CSR offsets
    token_docs.npy        (T,) int64 — document index of every token
    word_order.npy        (T,) int64 — stable permutation grouping by word
    word_offsets.npy      (V+1,) int64 — CSC offsets into word_order

Two halves:

* :class:`StoreWriter` builds a store **without ever holding all tokens at
  once**: documents are appended to a raw spill file, and ``finalize()``
  derives every array in bounded-memory chunked passes (the ``word_order``
  permutation via a chunked *stable counting sort* that is element-identical
  to the in-RAM ``np.argsort(kind="stable")``).
* :class:`MappedCorpus` opens a store through ``np.load(..., mmap_mode="r")``
  and satisfies the full :class:`~repro.corpus.corpus.Corpus` interface, so
  samplers, slab kernels, evaluation and the ``ParallelTrainer`` run
  unchanged — bit-exactly — against corpora that never fully materialise.
  Its :meth:`~MappedCorpus.slice` views pickle as ``(path, start, stop)``,
  so parallel workers open only their shard of the store instead of
  receiving a full corpus copy over the process boundary.

The memory story, precisely: mapped arrays are clean file-backed pages the
OS can always evict, so residency tracks the *touched working set*, not the
corpus size.  Opening a store is O(V) heap (word frequencies); replaying it
through :func:`iter_store_documents` uses bounded ``np.fromfile`` reads and
stays flat in corpus size; a full training sweep touches every token page
but holds only O(T_shard) heap for the per-shard derived indices.
"""

from __future__ import annotations

import collections.abc
import json
import os
import shutil
from array import array
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.format import open_memmap

from repro.corpus.corpus import Corpus, Document
from repro.corpus.vocabulary import Vocabulary

__all__ = [
    "MappedCorpus",
    "StoreWriter",
    "iter_store_documents",
    "open_store",
    "write_store",
]

PathLike = Union[str, Path]

MANIFEST_NAME = "store.json"
FORMAT_NAME = "repro-corpus-store"
FORMAT_VERSION = 1

#: Tokens handled per chunked pass (32 MiB of int64): the heap high-water of
#: every writer pass and of :func:`iter_store_documents` reads.
DEFAULT_CHUNK_TOKENS = 1 << 22

_ARRAY_FILES = (
    "token_words",
    "doc_offsets",
    "token_docs",
    "word_order",
    "word_offsets",
)


def _mapped(path: Path) -> np.ndarray:
    """Open one store array memory-mapped (never materialised)."""
    return np.load(path, mmap_mode="r")


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #
class StoreWriter:
    """Build a corpus store by appending documents, then ``finalize()``.

    The writer never holds the corpus: appended tokens go straight to a raw
    spill file (``tokens.bin.tmp``), and only the per-document lengths —
    O(D) — stay in memory.  ``finalize()`` then derives every store array in
    chunked passes of at most ``chunk_tokens`` tokens each.

    Use as a context manager for crash hygiene: leaving the ``with`` block
    without a successful ``finalize()`` aborts and removes the partial spill
    (an unfinished directory never gains a manifest, so ``open_store``
    refuses it).

    Parameters
    ----------
    directory:
        Target store directory.  Must not already contain a store unless
        ``overwrite=True`` (which removes the existing one).
    chunk_tokens:
        Tokens per chunked pass; bounds the writer's heap high-water.
    overwrite:
        Replace an existing store directory instead of refusing.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
        overwrite: bool = False,
    ) -> None:
        if chunk_tokens <= 0:
            raise ValueError(f"chunk_tokens must be positive, got {chunk_tokens}")
        self.directory = Path(directory)
        if self.directory.exists():
            if (self.directory / MANIFEST_NAME).exists() and not overwrite:
                raise FileExistsError(
                    f"{self.directory} already holds a corpus store "
                    f"(pass overwrite=True to replace it)"
                )
            if overwrite:
                shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunk_tokens = int(chunk_tokens)
        self._spill_path = self.directory / "tokens.bin.tmp"
        self._spill = open(self._spill_path, "wb")
        self._lengths = array("q")
        self._max_word = -1
        self._num_tokens = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    @property
    def num_documents(self) -> int:
        """Documents appended so far."""
        return len(self._lengths)

    @property
    def num_tokens(self) -> int:
        """Tokens appended so far."""
        return self._num_tokens

    def append_document(self, word_ids: Union[np.ndarray, Sequence[int]]) -> None:
        """Append one document's word ids (may be empty)."""
        ids = np.ascontiguousarray(word_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"word_ids must be 1-D, got shape {ids.shape}")
        if ids.size:
            low = int(ids.min())
            if low < 0:
                raise ValueError("word ids must be non-negative")
            self._max_word = max(self._max_word, int(ids.max()))
        ids.tofile(self._spill)
        self._lengths.append(int(ids.size))
        self._num_tokens += int(ids.size)

    def append_tokens(self, flat_words: np.ndarray, lengths: np.ndarray) -> None:
        """Append a batch of documents given flat tokens plus per-doc lengths."""
        flat = np.ascontiguousarray(flat_words, dtype=np.int64)
        lens = np.asarray(lengths, dtype=np.int64)
        if flat.ndim != 1 or lens.ndim != 1:
            raise ValueError("flat_words and lengths must be 1-D")
        if int(lens.sum()) != flat.size:
            raise ValueError(
                f"lengths sum to {int(lens.sum())} but {flat.size} tokens given"
            )
        if lens.size and int(lens.min()) < 0:
            raise ValueError("document lengths must be non-negative")
        if flat.size:
            low = int(flat.min())
            if low < 0:
                raise ValueError("word ids must be non-negative")
            self._max_word = max(self._max_word, int(flat.max()))
        flat.tofile(self._spill)
        self._lengths.extend(int(n) for n in lens)
        self._num_tokens += int(flat.size)

    # ------------------------------------------------------------------ #
    def finalize(self, vocabulary: Optional[Vocabulary] = None) -> Path:
        """Derive every store array in chunked passes and write the manifest.

        ``vocabulary`` is the corpus vocabulary; omitted, synthetic names
        ``w0..w{V-1}`` cover the observed word ids (matching
        ``read_uci_bow``).
        """
        if self._finalized:
            raise RuntimeError("store already finalized")
        self._spill.close()
        num_docs = len(self._lengths)
        if num_docs == 0:
            raise ValueError("a corpus store must contain at least one document")
        if self._num_tokens == 0:
            raise ValueError("a corpus store must contain at least one token")
        if vocabulary is None:
            vocabulary = Vocabulary(f"w{i}" for i in range(self._max_word + 1))
        if self._max_word >= vocabulary.size:
            raise ValueError(
                f"word id {self._max_word} out of range for vocabulary of "
                f"size {vocabulary.size}"
            )

        lengths = np.frombuffer(self._lengths, dtype=np.int64)
        doc_offsets = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=doc_offsets[1:])
        total = int(doc_offsets[-1])
        np.save(self.directory / "doc_offsets.npy", doc_offsets)

        self._copy_spill_to_npy(total)
        word_offsets = self._write_word_offsets(total, vocabulary.size)
        self._write_word_order(total, word_offsets)
        self._write_token_docs(doc_offsets)

        vocab_path = self.directory / "vocab.json"
        vocab_path.write_text(
            json.dumps(vocabulary.to_serializable()), encoding="utf-8"
        )

        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "num_documents": num_docs,
            "num_tokens": total,
            "vocabulary_size": vocabulary.size,
        }
        tmp = self.directory / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        os.replace(tmp, self.directory / MANIFEST_NAME)
        self._finalized = True
        return self.directory

    def abort(self) -> None:
        """Discard an unfinished store (spill file and handle)."""
        if not self._spill.closed:
            self._spill.close()
        if not self._finalized and self._spill_path.exists():
            self._spill_path.unlink()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not self._finalized:
            self.abort()

    # ------------------------------------------------------------------ #
    # Chunked passes (each bounded by ``chunk_tokens`` heap)
    # ------------------------------------------------------------------ #
    def _token_chunks(self, total: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start, chunk)`` over the finalized token file."""
        path = self.directory / "token_words.npy"
        offset = int(_mapped(path).offset)  # npy header size
        for start in range(0, total, self.chunk_tokens):
            count = min(self.chunk_tokens, total - start)
            yield start, np.fromfile(
                path, dtype=np.int64, count=count, offset=offset + 8 * start
            )

    def _copy_spill_to_npy(self, total: int) -> None:
        out = open_memmap(
            self.directory / "token_words.npy",
            mode="w+",
            dtype=np.int64,
            shape=(total,),
        )
        for start in range(0, total, self.chunk_tokens):
            count = min(self.chunk_tokens, total - start)
            out[start : start + count] = np.fromfile(
                self._spill_path, dtype=np.int64, count=count, offset=8 * start
            )
        out.flush()
        del out
        self._spill_path.unlink()

    def _write_word_offsets(self, total: int, vocab_size: int) -> np.ndarray:
        counts = np.zeros(vocab_size, dtype=np.int64)
        for _, chunk in self._token_chunks(total):
            counts += np.bincount(chunk, minlength=vocab_size)
        word_offsets = np.zeros(vocab_size + 1, dtype=np.int64)
        np.cumsum(counts, out=word_offsets[1:])
        np.save(self.directory / "word_offsets.npy", word_offsets)
        return word_offsets

    def _write_word_order(self, total: int, word_offsets: np.ndarray) -> None:
        """Chunked stable counting sort, element-identical to the in-RAM
        ``np.argsort(token_words, kind="stable")``.

        Chunks arrive in ascending token order; within a chunk a stable
        argsort ranks each word's tokens in ascending index order; the
        per-word cursor adds the count of that word's tokens in earlier
        chunks.  Destination = cursor + within-chunk rank reproduces the
        global stable order exactly.
        """
        out = open_memmap(
            self.directory / "word_order.npy",
            mode="w+",
            dtype=np.int64,
            shape=(total,),
        )
        cursors = word_offsets[:-1].copy()
        for start, chunk in self._token_chunks(total):
            order = np.argsort(chunk, kind="stable")
            sorted_words = chunk[order]
            unique, seg_starts, seg_counts = np.unique(
                sorted_words, return_index=True, return_counts=True
            )
            base = np.repeat(cursors[unique], seg_counts)
            within = np.arange(chunk.size, dtype=np.int64) - np.repeat(
                seg_starts, seg_counts
            )
            out[base + within] = start + order
            cursors[unique] += seg_counts
        out.flush()
        del out

    def _write_token_docs(self, doc_offsets: np.ndarray) -> None:
        total = int(doc_offsets[-1])
        num_docs = doc_offsets.size - 1
        out = open_memmap(
            self.directory / "token_docs.npy",
            mode="w+",
            dtype=np.int64,
            shape=(total,),
        )
        doc = 0
        while doc < num_docs:
            target = doc_offsets[doc] + self.chunk_tokens
            stop = int(np.searchsorted(doc_offsets, target, side="right")) - 1
            stop = min(max(stop, doc + 1), num_docs)
            out[doc_offsets[doc] : doc_offsets[stop]] = np.repeat(
                np.arange(doc, stop, dtype=np.int64),
                np.diff(doc_offsets[doc : stop + 1]),
            )
            doc = stop
        out.flush()
        del out


# --------------------------------------------------------------------- #
# Lazy document sequence
# --------------------------------------------------------------------- #
class _LazyDocuments(collections.abc.Sequence):
    """A read-only document sequence over mapped token arrays.

    Supports ``len``, integer indexing (builds a :class:`Document` view on
    demand), step-1 slicing (returns a range-restricted lazy view — the form
    ``Corpus.slice`` uses), and iteration, so every inherited ``Corpus``
    method works without a resident document list.
    """

    __slots__ = ("_token_words", "_doc_offsets", "_start", "_stop")

    def __init__(
        self,
        token_words: np.ndarray,
        doc_offsets: np.ndarray,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self._token_words = token_words
        self._doc_offsets = doc_offsets
        self._start = start
        self._stop = doc_offsets.size - 1 if stop is None else stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("lazy document views support step-1 slices only")
            return _LazyDocuments(
                self._token_words,
                self._doc_offsets,
                self._start + start,
                self._start + stop,
            )
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"document index {index} out of range [0, {len(self)})")
        doc = self._start + index
        lo = int(self._doc_offsets[doc])
        hi = int(self._doc_offsets[doc + 1])
        return Document(np.asarray(self._token_words[lo:hi], dtype=np.int64))

    def __iter__(self) -> Iterator[Document]:
        for index in range(len(self)):
            yield self[index]


# --------------------------------------------------------------------- #
# Mapped corpus
# --------------------------------------------------------------------- #
class MappedCorpus(Corpus):
    """A :class:`Corpus` whose arrays live on disk, opened memory-mapped.

    Every array the in-RAM constructor derives is read straight from the
    store (element-identical by the writer's construction), so nothing
    O(tokens) is ever allocated on open — only the O(V) word-frequency
    vector.  Documents are materialised lazily, one at a time, on access.

    The slab bands of :func:`~repro.kernels.buckets.corpus_buckets` are
    built from the mapped offsets in O(rows) memory and keep referencing the
    mapped ``word_order``, so kernel training gathers tokens straight from
    disk pages.  A ``buckets`` manifest key or ``buckets/`` directory left by
    an older writer is ignored.

    Pickling round-trips as the store *path* (workers reopen their own
    maps); :meth:`slice` views pickle as ``(path, start, stop)``, which is
    what makes ``ParallelTrainer`` shard hand-off O(1) in corpus size.
    """

    def __init__(self, directory: PathLike) -> None:
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{directory} is not a corpus store (missing {MANIFEST_NAME}; "
                f"was the writer finalized?)"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != FORMAT_NAME:
            raise ValueError(
                f"{manifest_path}: not a {FORMAT_NAME} manifest "
                f"(format={manifest.get('format')!r})"
            )
        version = manifest.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported store version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        self._store_path = directory
        self._manifest = manifest
        vocab_data = json.loads((directory / "vocab.json").read_text("utf-8"))
        self._vocabulary = Vocabulary.from_serializable(vocab_data)

        self._token_words = _mapped(directory / "token_words.npy")
        self._doc_offsets = _mapped(directory / "doc_offsets.npy")
        self._token_docs = _mapped(directory / "token_docs.npy")
        self._word_order = _mapped(directory / "word_order.npy")
        self._word_offsets = _mapped(directory / "word_offsets.npy")
        self._validate_shapes()
        self._word_frequencies = np.asarray(
            np.diff(self._word_offsets), dtype=np.int64
        )
        self._documents = _LazyDocuments(self._token_words, self._doc_offsets)

    def _validate_shapes(self) -> None:
        m = self._manifest
        expected = {
            "token_words": (int(m["num_tokens"]),),
            "doc_offsets": (int(m["num_documents"]) + 1,),
            "token_docs": (int(m["num_tokens"]),),
            "word_order": (int(m["num_tokens"]),),
            "word_offsets": (int(m["vocabulary_size"]) + 1,),
        }
        arrays = {
            "token_words": self._token_words,
            "doc_offsets": self._doc_offsets,
            "token_docs": self._token_docs,
            "word_order": self._word_order,
            "word_offsets": self._word_offsets,
        }
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"{self._store_path}/{name}.npy: shape {arrays[name].shape} "
                    f"does not match manifest {shape} — store is corrupt"
                )
        if self._vocabulary.size != int(m["vocabulary_size"]):
            raise ValueError(
                f"{self._store_path}/vocab.json: {self._vocabulary.size} words "
                f"but manifest says {m['vocabulary_size']} — store is corrupt"
            )

    # ------------------------------------------------------------------ #
    @property
    def store_path(self) -> Path:
        """The store directory this corpus maps."""
        return self._store_path

    def materialize(self) -> Corpus:
        """Copy the store into a plain in-RAM :class:`Corpus` (small stores
        and equivalence tests only — O(tokens) heap by definition)."""
        offsets = np.asarray(self._doc_offsets)
        documents = [
            Document(np.array(self._token_words[offsets[d] : offsets[d + 1]]))
            for d in range(self.num_documents)
        ]
        return Corpus(documents, self._vocabulary)

    def slice(self, start: int, stop: int) -> Corpus:
        """A shard view over documents ``[start, stop)``.

        The token array stays a disk-backed view; the derived per-shard
        indices (``token_docs``, ``word_order``) are computed in RAM —
        O(tokens in the shard), the working set a shard's worker needs
        anyway.  The view pickles as ``(store path, start, stop)``.
        """
        if not 0 <= start <= stop <= self.num_documents:
            raise IndexError(
                f"invalid document range [{start}, {stop}) for corpus with "
                f"{self.num_documents} documents"
            )
        view = _MappedSlice.__new__(_MappedSlice)
        view._store_path = self._store_path
        view._slice_range = (start, stop)
        view._vocabulary = self._vocabulary
        view._documents = self._documents[start:stop]
        base = int(self._doc_offsets[start])
        view._doc_offsets = np.asarray(self._doc_offsets[start : stop + 1]) - base
        view._token_words = self._token_words[base : int(self._doc_offsets[stop])]
        view._init_derived()
        return view

    def __reduce__(self) -> Tuple[Any, ...]:
        return (open_store, (str(self._store_path),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappedCorpus(path={str(self._store_path)!r}, "
            f"documents={self.num_documents}, tokens={self.num_tokens}, "
            f"vocabulary={self.vocabulary_size})"
        )


class _MappedSlice(Corpus):
    """A shard view of a :class:`MappedCorpus` that pickles by reference.

    Crossing a process boundary costs three scalars — the store path and the
    document range — instead of the shard's token data; the receiving worker
    reopens the store and maps only its own range.
    """

    _store_path: Path
    _slice_range: Tuple[int, int]

    def __reduce__(self) -> Tuple[Any, ...]:
        start, stop = self._slice_range
        return (_open_store_slice, (str(self._store_path), start, stop))


def _open_store_slice(path: str, start: int, stop: int) -> Corpus:
    """Unpickle hook for :class:`_MappedSlice` (module-level for spawn)."""
    return open_store(path).slice(start, stop)


# --------------------------------------------------------------------- #
# Module-level conveniences
# --------------------------------------------------------------------- #
def open_store(path: PathLike) -> MappedCorpus:
    """Open a corpus store directory as a :class:`MappedCorpus`."""
    return MappedCorpus(path)


def write_store(
    corpus: Corpus,
    directory: PathLike,
    *,
    chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
    overwrite: bool = False,
) -> Path:
    """Persist an existing corpus as a store (chunked; no extra full copy)."""
    offsets = np.asarray(corpus.doc_offsets)
    token_words = corpus.token_words
    num_docs = corpus.num_documents
    with StoreWriter(
        directory, chunk_tokens=chunk_tokens, overwrite=overwrite
    ) as writer:
        doc = 0
        while doc < num_docs:
            target = offsets[doc] + writer.chunk_tokens
            stop = int(np.searchsorted(offsets, target, side="right")) - 1
            stop = min(max(stop, doc + 1), num_docs)
            writer.append_tokens(
                np.asarray(token_words[offsets[doc] : offsets[stop]]),
                np.diff(offsets[doc : stop + 1]),
            )
            doc = stop
        return writer.finalize(corpus.vocabulary)


def iter_store_documents(
    store: Union[PathLike, MappedCorpus],
    start: int = 0,
    stop: Optional[int] = None,
    *,
    chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
) -> Iterator[np.ndarray]:
    """Yield per-document word-id arrays via bounded heap reads.

    Unlike iterating ``corpus.documents`` (which pages the memory map into
    residency), this reads ``token_words.npy`` in explicit ``np.fromfile``
    chunks: the heap high-water is one chunk regardless of corpus size,
    which is what keeps replay RSS flat — the property
    ``benchmarks/bench_outofcore.py`` asserts.
    """
    corpus = store if isinstance(store, MappedCorpus) else open_store(store)
    num_docs = corpus.num_documents
    stop = num_docs if stop is None else stop
    if not 0 <= start <= stop <= num_docs:
        raise IndexError(
            f"invalid document range [{start}, {stop}) for corpus with "
            f"{num_docs} documents"
        )
    path = corpus.store_path / "token_words.npy"
    offsets = np.asarray(corpus.doc_offsets)
    byte_offset = int(corpus.token_words.offset)
    doc = start
    while doc < stop:
        target = offsets[doc] + chunk_tokens
        chunk_stop = int(np.searchsorted(offsets, target, side="right")) - 1
        chunk_stop = min(max(chunk_stop, doc + 1), stop)
        base = int(offsets[doc])
        chunk = np.fromfile(
            path,
            dtype=np.int64,
            count=int(offsets[chunk_stop]) - base,
            offset=byte_offset + 8 * base,
        )
        for index in range(doc, chunk_stop):
            yield chunk[offsets[index] - base : offsets[index + 1] - base]
        doc = chunk_stop
