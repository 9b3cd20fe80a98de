"""Reader/writer for the UCI bag-of-words format.

NYTimes and PubMed, the paper's single-machine corpora, are distributed by the
UCI machine learning repository in this format:

``docword.<name>.txt``::

    D
    V
    NNZ
    docID wordID count
    ...

``vocab.<name>.txt`` — one word per line, 1-indexed by line number.

Both docIDs and wordIDs are 1-based in the files and converted to 0-based ids
internally.

The parser is chunked: entries are validated and accumulated in fixed-size
numeric buffers (``chunk_entries`` triples at a time), never in per-document
dict state, so parse overhead is O(chunk) and the peak footprint of
:func:`read_uci_bow` is the compact token arrays themselves.  For corpora
that should never be resident at all, :func:`uci_to_store` streams the same
chunks straight into a :class:`~repro.corpus.store.StoreWriter` — one
buffered document at a time — producing an on-disk store without ever
holding the full token array.
"""

from __future__ import annotations

import gzip
from array import array
from pathlib import Path
from typing import Iterator, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.vocabulary import Vocabulary

__all__ = [
    "read_uci_bow",
    "read_uci_vocab",
    "uci_to_store",
    "write_uci_bow",
    "write_uci_vocab",
]

PathLike = Union[str, Path]

#: Entries (docID/wordID/count triples) buffered per parser chunk.
DEFAULT_CHUNK_ENTRIES = 1 << 18


def _open_text(path: PathLike, mode: str) -> TextIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def read_uci_vocab(path: PathLike) -> Vocabulary:
    """Read a ``vocab.*.txt`` file (one word per line)."""
    with _open_text(path, "r") as handle:
        words = [line.strip() for line in handle if line.strip()]
    return Vocabulary(words)


def write_uci_vocab(vocabulary: Vocabulary, path: PathLike) -> None:
    """Write a vocabulary as one word per line."""
    with _open_text(path, "w") as handle:
        for word in vocabulary.words():
            handle.write(word + "\n")


def _read_uci_header(handle: TextIO, docword_path: PathLike) -> Tuple[int, int, int]:
    header = [handle.readline() for _ in range(3)]
    try:
        return int(header[0]), int(header[1]), int(header[2])
    except (ValueError, IndexError) as exc:
        raise ValueError(
            f"{docword_path}: malformed UCI header (expected 3 integer lines)"
        ) from exc


def _iter_uci_entries(
    handle: TextIO,
    docword_path: PathLike,
    num_docs: int,
    num_words: int,
    max_documents: Optional[int],
    chunk_entries: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield validated ``(docs, words, counts)`` chunks, ids 0-based.

    Validation (and its error messages) matches the historical whole-file
    parser exactly; entries for documents beyond ``max_documents`` are
    filtered here so no downstream state grows with the skipped tail.
    """
    docs, words, counts = array("q"), array("q"), array("q")
    for line_number, line in enumerate(handle, start=4):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{docword_path}:{line_number}: expected 'doc word count', got {line!r}"
            )
        doc_id, word_id, count = (int(part) for part in parts)
        if not 1 <= doc_id <= num_docs:
            raise ValueError(
                f"{docword_path}:{line_number}: document id {doc_id} out of range"
            )
        if not 1 <= word_id <= num_words:
            raise ValueError(
                f"{docword_path}:{line_number}: word id {word_id} out of range"
            )
        if count <= 0:
            raise ValueError(
                f"{docword_path}:{line_number}: count must be positive, got {count}"
            )
        if max_documents is not None and doc_id > max_documents:
            continue
        docs.append(doc_id - 1)
        words.append(word_id - 1)
        counts.append(count)
        if len(docs) >= chunk_entries:
            yield (
                np.frombuffer(docs, dtype=np.int64),
                np.frombuffer(words, dtype=np.int64),
                np.frombuffer(counts, dtype=np.int64),
            )
            docs, words, counts = array("q"), array("q"), array("q")
    if docs:
        yield (
            np.frombuffer(docs, dtype=np.int64),
            np.frombuffer(words, dtype=np.int64),
            np.frombuffer(counts, dtype=np.int64),
        )


def _resolve_vocabulary(
    vocab_path: Optional[PathLike], num_words: int
) -> Vocabulary:
    if vocab_path is not None:
        vocabulary = read_uci_vocab(vocab_path)
        if vocabulary.size < num_words:
            raise ValueError(
                f"vocab file has {vocabulary.size} words but docword header says {num_words}"
            )
        return vocabulary
    return Vocabulary(f"w{i}" for i in range(num_words))


def read_uci_bow(
    docword_path: PathLike,
    vocab_path: Optional[PathLike] = None,
    max_documents: Optional[int] = None,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> Corpus:
    """Read a UCI ``docword.*.txt`` (optionally gzipped) into a :class:`Corpus`.

    Entries may appear in any order; a stable sort by document id preserves
    file order within each document, so tokens expand in the order the file
    lists them.

    Parameters
    ----------
    docword_path:
        Path to the docword file.
    vocab_path:
        Optional path to the matching vocab file; if omitted, synthetic word
        names ``w0..w{V-1}`` are used.
    max_documents:
        If given, keep only the first ``max_documents`` documents — handy for
        scaled-down experiments.
    chunk_entries:
        Entries buffered per parser chunk (bounds the parse-state footprint).
    """
    if chunk_entries <= 0:
        raise ValueError(f"chunk_entries must be positive, got {chunk_entries}")
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    with _open_text(docword_path, "r") as handle:
        num_docs, num_words, _ = _read_uci_header(handle, docword_path)
        chunks.extend(
            _iter_uci_entries(
                handle, docword_path, num_docs, num_words, max_documents, chunk_entries
            )
        )

    vocabulary = _resolve_vocabulary(vocab_path, num_words)
    kept_docs = num_docs if max_documents is None else min(num_docs, max_documents)

    if chunks:
        docs = np.concatenate([c[0] for c in chunks])
        words = np.concatenate([c[1] for c in chunks])
        counts = np.concatenate([c[2] for c in chunks])
    else:
        docs = words = counts = np.empty(0, dtype=np.int64)
    order = np.argsort(docs, kind="stable")
    docs, words, counts = docs[order], words[order], counts[order]

    lengths = np.zeros(max(kept_docs, 1), dtype=np.int64)
    np.add.at(lengths, docs, counts)
    # Drop trailing empty documents but keep interior ones (so doc ids stay
    # aligned for debugging real corpora).
    occupied = np.flatnonzero(lengths)
    kept_docs = max(int(occupied[-1]) + 1 if occupied.size else 0, 1)

    token_words = np.repeat(words, counts)
    doc_offsets = np.zeros(kept_docs + 1, dtype=np.int64)
    np.cumsum(lengths[:kept_docs], out=doc_offsets[1:])
    return Corpus._from_flat(vocabulary, doc_offsets, token_words)


def uci_to_store(
    docword_path: PathLike,
    store_dir: PathLike,
    vocab_path: Optional[PathLike] = None,
    max_documents: Optional[int] = None,
    *,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    overwrite: bool = False,
) -> Path:
    """Convert a UCI docword file straight to an on-disk corpus store.

    Unlike :func:`read_uci_bow` → ``write_store``, this never holds the
    token array: each parsed chunk is expanded one document at a time into a
    :class:`~repro.corpus.store.StoreWriter`, so the peak footprint is one
    parser chunk plus one document.  Requires the file's entries to be
    grouped by ascending document id — the order the UCI distribution files
    use; unsorted files must go through :func:`read_uci_bow`.

    Trailing empty documents are dropped and interior ones kept, matching
    :func:`read_uci_bow`.

    Returns the store directory (open it with
    :func:`repro.corpus.store.open_store`).
    """
    from repro.corpus.store import StoreWriter

    if chunk_entries <= 0:
        raise ValueError(f"chunk_entries must be positive, got {chunk_entries}")
    empty = np.empty(0, dtype=np.int64)
    with _open_text(docword_path, "r") as handle:
        num_docs, num_words, _ = _read_uci_header(handle, docword_path)
        vocabulary = _resolve_vocabulary(vocab_path, num_words)
        with StoreWriter(store_dir, overwrite=overwrite) as writer:
            current = -1
            appended = 0
            buffer: List[np.ndarray] = []

            def flush() -> None:
                nonlocal appended
                while appended < current:  # interior empty documents
                    writer.append_document(empty)
                    appended += 1
                writer.append_document(
                    np.concatenate(buffer) if buffer else empty
                )
                appended += 1

            for docs, words, counts in _iter_uci_entries(
                handle, docword_path, num_docs, num_words, max_documents,
                chunk_entries,
            ):
                if docs.size and (
                    int(docs[0]) < current or np.any(np.diff(docs) < 0)
                ):
                    raise ValueError(
                        f"{docword_path}: uci_to_store requires entries grouped "
                        f"by ascending document id (the UCI distribution "
                        f"order); parse unsorted files with read_uci_bow"
                    )
                boundaries = np.flatnonzero(np.diff(docs)) + 1
                for segment in np.split(np.arange(docs.size), boundaries):
                    doc_id = int(docs[segment[0]])
                    if doc_id != current:
                        if current >= 0:
                            flush()
                        current = doc_id
                        buffer = []
                    buffer.append(np.repeat(words[segment], counts[segment]))
            if current >= 0:
                flush()
            return writer.finalize(vocabulary)


def write_uci_bow(
    corpus: Corpus,
    docword_path: PathLike,
    vocab_path: Optional[PathLike] = None,
) -> None:
    """Write ``corpus`` in UCI bag-of-words format."""
    entries: List[Tuple[int, int, int]] = []
    for doc_index in range(corpus.num_documents):
        bag = corpus[doc_index].bag_of_words()
        for word_id in sorted(bag):
            entries.append((doc_index + 1, word_id + 1, bag[word_id]))

    with _open_text(docword_path, "w") as handle:
        handle.write(f"{corpus.num_documents}\n")
        handle.write(f"{corpus.vocabulary_size}\n")
        handle.write(f"{len(entries)}\n")
        for doc_id, word_id, count in entries:
            handle.write(f"{doc_id} {word_id} {count}\n")

    if vocab_path is not None:
        write_uci_vocab(corpus.vocabulary, vocab_path)
