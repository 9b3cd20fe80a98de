"""Tests for the on-disk corpus store (:mod:`repro.corpus.store`).

The store's contract is *element identity*: a :class:`MappedCorpus` opened
from disk must be indistinguishable from the in-RAM :class:`Corpus` it was
written from — same flat arrays, same CSR/CSC views, same slab bands (and
so the same token order), same slices — with only the residency differing.  Every test here compares
against the RAM original, with small ``chunk_tokens`` forcing the writer
through many chunks so the chunked sort/copy paths are genuinely exercised.
"""

import json
import pickle

import numpy as np
import pytest

from repro.corpus import (
    Corpus,
    MappedCorpus,
    StoreWriter,
    SyntheticCorpusSpec,
    generate_zipf_corpus,
    iter_store_documents,
    open_store,
    write_store,
)
from repro.core import WarpLDA
from repro.corpus.store import FORMAT_VERSION, MANIFEST_NAME
from repro.kernels.buckets import corpus_buckets
from repro.training import contiguous_shards

#: Small enough that the 3k-token fixture spans many chunks.
CHUNK = 257


@pytest.fixture(scope="module")
def ram_corpus():
    spec = SyntheticCorpusSpec(
        num_documents=120, vocabulary_size=90, mean_document_length=25
    )
    return generate_zipf_corpus(spec, seed=7)


@pytest.fixture(scope="module")
def store_dir(ram_corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("store") / "corpus"
    write_store(ram_corpus, directory, chunk_tokens=CHUNK)
    return directory


@pytest.fixture(scope="module")
def mapped(store_dir):
    return open_store(store_dir)


class TestElementIdentity:
    def test_shapes(self, ram_corpus, mapped):
        assert mapped.num_documents == ram_corpus.num_documents
        assert mapped.num_tokens == ram_corpus.num_tokens
        assert mapped.vocabulary_size == ram_corpus.vocabulary_size

    def test_vocabulary(self, ram_corpus, mapped):
        assert mapped.vocabulary == ram_corpus.vocabulary

    @pytest.mark.parametrize(
        "attr",
        ["token_words", "token_documents", "doc_offsets", "word_offsets", "word_order"],
    )
    def test_flat_arrays(self, ram_corpus, mapped, attr):
        np.testing.assert_array_equal(
            getattr(mapped, attr), getattr(ram_corpus, attr)
        )
        assert getattr(mapped, attr).dtype == getattr(ram_corpus, attr).dtype

    def test_arrays_are_memmaps(self, mapped):
        for attr in ("token_words", "token_documents", "doc_offsets",
                     "word_offsets", "word_order"):
            assert isinstance(getattr(mapped, attr), np.memmap), attr

    def test_word_frequencies(self, ram_corpus, mapped):
        np.testing.assert_array_equal(
            mapped.word_frequencies(), ram_corpus.word_frequencies()
        )

    def test_documents_lazy_but_identical(self, ram_corpus, mapped):
        assert len(mapped.documents) == ram_corpus.num_documents
        for d in (0, 1, 57, ram_corpus.num_documents - 1):
            np.testing.assert_array_equal(
                mapped.documents[d].word_ids, ram_corpus.documents[d].word_ids
            )
        np.testing.assert_array_equal(
            mapped.document_words(3), ram_corpus.document_words(3)
        )

    def test_term_document_counts(self, ram_corpus, mapped):
        np.testing.assert_array_equal(
            mapped.term_document_counts(), ram_corpus.term_document_counts()
        )

    @pytest.mark.parametrize("axis", ["doc", "word"])
    def test_mapped_buckets_match_ram_buckets(self, ram_corpus, mapped, axis):
        built = corpus_buckets(ram_corpus, axis)
        loaded = corpus_buckets(mapped, axis)
        assert len(loaded) == len(built)
        for ours, theirs in zip(loaded, built):
            assert ours.slab_len == theirs.slab_len
            np.testing.assert_array_equal(ours.rows, theirs.rows)
            np.testing.assert_array_equal(ours.lengths, theirs.lengths)
            np.testing.assert_array_equal(ours.token_indices(), theirs.token_indices())

    def test_word_bands_read_the_mapped_word_order(self, store_dir):
        # Bands are O(rows) views: the word axis gathers through the mapped
        # permutation instead of holding an O(T) index of its own.
        corpus = open_store(store_dir)
        for bucket in corpus_buckets(corpus, "word"):
            assert bucket.order is corpus.word_order
            assert isinstance(bucket.order, np.memmap)

    def test_store_holds_only_the_corpus_arrays(self, store_dir):
        manifest = json.loads((store_dir / MANIFEST_NAME).read_text())
        assert "buckets" not in manifest
        assert not (store_dir / "buckets").exists()


class TestViews:
    def test_slice_matches_ram_slice(self, ram_corpus, mapped):
        for start, stop in [(0, 120), (10, 50), (119, 120), (40, 40)]:
            ours = mapped.slice(start, stop)
            theirs = ram_corpus.slice(start, stop)
            assert ours.num_documents == theirs.num_documents
            np.testing.assert_array_equal(ours.token_words, theirs.token_words)
            np.testing.assert_array_equal(
                ours.token_documents, theirs.token_documents
            )
            np.testing.assert_array_equal(ours.doc_offsets, theirs.doc_offsets)
            np.testing.assert_array_equal(ours.word_order, theirs.word_order)
            assert ours.vocabulary == theirs.vocabulary

    def test_slice_out_of_range_message_matches_corpus(self, ram_corpus, mapped):
        with pytest.raises(IndexError) as mapped_err:
            mapped.slice(-1, 5)
        with pytest.raises(IndexError) as ram_err:
            ram_corpus.slice(-1, 5)
        assert str(mapped_err.value) == str(ram_err.value)

    def test_contiguous_shards_views(self, ram_corpus, mapped):
        sizes = np.diff(ram_corpus.doc_offsets)
        bounds = contiguous_shards(sizes, 3)
        for p in range(3):
            start, stop = int(bounds[p]), int(bounds[p + 1])
            ours = mapped.slice(start, stop)
            theirs = ram_corpus.slice(start, stop)
            np.testing.assert_array_equal(ours.token_words, theirs.token_words)
            np.testing.assert_array_equal(
                ours.word_frequencies(), theirs.word_frequencies()
            )

    def test_pickle_roundtrip_reopens_store(self, mapped):
        clone = pickle.loads(pickle.dumps(mapped))
        assert isinstance(clone, MappedCorpus)
        assert clone.store_path == mapped.store_path
        np.testing.assert_array_equal(clone.token_words, mapped.token_words)

    def test_pickle_slice_reopens_without_full_corpus(self, ram_corpus, mapped):
        view = mapped.slice(10, 40)
        blob = pickle.dumps(view)
        # The pickle carries (path, start, stop), not the token arrays.
        assert len(blob) < 2000
        clone = pickle.loads(blob)
        np.testing.assert_array_equal(
            clone.token_words, ram_corpus.slice(10, 40).token_words
        )

    def test_materialize_returns_plain_corpus(self, ram_corpus, mapped):
        dense = mapped.materialize()
        assert type(dense) is Corpus
        np.testing.assert_array_equal(dense.token_words, ram_corpus.token_words)
        np.testing.assert_array_equal(dense.word_order, ram_corpus.word_order)


class TestReplay:
    def test_iter_store_documents_identical(self, ram_corpus, mapped):
        replayed = list(iter_store_documents(mapped, chunk_tokens=CHUNK))
        assert len(replayed) == ram_corpus.num_documents
        for d, words in enumerate(replayed):
            np.testing.assert_array_equal(words, ram_corpus.document_words(d))

    def test_iter_store_documents_range(self, ram_corpus, mapped):
        replayed = list(iter_store_documents(mapped, 30, 35, chunk_tokens=CHUNK))
        assert len(replayed) == 5
        for offset, words in enumerate(replayed):
            np.testing.assert_array_equal(
                words, ram_corpus.document_words(30 + offset)
            )


class TestWriter:
    def test_append_document_equivalent_to_write_store(self, ram_corpus, tmp_path):
        directory = tmp_path / "bydoc"
        with StoreWriter(directory, chunk_tokens=CHUNK) as writer:
            for d in range(ram_corpus.num_documents):
                writer.append_document(ram_corpus.document_words(d))
            writer.finalize(ram_corpus.vocabulary)
        corpus = open_store(directory)
        np.testing.assert_array_equal(
            corpus.token_words, ram_corpus.token_words
        )
        np.testing.assert_array_equal(corpus.word_order, ram_corpus.word_order)

    def test_refuses_existing_store_without_overwrite(self, store_dir):
        with pytest.raises(FileExistsError):
            StoreWriter(store_dir)

    def test_overwrite_replaces(self, ram_corpus, tmp_path):
        directory = tmp_path / "re"
        write_store(ram_corpus, directory)
        small = ram_corpus.slice(0, 5)
        write_store(small, directory, overwrite=True)
        assert open_store(directory).num_documents == 5

    def test_abort_on_error_leaves_no_store(self, tmp_path):
        directory = tmp_path / "aborted"
        with pytest.raises(RuntimeError):
            with StoreWriter(directory) as writer:
                writer.append_document(np.array([1, 2, 3]))
                raise RuntimeError("boom")
        assert not (directory / MANIFEST_NAME).exists()
        with pytest.raises(FileNotFoundError):
            open_store(directory)

    def test_word_id_out_of_vocabulary_range(self, tmp_path):
        from repro.corpus import Vocabulary

        with pytest.raises(ValueError, match="out of range for vocabulary"):
            with StoreWriter(tmp_path / "bad") as writer:
                writer.append_document(np.array([0, 5]))
                writer.finalize(Vocabulary(["a", "b"]))

    def test_negative_word_ids_rejected(self, tmp_path):
        with StoreWriter(tmp_path / "neg") as writer:
            with pytest.raises(ValueError, match="non-negative"):
                writer.append_document(np.array([0, -1]))
            writer.abort()

    def test_empty_documents_roundtrip(self, tmp_path):
        from repro.corpus import Vocabulary

        vocab = Vocabulary(["a", "b", "c"])
        ram = Corpus.from_bags([{0: 1}, {}, {2: 2}], vocab)
        directory = tmp_path / "empties"
        write_store(ram, directory)
        corpus = open_store(directory)
        np.testing.assert_array_equal(corpus.doc_offsets, ram.doc_offsets)
        assert corpus.documents[1].word_ids.size == 0


def write_legacy_sidecar(directory, corpus):
    """Add the padded bucket sidecar older writers stored next to the arrays.

    Per axis and power-of-two band: ``rows``, ``lengths`` and the padded
    ``(R, L)`` ``tokens`` / ``mask`` matrices (padding repeats a row's last
    token), listed under the manifest's ``buckets`` key.
    """
    (directory / "buckets").mkdir(exist_ok=True)
    bands_by_axis = {}
    for axis, offsets, order in (
        ("doc", corpus.doc_offsets, None),
        ("word", corpus.word_offsets, corpus.word_order),
    ):
        lengths = np.diff(offsets)
        nonempty = np.flatnonzero(lengths)
        bands = np.ceil(np.log2(lengths[nonempty])).astype(np.int64)
        bands_by_axis[axis] = [int(band) for band in np.unique(bands)]
        for band in bands_by_axis[axis]:
            rows = nonempty[bands == band]
            column = np.arange(1 << band)[None, :]
            positions = offsets[rows][:, None] + np.minimum(
                column, (lengths[rows] - 1)[:, None]
            )
            prefix = directory / "buckets" / f"{axis}_{band}"
            np.save(f"{prefix}_rows.npy", rows)
            np.save(f"{prefix}_lengths.npy", lengths[rows])
            np.save(
                f"{prefix}_tokens.npy", positions if order is None else order[positions]
            )
            np.save(f"{prefix}_mask.npy", column < lengths[rows][:, None])
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    manifest["buckets"] = bands_by_axis
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
    return bands_by_axis


def _trained_assignments(corpus):
    return WarpLDA(corpus, num_topics=8, seed=3).fit(3).assignments.copy()


class TestLegacySidecar:
    """A ``buckets/`` sidecar from an older writer is never read."""

    @pytest.fixture
    def legacy_store(self, ram_corpus, tmp_path):
        directory = tmp_path / "legacy"
        write_store(ram_corpus, directory)
        bands = write_legacy_sidecar(directory, ram_corpus)
        # A stale copy of the most populated word band moves tokens between
        # words.
        rows = {
            band: np.load(directory / "buckets" / f"word_{band}_rows.npy").size
            for band in bands["word"]
        }
        return directory, max(rows, key=rows.get)

    def test_stale_sidecar_trains_like_ram(self, ram_corpus, legacy_store):
        directory, band = legacy_store
        path = directory / "buckets" / f"word_{band}_tokens.npy"
        np.save(path, np.load(path)[::-1])
        np.testing.assert_array_equal(
            _trained_assignments(open_store(directory)),
            _trained_assignments(ram_corpus),
        )

    def test_partial_sidecar_trains_like_ram(self, ram_corpus, legacy_store):
        directory, band = legacy_store
        (directory / "buckets" / f"word_{band}_mask.npy").unlink()
        np.testing.assert_array_equal(
            _trained_assignments(open_store(directory)),
            _trained_assignments(ram_corpus),
        )


class TestErrors:
    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing store.json"):
            open_store(tmp_path / "nope")

    def test_open_future_format_version(self, ram_corpus, tmp_path):
        directory = tmp_path / "future"
        write_store(ram_corpus, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            open_store(directory)

    def test_truncated_array_detected(self, ram_corpus, tmp_path):
        directory = tmp_path / "corrupt"
        write_store(ram_corpus, directory)
        small = np.zeros(3, dtype=np.int64)
        np.save(directory / "token_words.npy", small)
        with pytest.raises(ValueError, match="corrupt"):
            open_store(directory)
