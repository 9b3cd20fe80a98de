"""StreamingCorpus: append equivalence, lazy CSC rebuilds and window snapshots."""

import gc
import weakref

import numpy as np
import pytest

from repro.corpus import Corpus, Document, Vocabulary
from repro.kernels.buckets import build_buckets, corpus_buckets
from repro.streaming import DocumentStream, StreamingCorpus


def random_token_lists(rng, num_docs, vocab_words=40, max_len=24, allow_empty=True):
    lists = []
    for _ in range(num_docs):
        low = 0 if allow_empty else 1
        length = int(rng.integers(low, max_len))
        lists.append([f"w{int(rng.integers(0, vocab_words))}" for _ in range(length)])
    return lists


def bucket_contents(buckets):
    """Normalise a bucket list to {row: (band, tokens in axis order, length)}."""
    contents = {}
    for bucket in buckets:
        row_tokens = np.split(bucket.token_indices(), np.cumsum(bucket.lengths)[:-1])
        for row, tokens, length in zip(bucket.rows, row_tokens, bucket.lengths):
            assert int(row) not in contents, "row appears in two buckets"
            contents[int(row)] = (bucket.slab_len, tokens.tolist(), int(length))
    return contents


class TestAppendEquivalence:
    def test_matches_batch_built_corpus(self):
        rng = np.random.default_rng(0)
        token_lists = random_token_lists(rng, 40)
        streaming = StreamingCorpus()
        stream = DocumentStream(streaming.vocabulary, batch_docs=7)
        for batch in stream.batches(token_lists):
            streaming.append(batch.documents)

        reference = Corpus.from_token_lists(token_lists, Vocabulary())
        assert np.array_equal(streaming.token_words, reference.token_words)
        assert np.array_equal(streaming.doc_offsets, reference.doc_offsets)
        assert np.array_equal(streaming.token_documents, reference.token_documents)
        assert np.array_equal(streaming.word_offsets, reference.word_offsets)
        assert np.array_equal(
            streaming.word_frequencies(), reference.word_frequencies()
        )

    def test_word_order_is_stable_sort(self):
        rng = np.random.default_rng(1)
        streaming = StreamingCorpus(Vocabulary(f"w{i}" for i in range(30)))
        for _ in range(6):
            docs = [
                np.asarray(rng.integers(0, 30, size=int(rng.integers(0, 15))))
                for _ in range(5)
            ]
            streaming.append(docs)
        assert np.array_equal(
            streaming.word_order,
            np.argsort(streaming.token_words, kind="stable"),
        )

    def test_append_rejects_out_of_vocabulary_ids(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b"]))
        with pytest.raises(ValueError, match="out of range"):
            streaming.append([np.array([0, 5])])

    def test_empty_append_is_a_noop(self):
        streaming = StreamingCorpus()
        assert streaming.append([]) == 0
        assert streaming.num_documents == 0

    def test_capacity_doubling_preserves_old_views(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b", "c"]))
        streaming.append([np.array([2, 2]), np.array([0, 1, 2])])
        view = streaming.window(1)  # a slice view, not the stream itself
        assert view is not streaming
        before = view.token_words.copy()
        # Grow far past the initial store capacity.
        for _ in range(8):
            streaming.append([np.zeros(300, dtype=np.int64)])
        assert np.array_equal(view.token_words, before)


class TestLazyMaintenance:
    def test_appends_rebuild_csc_lazily_and_correctly(self):
        rng = np.random.default_rng(5)
        streaming = StreamingCorpus()
        stream = DocumentStream(streaming.vocabulary, batch_docs=6)
        batches = list(stream.batches(random_token_lists(rng, 30)))
        for batch in batches[:2]:
            streaming.append(batch.documents)
        corpus_buckets(streaming, "word")
        for batch in batches[2:]:
            streaming.append(batch.documents)
        assert "_slab_bucket_cache" not in streaming.__dict__
        # The word-major view refreshes on demand and is exact.
        assert np.array_equal(
            streaming.word_order,
            np.argsort(streaming.token_words, kind="stable"),
        )
        expected = np.bincount(
            streaming.token_words, minlength=streaming.vocabulary_size
        )
        assert np.array_equal(streaming.word_frequencies(), expected)
        assert np.array_equal(
            streaming.word_offsets,
            np.concatenate([[0], np.cumsum(expected)]),
        )

    def test_buckets_built_on_the_stream_are_invalidated_by_appends(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b"]))
        streaming.append([np.array([0, 1])])
        corpus_buckets(streaming, "word")  # built from the refreshed CSC
        assert "_slab_bucket_cache" in streaming.__dict__
        streaming.append([np.array([1, 1])])  # stale now: must be dropped
        assert "_slab_bucket_cache" not in streaming.__dict__
        for axis, offsets, order in (
            ("doc", streaming.doc_offsets, None),
            ("word", streaming.word_offsets, streaming.word_order),
        ):
            rebuilt = bucket_contents(corpus_buckets(streaming, axis))
            assert rebuilt == bucket_contents(build_buckets(offsets, order)), axis

    def test_unbuilt_caches_are_not_materialised_by_append(self):
        streaming = StreamingCorpus(Vocabulary(["a"]))
        streaming.append([np.array([0, 0])])
        assert "_slab_bucket_cache" not in streaming.__dict__
        streaming.append([np.array([0])])
        assert "_slab_bucket_cache" not in streaming.__dict__

    def test_appends_release_the_superseded_word_order(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b", "c", "d"]))
        streaming.append([np.array([0] * 6 + [1]), np.array([2, 1])])
        corpus_buckets(streaming, "word")
        for batch in ([np.array([3])], [np.array([1, 0])]):
            superseded = weakref.ref(streaming.word_order)
            streaming.append(batch)
            streaming.word_order  # the refresh replaces the permutation
            gc.collect()
            assert superseded() is None, "the old word_order is still alive"

    def test_bucket_counters_stay_zero(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b"]))
        for _ in range(3):
            corpus_buckets(streaming, "doc")
            streaming.append([np.array([0, 1]), np.array([1])])
        assert streaming.bucket_reuses == {"doc": 0, "word": 0}
        assert streaming.bucket_rebuilds == {"doc": 0, "word": 0}


class TestWindow:
    def test_full_window_is_a_snapshot(self):
        streaming = StreamingCorpus(Vocabulary(["a"]))
        streaming.append([np.array([0]), np.array([0, 0])])
        for view in (streaming.window(5), streaming.window()):
            assert type(view) is Corpus
            assert view.num_documents == 2
            assert np.array_equal(view.token_words, [0, 0, 0])
        view = streaming.window()
        streaming.append([np.array([0])])
        assert view.num_documents == 2 and view.num_tokens == 3

    def test_partial_window_is_tail_view(self):
        streaming = StreamingCorpus(Vocabulary(["a", "b"]))
        streaming.append([np.array([0]), np.array([1, 1]), np.array([0, 1])])
        view = streaming.window(2)
        assert view.num_documents == 2
        assert np.array_equal(view.document_words(0), [1, 1])
        assert np.array_equal(view.document_words(1), [0, 1])

    def test_vocabulary_growth_between_appends_pads_word_axis(self):
        """Push-time vocabulary growth must not break word-axis accessors."""
        vocab = Vocabulary(["a", "b"])
        streaming = StreamingCorpus(vocab)
        streaming.append([np.array([0, 1, 0])])
        new_id = vocab.add("c")  # what DocumentStream does before flushing
        assert np.array_equal(streaming.word_token_indices(new_id), [])
        assert streaming.word_frequencies().tolist() == [2, 1, 0]
        assert streaming.word_offsets.size == 4
        # The next append ingests the new word cleanly.
        streaming.append([np.array([new_id])])
        assert streaming.word_frequencies().tolist() == [2, 1, 1]
        assert np.array_equal(streaming.word_token_indices(new_id), [3])

    def test_negative_window_rejected(self):
        streaming = StreamingCorpus()
        with pytest.raises(ValueError, match="non-negative"):
            streaming.window(-1)


class TestCorpusSliceEdgeCases:
    """Edge cases the streaming appender hits (satellite task)."""

    def _corpus(self):
        vocab = Vocabulary(["a", "b"])
        docs = [
            Document(np.array([0, 1, 0])),
            Document(np.array([], dtype=np.int64)),
            Document(np.array([], dtype=np.int64)),
            Document(np.array([1])),
        ]
        return Corpus(docs, vocab)

    def test_zero_length_slice_allowed(self):
        corpus = self._corpus()
        for at in range(corpus.num_documents + 1):
            view = corpus.slice(at, at)
            assert view.num_documents == 0
            assert view.num_tokens == 0
            assert len(view.documents) == 0

    def test_tail_empty_slice(self):
        corpus = self._corpus()
        view = corpus.slice(1, 3)
        assert view.num_documents == 2
        assert view.num_tokens == 0
        assert np.array_equal(view.word_frequencies(), [0, 0])
        assert np.array_equal(view.document_lengths(), [0, 0])

    def test_out_of_range_slices_still_rejected(self):
        corpus = self._corpus()
        for start, stop in [(-1, 3), (5, 2), (0, corpus.num_documents + 1)]:
            with pytest.raises(IndexError):
                corpus.slice(start, stop)
