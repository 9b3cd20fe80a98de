"""Tests for document-range corpus views and contiguous shard partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.corpus.corpus import Corpus, Document
from repro.corpus.vocabulary import Vocabulary
from repro.distributed.partition import imbalance_index
from repro.training import contiguous_shards


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_documents=25, vocabulary_size=40, mean_document_length=12
    )
    return generate_lda_corpus(spec, seed=0)


class TestCorpusSlice:
    def test_slice_matches_subset(self, corpus):
        view = corpus.slice(5, 12)
        rebuilt = corpus.subset(range(5, 12))
        assert view.num_documents == 7
        assert np.array_equal(view.token_words, rebuilt.token_words)
        assert np.array_equal(view.doc_offsets, rebuilt.doc_offsets)
        assert np.array_equal(view.token_documents, rebuilt.token_documents)
        assert np.array_equal(view.word_offsets, rebuilt.word_offsets)
        assert np.array_equal(
            view.token_words[view.word_order],
            rebuilt.token_words[rebuilt.word_order],
        )

    def test_slice_shares_token_storage(self, corpus):
        view = corpus.slice(3, 9)
        assert view.token_words.base is not None
        assert np.shares_memory(view.token_words, corpus.token_words)

    def test_slices_cover_corpus(self, corpus):
        boundaries = contiguous_shards(corpus.document_lengths(), 4)
        shards = [
            corpus.slice(int(boundaries[i]), int(boundaries[i + 1]))
            for i in range(4)
        ]
        assert sum(shard.num_documents for shard in shards) == corpus.num_documents
        assert sum(shard.num_tokens for shard in shards) == corpus.num_tokens
        stitched = np.concatenate([shard.token_words for shard in shards])
        assert np.array_equal(stitched, corpus.token_words)

    def test_document_access_in_slice(self, corpus):
        view = corpus.slice(10, 15)
        for local in range(view.num_documents):
            assert np.array_equal(
                view.document_words(local), corpus.document_words(10 + local)
            )

    def test_invalid_ranges_rejected(self, corpus):
        for start, stop in [(-1, 3), (5, 2), (0, corpus.num_documents + 1)]:
            with pytest.raises(IndexError):
                corpus.slice(start, stop)

    def test_zero_length_slice_is_an_empty_view(self, corpus):
        view = corpus.slice(3, 3)
        assert view.num_documents == 0
        assert view.num_tokens == 0

    def test_all_empty_slice_allowed(self):
        vocab = Vocabulary(["a", "b"])
        docs = [
            Document(np.array([0, 1])),
            Document(np.array([], dtype=np.int64)),
            Document(np.array([], dtype=np.int64)),
        ]
        view = Corpus(docs, vocab).slice(1, 3)
        assert view.num_documents == 2
        assert view.num_tokens == 0
        assert np.array_equal(view.word_frequencies(), [0, 0])


class TestContiguousShards:
    def test_uniform_sizes_split_evenly(self):
        boundaries = contiguous_shards(np.ones(12, dtype=np.int64), 4)
        assert np.array_equal(boundaries, [0, 3, 6, 9, 12])

    def test_loads_are_balanced(self, corpus):
        lengths = corpus.document_lengths()
        boundaries = contiguous_shards(lengths, 5)
        loads = [
            int(lengths[boundaries[i] : boundaries[i + 1]].sum()) for i in range(5)
        ]
        assert imbalance_index(np.array(loads)) < 0.5

    def test_every_shard_nonempty_even_with_skew(self):
        # One huge document dwarfing the fair share must not starve shards.
        sizes = np.array([1000, 1, 1, 1], dtype=np.int64)
        boundaries = contiguous_shards(sizes, 4)
        assert np.array_equal(boundaries, [0, 1, 2, 3, 4])

    def test_boundaries_monotone(self, corpus):
        boundaries = contiguous_shards(corpus.document_lengths(), 7)
        assert (np.diff(boundaries) >= 1).all()
        assert boundaries[0] == 0
        assert boundaries[-1] == corpus.num_documents

    def test_too_many_partitions_rejected(self):
        with pytest.raises(ValueError, match="contiguous shards"):
            contiguous_shards(np.ones(3, dtype=np.int64), 4)

    def test_single_partition(self):
        assert np.array_equal(
            contiguous_shards(np.array([3, 1, 2], dtype=np.int64), 1), [0, 3]
        )

    @pytest.mark.parametrize(
        "sizes",
        [np.array([], dtype=np.int64), np.ones((2, 2), dtype=np.int64), np.array([1, -1, 2])],
        ids=["empty", "2-d", "negative"],
    )
    def test_invalid_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="sizes must be"):
            contiguous_shards(sizes, 1)

    @pytest.mark.parametrize("num_partitions", [0, -1])
    def test_non_positive_partition_count_rejected(self, num_partitions):
        with pytest.raises(ValueError, match="contiguous shards"):
            contiguous_shards(np.ones(3, dtype=np.int64), num_partitions)

    def test_all_zero_sizes_still_give_nonempty_shards(self):
        boundaries = contiguous_shards(np.zeros(5, dtype=np.int64), 3)
        assert boundaries[0] == 0
        assert boundaries[-1] == 5
        assert (np.diff(boundaries) >= 1).all()

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=80),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_shard_is_within_one_item_of_its_fair_share(self, sizes, data):
        sizes = np.array(sizes, dtype=np.int64)
        num_partitions = data.draw(st.integers(min_value=1, max_value=sizes.size))
        boundaries = contiguous_shards(sizes, num_partitions)
        assert boundaries.shape == (num_partitions + 1,)
        assert boundaries[0] == 0
        assert boundaries[-1] == sizes.size
        assert (np.diff(boundaries) >= 1).all()
        loads = np.add.reduceat(sizes, boundaries[:-1])
        assert loads.sum() == sizes.sum()
        assert loads.max() <= sizes.sum() / num_partitions + sizes.max()
