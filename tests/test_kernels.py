"""Unit tests for the bucketed slab kernel layer (repro.kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, SyntheticCorpusSpec, generate_lda_corpus
from repro.kernels import (
    build_buckets,
    corpus_buckets,
    positioning_mixture_proposal,
    token_layout,
)
from repro.kernels.warp import external_proposal_table


@pytest.fixture
def corpus():
    spec = SyntheticCorpusSpec(
        num_documents=40, vocabulary_size=80, mean_document_length=30, num_topics=4
    )
    return generate_lda_corpus(spec, seed=3)


class TestBuckets:
    @pytest.mark.parametrize("axis", ["word", "doc"])
    def test_every_token_covered_exactly_once(self, corpus, axis):
        buckets = corpus_buckets(corpus, axis)
        covered = np.concatenate([b.token_indices() for b in buckets])
        assert covered.size == corpus.num_tokens
        np.testing.assert_array_equal(np.sort(covered), np.arange(corpus.num_tokens))

    def test_rows_match_axis_ids(self, corpus):
        word_buckets = corpus_buckets(corpus, "word")
        frequencies = corpus.word_frequencies()
        seen_rows = np.concatenate([b.rows for b in word_buckets])
        np.testing.assert_array_equal(np.sort(seen_rows), np.flatnonzero(frequencies))
        for bucket in word_buckets:
            np.testing.assert_array_equal(bucket.lengths, frequencies[bucket.rows])

    def test_rows_group_their_own_tokens(self, corpus):
        for bucket in corpus_buckets(corpus, "word"):
            np.testing.assert_array_equal(
                corpus.token_words[bucket.token_indices()],
                np.repeat(bucket.rows, bucket.lengths),
            )

    def test_padding_is_power_of_two_and_masked(self, corpus):
        for bucket in corpus_buckets(corpus, "doc"):
            slab_len = bucket.slab_len
            assert slab_len & (slab_len - 1) == 0
            assert bucket.lengths.max() <= slab_len
            assert bucket.lengths.min() >= 1
            np.testing.assert_array_equal(bucket.mask.sum(axis=1), bucket.lengths)

    def test_cached_on_corpus_instance(self, corpus):
        assert corpus_buckets(corpus, "word") is corpus_buckets(corpus, "word")
        view = corpus.slice(0, 10)
        assert corpus_buckets(view, "word") is not corpus_buckets(corpus, "word")

    def test_chunks_partition_rows(self, corpus):
        for bucket in corpus_buckets(corpus, "doc"):
            chunks = list(bucket.chunks(max_cells=64))
            assert sum(c.num_rows for c in chunks) == bucket.num_rows
            rejoined = np.concatenate([c.rows for c in chunks])
            np.testing.assert_array_equal(rejoined, bucket.rows)

    def test_empty_rows_dropped(self):
        # Document 1 is empty; its row must not appear in any bucket.
        corpus = Corpus.from_token_lists([[0, 1, 2], [], [1, 1]])
        buckets = build_buckets(corpus.doc_offsets)
        rows = np.concatenate([b.rows for b in buckets])
        assert 1 not in rows
        covered = np.concatenate([b.token_indices() for b in buckets])
        np.testing.assert_array_equal(np.sort(covered), np.arange(corpus.num_tokens))


@st.composite
def axis_layouts(draw):
    """CSR offsets, an axis order (``None`` or a permutation) and a row subset.

    Row lengths mix empty rows, length-1 rows and exact powers of two with
    arbitrary lengths, so every band edge is exercised.
    """
    lengths = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, 2, 4, 8, 16, 32, 64]),
                st.integers(0, 70),
            ),
            min_size=1,
            max_size=40,
        )
    )
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    order = None
    if draw(st.booleans()):  # word axis: positions go through a permutation
        order = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(
            int(offsets[-1])
        )
    rows = None
    if draw(st.booleans()):
        rows = np.array(
            sorted(draw(st.sets(st.integers(0, len(lengths) - 1)))), dtype=np.int64
        )
    return offsets, order, rows


def reference_chunk_rows(rows, slab_len, max_cells, max_rows):
    """The chunk cut: ``R * L <= max_cells`` capped at ``max_rows`` rows."""
    per_chunk = max(1, max_cells // slab_len)
    if max_rows is not None:
        per_chunk = max(1, min(per_chunk, max_rows))
    return [rows[start : start + per_chunk] for start in range(0, rows.size, per_chunk)]


class TestBucketLayoutProperties:
    @given(
        layout=axis_layouts(),
        max_cells=st.integers(1, 300),
        max_rows=st.one_of(st.none(), st.integers(1, 12)),
    )
    @settings(max_examples=150, deadline=None)
    def test_bands_are_views_of_the_axis_order(self, layout, max_cells, max_rows):
        offsets, order, rows = layout
        lengths = np.diff(offsets)
        wanted = np.arange(lengths.size) if rows is None else rows
        positions = np.arange(offsets[-1]) if order is None else order
        buckets = build_buckets(offsets, order, rows=rows)

        banded = np.concatenate([b.rows for b in buckets] or [np.empty(0, int)])
        # Every non-empty row lands in exactly one band, no empty row does.
        np.testing.assert_array_equal(
            np.sort(banded), np.sort(wanted[lengths[wanted] > 0])
        )
        for bucket in buckets:
            slab_len = bucket.slab_len
            assert slab_len & (slab_len - 1) == 0
            # The smallest power of two holding the row: L/2 < length <= L.
            assert (bucket.lengths <= slab_len).all()
            assert (2 * bucket.lengths > slab_len).all()
            np.testing.assert_array_equal(bucket.lengths, lengths[bucket.rows])
            # token_indices() is each row's tokens in axis order, row after row.
            expected = [positions[offsets[r] : offsets[r + 1]] for r in bucket.rows]
            np.testing.assert_array_equal(bucket.token_indices(), np.concatenate(expected))
            # The chunk list is the cut rule, and chunks read their own tokens.
            chunks = list(bucket.chunks(max_cells=max_cells, max_rows=max_rows))
            cut = reference_chunk_rows(bucket.rows, slab_len, max_cells, max_rows)
            assert len(chunks) == len(cut)
            for chunk, chunk_rows in zip(chunks, cut):
                np.testing.assert_array_equal(chunk.rows, chunk_rows)
                assert chunk.slab_len == slab_len
                np.testing.assert_array_equal(
                    chunk.token_indices(),
                    np.concatenate([positions[offsets[r] : offsets[r + 1]] for r in chunk_rows]),
                )


class TestProposals:
    def test_token_layout(self):
        offsets, token_row, token_offset, token_length = token_layout([2, 0, 3])
        np.testing.assert_array_equal(offsets, [0, 2, 2, 5])
        np.testing.assert_array_equal(token_row, [0, 0, 2, 2, 2])
        np.testing.assert_array_equal(token_offset, [0, 0, 2, 2, 2])
        np.testing.assert_array_equal(token_length, [2, 2, 3, 3, 3])

    def test_pure_positioning_stays_in_row(self):
        rng = np.random.default_rng(4)
        _, _, token_offset, token_length = token_layout([3, 2])
        source = np.array([7, 7, 7, 9, 9])
        proposed = positioning_mixture_proposal(
            source, token_offset, token_length, 0.0, 10, rng
        )
        np.testing.assert_array_equal(proposed, source)

    def test_pure_prior_is_uniform(self):
        rng = np.random.default_rng(5)
        _, _, token_offset, token_length = token_layout([20000])
        source = np.zeros(20000, dtype=np.int64)
        proposed = positioning_mixture_proposal(
            source, token_offset, token_length, 1e12, 4, rng
        )
        frequencies = np.bincount(proposed, minlength=4) / 20000
        np.testing.assert_allclose(frequencies, 0.25, atol=0.02)


class ScriptedRng:
    """Stands in for a Generator: the given uniforms, then ``K - 1`` for the prior."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()

    def integers(self, high, size):
        return np.full(size, high - 1, dtype=np.int64)


class TestExternalProposalTable:
    @given(
        num_words=st.integers(1, 12),
        num_topics=st.sampled_from([1, 3, 8, 300]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_pseudo_tokens_are_the_table(self, num_words, num_topics, seed):
        rng = np.random.default_rng(seed)
        external = rng.integers(0, 4, size=(num_words, num_topics))
        external[rng.random(num_words) < 0.3] = 0  # zero-mass words
        topics, offsets = external_proposal_table(external)
        mass = external.sum(axis=1)
        np.testing.assert_array_equal(offsets, np.concatenate([[0], np.cumsum(mass)]))
        assert topics.size == mass.sum()
        for word in range(num_words):
            segment = topics[offsets[word] : offsets[word + 1]]
            np.testing.assert_array_equal(
                np.bincount(segment, minlength=num_topics), external[word]
            )
            if mass[word] == 0:
                assert segment.size == 0

    def test_boundaries_pick_the_right_component(self):
        # Word 1's segment holds pseudo-tokens [1, 3] at offsets 1..2; word 2
        # has no mass.  With L = 2 tokens (topics 5, 6) and prior mass 4, the
        # uniform scales to x in [0, 8) for word 1: [0, 2) positions in the
        # row, [2, 4) in the segment, [4, 8) is the prior (sentinel K - 1).
        external = np.zeros((3, 8), dtype=np.int64)
        external[0, 2] = 1
        external[1, [1, 3]] = 1
        topics, offsets = external_proposal_table(external)
        np.testing.assert_array_equal(topics, [2, 1, 3])
        uniforms = np.array([0.0, 0.25, 0.25, 0.375, 0.5, 0.5, 1 / 3, 1 / 3])
        uniforms[[1, 4, 7]] = np.nextafter(uniforms[[1, 4, 7]], 0.0)  # just below
        expected = [5, 6, 1, 3, 3, 7, 7, 6]
        words = np.array([1, 1, 1, 1, 1, 1, 2, 2])  # word 2: x = L is the prior
        source = np.array([5, 6])
        proposed = positioning_mixture_proposal(
            source,
            np.zeros(words.size, dtype=np.int64),
            np.full(words.size, 2),
            4.0,
            8,
            ScriptedRng(uniforms),
            table=(topics, offsets[words], offsets[words + 1] - offsets[words]),
        )
        np.testing.assert_array_equal(proposed, expected)
