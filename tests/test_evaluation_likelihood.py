"""Tests for the log joint likelihood."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from repro.evaluation import log_joint_likelihood, log_joint_likelihood_from_assignments


def reference_likelihood(doc_topic, word_topic, alpha, beta):
    """Direct, dense implementation of the Sec. 6.1 formula."""
    doc_topic = np.asarray(doc_topic, dtype=np.float64)
    word_topic = np.asarray(word_topic, dtype=np.float64)
    num_topics = doc_topic.shape[1]
    vocabulary_size = word_topic.shape[0]
    alpha = np.full(num_topics, alpha, dtype=np.float64)
    alpha_sum = alpha.sum()
    beta_sum = beta * vocabulary_size
    value = 0.0
    for row in doc_topic:
        value += gammaln(alpha_sum) - gammaln(alpha_sum + row.sum())
        value += np.sum(gammaln(alpha + row) - gammaln(alpha))
    topic_counts = word_topic.sum(axis=0)
    for k in range(num_topics):
        value += gammaln(beta_sum) - gammaln(beta_sum + topic_counts[k])
        value += np.sum(gammaln(beta + word_topic[:, k]) - gammaln(beta))
    return float(value)


class TestLogJointLikelihood:
    def test_matches_dense_reference(self, rng):
        doc_topic = rng.integers(0, 5, size=(6, 4))
        # Build a word_topic with the same per-topic totals.
        word_topic = np.zeros((10, 4), dtype=np.int64)
        for topic in range(4):
            remaining = int(doc_topic[:, topic].sum())
            while remaining > 0:
                word = int(rng.integers(10))
                word_topic[word, topic] += 1
                remaining -= 1
        expected = reference_likelihood(doc_topic, word_topic, alpha=0.5, beta=0.01)
        actual = log_joint_likelihood(doc_topic, word_topic, alpha=0.5, beta=0.01)
        assert actual == pytest.approx(expected, rel=1e-10)

    def test_vector_alpha_supported(self):
        doc_topic = np.array([[1, 2], [0, 3]])
        word_topic = np.array([[1, 2], [0, 1], [0, 2]])
        scalar = log_joint_likelihood(doc_topic, word_topic, alpha=0.3, beta=0.1)
        vector = log_joint_likelihood(
            doc_topic, word_topic, alpha=np.array([0.3, 0.3]), beta=0.1
        )
        assert scalar == pytest.approx(vector)

    def test_token_total_mismatch_raises(self):
        with pytest.raises(ValueError, match="same total"):
            log_joint_likelihood(np.array([[1]]), np.array([[2]]), 0.1, 0.1)

    def test_topic_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="number of topics"):
            log_joint_likelihood(np.ones((2, 3)), np.ones((2, 2)), 0.1, 0.1)

    def test_invalid_beta_raises(self):
        with pytest.raises(ValueError):
            log_joint_likelihood(np.array([[1]]), np.array([[1]]), 0.1, 0.0)

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            log_joint_likelihood(np.array([[1]]), np.array([[1]]), -0.1, 0.1)


class TestFromAssignments:
    def test_matches_matrix_version(self, small_corpus, rng):
        num_topics = 5
        assignments = rng.integers(num_topics, size=small_corpus.num_tokens)
        doc_topic = np.zeros((small_corpus.num_documents, num_topics), dtype=np.int64)
        word_topic = np.zeros((small_corpus.vocabulary_size, num_topics), dtype=np.int64)
        np.add.at(doc_topic, (small_corpus.token_documents, assignments), 1)
        np.add.at(word_topic, (small_corpus.token_words, assignments), 1)

        from_matrices = log_joint_likelihood(doc_topic, word_topic, 0.5, 0.01)
        from_assignments = log_joint_likelihood_from_assignments(
            small_corpus.token_documents,
            small_corpus.token_words,
            assignments,
            small_corpus.num_documents,
            small_corpus.vocabulary_size,
            num_topics,
            0.5,
            0.01,
        )
        # Same non-zero counts in the same row-major order: equal to the bit.
        assert from_assignments == from_matrices

    @pytest.mark.parametrize("alpha", [None, np.array([0.2, 0.9, 0.4, 1.5, 0.7])])
    @pytest.mark.parametrize(
        "algorithm", ["aliaslda", "cgs", "fpluslda", "lightlda", "sparselda", "warplda"]
    )
    def test_every_sampler_matches_matrix_version(self, small_corpus, algorithm, alpha):
        # Every sampler's log_likelihood() comes from its assignments; it
        # must stay bit-equal to the dense form over its count matrices.
        from repro.samplers.registry import build_sampler

        model = build_sampler(algorithm, small_corpus, num_topics=5, alpha=alpha, seed=4)
        model.fit(2)
        dense = log_joint_likelihood(
            model.doc_topic_counts(), model.word_topic_counts(), model.alpha, model.beta
        )
        assert model.log_likelihood() == dense

    def test_memory_does_not_grow_with_the_number_of_topics(self, small_corpus, rng):
        # Dense D x K and V x K int64 matrices would take ~700 MB at K = 2**20.
        num_topics = 1 << 20
        assignments = rng.integers(num_topics, size=small_corpus.num_tokens)
        tracemalloc.start()
        try:
            value = log_joint_likelihood_from_assignments(
                small_corpus.token_documents,
                small_corpus.token_words,
                assignments,
                small_corpus.num_documents,
                small_corpus.vocabulary_size,
                num_topics,
                np.full(num_topics, 50.0 / num_topics),
                0.01,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        # A handful of K-vectors (alpha, topic counts, their gammaln terms).
        assert peak < 8 * 8 * num_topics

    def test_warplda_log_likelihood_at_large_k_equals_dense(self, small_corpus):
        from repro.core.warplda import WarpLDA

        model = WarpLDA(small_corpus, num_topics=16384, seed=1).fit(2)
        dense = log_joint_likelihood(
            model.doc_topic_counts(), model.word_topic_counts(), model.alpha, model.beta
        )
        assert model.log_likelihood() == dense

    def test_out_of_range_assignment_raises(self, tiny_corpus):
        assignments = np.zeros(tiny_corpus.num_tokens, dtype=np.int64)
        assignments[0] = 9
        with pytest.raises(ValueError):
            log_joint_likelihood_from_assignments(
                tiny_corpus.token_documents,
                tiny_corpus.token_words,
                assignments,
                tiny_corpus.num_documents,
                tiny_corpus.vocabulary_size,
                3,
                0.5,
                0.01,
            )

    def test_misaligned_arrays_raise(self, tiny_corpus):
        with pytest.raises(ValueError):
            log_joint_likelihood_from_assignments(
                tiny_corpus.token_documents,
                tiny_corpus.token_words[:-1],
                np.zeros(tiny_corpus.num_tokens, dtype=np.int64),
                tiny_corpus.num_documents,
                tiny_corpus.vocabulary_size,
                3,
                0.5,
                0.01,
            )


class TestProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), num_topics=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_likelihood_is_finite_and_negative(self, seed, num_topics):
        rng = np.random.default_rng(seed)
        num_docs, vocab = 5, 12
        token_docs = np.repeat(np.arange(num_docs), 8)
        token_words = rng.integers(vocab, size=token_docs.size)
        assignments = rng.integers(num_topics, size=token_docs.size)
        value = log_joint_likelihood_from_assignments(
            token_docs, token_words, assignments, num_docs, vocab, num_topics, 0.5, 0.01
        )
        assert np.isfinite(value)
        assert value < 0
