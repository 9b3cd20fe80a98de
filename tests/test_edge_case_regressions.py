"""Regression tests for the edge-case sweep: empty/OOV documents in serving
perplexity, bag-of-words cache-key canonicalisation, WarpLDA on degenerate
documents, and snapshot provenance."""

import numpy as np
import pytest

from repro.core.warplda import WarpLDA
from repro.corpus.corpus import Corpus, Document
from repro.corpus.vocabulary import Vocabulary
from repro.evaluation.perplexity import held_out_perplexity
from repro.serving import InferenceEngine, ModelSnapshot, TopicServer
from repro.serving.infer import em_fold_in, mh_fold_in
from repro.serving.server import bow_key


@pytest.fixture(scope="module")
def snapshot():
    vocab = Vocabulary(["alpha", "beta", "gamma", "delta"])
    corpus = Corpus.from_token_lists(
        [["alpha", "beta", "alpha"], ["gamma", "delta"], ["beta", "gamma"]],
        vocabulary=vocab,
    )
    return WarpLDA(corpus, num_topics=3, seed=0).fit(10).export_snapshot()


# --------------------------------------------------------------------- #
# Empty / all-OOV documents in inference and perplexity
# --------------------------------------------------------------------- #
class TestEmptyDocumentInference:
    def test_empty_bag_gets_prior_proportional_theta(self, snapshot):
        alpha = np.array([1.0, 2.0, 5.0])
        skewed = ModelSnapshot(
            snapshot.phi, alpha, snapshot.beta, snapshot.vocabulary
        )
        for strategy in ("em", "mh"):
            engine = InferenceEngine(skewed, strategy=strategy, seed=0)
            theta = engine.infer_ids([np.array([], dtype=np.int64)])
            assert np.allclose(theta, alpha / alpha.sum())
            assert not np.isnan(theta).any()

    def test_all_oov_document_gets_prior_theta(self, snapshot):
        engine = InferenceEngine(snapshot)
        theta = engine.infer_tokens([["unknown", "words", "only"]])
        assert np.allclose(theta[0], snapshot.alpha / snapshot.alpha_sum)
        assert not np.isnan(theta).any()

    def test_fold_in_kernels_never_nan_on_zero_token_bags(self, snapshot):
        empty = [np.array([], dtype=np.int64)] * 3
        assert not np.isnan(em_fold_in(empty, snapshot.phi, snapshot.alpha)).any()
        assert not np.isnan(
            mh_fold_in(empty, snapshot.phi, snapshot.alpha, rng=0)
        ).any()


class TestServingPerplexity:
    def test_empty_docs_excluded_from_denominator(self, snapshot):
        engine = InferenceEngine(snapshot, seed=0)
        with_empty = engine.held_out_perplexity(
            [["alpha", "beta"], [], ["totally", "oov"]]
        )
        without_empty = engine.held_out_perplexity([["alpha", "beta"]])
        assert with_empty == pytest.approx(without_empty)
        assert np.isfinite(with_empty)

    def test_id_and_token_documents_mix(self, snapshot):
        engine = InferenceEngine(snapshot, seed=0)
        by_tokens = engine.held_out_perplexity([["alpha", "beta", "gamma"]])
        by_ids = engine.held_out_perplexity([np.array([0, 1, 2])])
        assert by_tokens == pytest.approx(by_ids)

    def test_all_empty_batch_raises_cleanly(self, snapshot):
        engine = InferenceEngine(snapshot)
        with pytest.raises(ValueError, match="no tokens to score"):
            engine.held_out_perplexity([[], ["oov", "tokens"]])

    def test_corpus_perplexity_skips_interior_empty_docs(self, snapshot):
        vocab = snapshot.vocabulary
        corpus = Corpus(
            [
                Document(np.array([0, 1])),
                Document(np.array([], dtype=np.int64)),
                Document(np.array([2])),
            ],
            Vocabulary(vocab.words()),
        )
        value = held_out_perplexity(corpus, snapshot.phi, snapshot.alpha)
        assert np.isfinite(value)


# --------------------------------------------------------------------- #
# Bag-of-words cache-key canonicalisation
# --------------------------------------------------------------------- #
class TestBowKeyCanonicalisation:
    def test_permutations_share_a_key(self):
        assert bow_key(np.array([3, 1, 2, 1])) == bow_key(np.array([1, 2, 1, 3]))

    def test_equal_multiplicity_patterns_share_a_key(self):
        assert bow_key(np.array([5, 5, 9])) == bow_key(np.array([9, 5, 5]))

    def test_different_multiplicities_never_alias(self):
        # Same token set, swapped counts: the classic aliasing hazard.
        assert bow_key(np.array([1, 1, 2])) != bow_key(np.array([1, 2, 2]))
        # Same total count, different split.
        assert bow_key(np.array([1, 1, 1, 2])) != bow_key(np.array([1, 1, 2, 2]))
        # Concatenated-digit style collisions cannot happen with exact pairs.
        assert bow_key(np.array([11, 2])) != bow_key(np.array([1, 12]))

    def test_dtype_does_not_change_the_key(self):
        assert bow_key(np.array([2, 1, 1], dtype=np.int32)) == bow_key(
            np.array([1, 2, 1], dtype=np.int64)
        )
        # The key is the exact int64 ids, then their counts, whatever the
        # input dtype.
        assert bow_key(np.array([2, 1], dtype=np.int32)) == np.array(
            [1, 2, 1, 1], dtype=np.int64
        ).tobytes()

    def test_empty_document_key_is_distinct(self):
        assert bow_key(np.array([], dtype=np.int64)) == b""
        assert bow_key(np.array([0])) != bow_key(np.array([], dtype=np.int64))

    def test_server_cache_hits_across_permutations(self, snapshot):
        server = TopicServer(InferenceEngine(snapshot), cache_capacity=16)
        first = server.infer_batch([np.array([0, 1, 1])])
        second = server.infer_batch([np.array([1, 0, 1])])
        assert np.array_equal(first, second)
        assert server.stats().cache_hits == 1
        # Different multiplicities must re-infer, not alias.
        server.infer_batch([np.array([0, 0, 1])])
        assert server.stats().cache_hits == 1


# --------------------------------------------------------------------- #
# WarpLDA degenerate documents
# --------------------------------------------------------------------- #
class TestWarpLDADegenerateDocuments:
    def test_single_token_and_empty_documents(self):
        vocab = Vocabulary(["a", "b", "c"])
        corpus = Corpus(
            [
                Document(np.array([2])),
                Document(np.array([], dtype=np.int64)),
                Document(np.array([0, 1, 0])),
                Document(np.array([1])),
            ],
            vocab,
        )
        model = WarpLDA(corpus, num_topics=4, seed=0).fit(5)
        assert model.assignments.shape == (5,)
        assert np.allclose(model.theta().sum(axis=1), 1.0)
        # Empty document keeps the prior-proportional theta row.
        assert np.allclose(model.theta()[1], 1.0 / 4)

    def test_single_token_corpus(self):
        corpus = Corpus([Document(np.array([0]))], Vocabulary(["only"]))
        model = WarpLDA(corpus, num_topics=3, seed=1).fit(5)
        assert model.topic_counts.sum() == 1

    def test_zero_token_corpus_slice(self):
        vocab = Vocabulary(["a", "b"])
        corpus = Corpus(
            [
                Document(np.array([0, 1])),
                Document(np.array([], dtype=np.int64)),
            ],
            vocab,
        )
        empty = corpus.slice(1, 2)
        model = WarpLDA(empty, num_topics=2, seed=0).fit(3)
        assert model.assignments.size == 0
        assert np.allclose(model.phi().sum(axis=1), 1.0)

    def test_mixture_proposal_with_degenerate_documents(self):
        vocab = Vocabulary(["a", "b", "c"])
        corpus = Corpus(
            [Document(np.array([0])), Document(np.array([1, 2]))], vocab
        )
        model = WarpLDA(corpus, num_topics=3, seed=0).fit(3)
        assert model.topic_counts.sum() == 3


# --------------------------------------------------------------------- #
# Snapshot provenance and simulator validation hooks
# --------------------------------------------------------------------- #
class TestProvenanceAndValidation:
    def test_with_metadata_merges_without_mutating(self, snapshot):
        stamped = snapshot.with_metadata(deployment="canary", epoch=7)
        assert stamped.metadata["deployment"] == "canary"
        assert stamped.metadata["sampler"] == snapshot.metadata["sampler"]
        assert "deployment" not in snapshot.metadata
        assert stamped == snapshot  # identity ignores metadata

    def test_with_metadata_shares_what_is_immutable(self, snapshot):
        stamped = snapshot.with_metadata(epoch=7)
        assert np.shares_memory(stamped.phi, snapshot.phi)
        assert np.shares_memory(stamped.alpha, snapshot.alpha)
        assert stamped.vocabulary is snapshot.vocabulary
