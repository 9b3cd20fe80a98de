"""Tests for the WarpLDA sampler."""

import numpy as np
import pytest

from repro.core import WarpLDA, doc_proposal_acceptance, word_proposal_acceptance
from repro.evaluation import ConvergenceTracker
from repro.samplers import CollapsedGibbsSampler


class TestConfig:
    def test_defaults(self, tiny_corpus):
        model = WarpLDA(tiny_corpus, num_topics=10)
        assert model.num_mh_steps == 2
        assert model.beta == pytest.approx(0.01)
        assert model.kernel == "slab"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_topics": 0},
            {"num_topics": 5, "num_mh_steps": 0},
            {"num_topics": 5, "kernel": "fast"},
        ],
    )
    def test_invalid_config_raises(self, tiny_corpus, kwargs):
        with pytest.raises(ValueError):
            WarpLDA(tiny_corpus, **kwargs)


class TestAcceptanceRates:
    def test_doc_proposal_acceptance_formula(self):
        # π = min{1, (Cwk'+β)/(Cwk+β) * (Ck+β̄)/(Ck'+β̄)}
        value = doc_proposal_acceptance(
            word_count_current=np.array([2.0]),
            word_count_proposed=np.array([5.0]),
            topic_count_current=np.array([10.0]),
            topic_count_proposed=np.array([20.0]),
            beta=0.1,
            beta_sum=1.0,
        )
        expected = min(1.0, (5.1 / 2.1) * (11.0 / 21.0))
        assert value[0] == pytest.approx(expected)

    def test_word_proposal_acceptance_formula(self):
        value = word_proposal_acceptance(
            doc_count_current=np.array([1.0]),
            doc_count_proposed=np.array([4.0]),
            alpha_current=np.array([0.5]),
            alpha_proposed=np.array([0.5]),
            topic_count_current=np.array([10.0]),
            topic_count_proposed=np.array([5.0]),
            beta_sum=1.0,
        )
        expected = min(1.0, (4.5 / 1.5) * (11.0 / 6.0))
        assert value[0] == pytest.approx(expected, rel=1e-12)

    def test_acceptance_clipped_to_one(self):
        value = doc_proposal_acceptance(
            np.array([0.0]), np.array([100.0]), np.array([1.0]), np.array([1.0]), 0.1, 1.0
        )
        assert value[0] == 1.0


class TestSampling:
    def test_topic_counts_track_assignments(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=0).fit(3)
        np.testing.assert_array_equal(
            model.topic_counts, np.bincount(model.assignments, minlength=5)
        )
        assert model.topic_counts.sum() == small_corpus.num_tokens

    def test_log_likelihood_improves(self, medium_corpus):
        model = WarpLDA(medium_corpus, num_topics=8, seed=0)
        initial = model.log_likelihood()
        model.fit(10)
        assert model.log_likelihood() > initial

    def test_reproducible_from_seed(self, small_corpus):
        first = WarpLDA(small_corpus, num_topics=5, seed=42).fit(5)
        second = WarpLDA(small_corpus, num_topics=5, seed=42).fit(5)
        np.testing.assert_array_equal(first.assignments, second.assignments)

    def test_more_mh_steps_do_not_hurt(self, small_corpus):
        few = WarpLDA(small_corpus, num_topics=5, seed=0, num_mh_steps=1).fit(8)
        many = WarpLDA(small_corpus, num_topics=5, seed=0, num_mh_steps=4).fit(8)
        # With more proposals per token the chain mixes at least as well
        # (allowing a small tolerance for Monte-Carlo noise).
        assert many.log_likelihood() >= few.log_likelihood() - abs(few.log_likelihood()) * 0.02

    def test_asymmetric_alpha_supported(self, small_corpus):
        alpha = np.linspace(0.1, 1.0, 5)
        model = WarpLDA(small_corpus, num_topics=5, alpha=alpha, seed=0).fit(3)
        assert model.log_likelihood() < 0

    def test_fit_argument_validation(self, tiny_corpus):
        model = WarpLDA(tiny_corpus, num_topics=3, seed=0)
        with pytest.raises(ValueError):
            model.fit(-1)
        with pytest.raises(ValueError):
            model.fit(1, evaluate_every=0)

    def test_tracker_integration(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=0)
        tracker = ConvergenceTracker("warplda")
        model.fit(4, tracker=tracker, evaluate_every=2)
        assert tracker.iterations == [2, 4]
        assert tracker.records[-1].tokens_processed == 4 * small_corpus.num_tokens


class TestModelOutputs:
    def test_count_matrices_match_assignments(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=1).fit(2)
        doc_topic = model.doc_topic_counts()
        word_topic = model.word_topic_counts()
        assert doc_topic.sum() == small_corpus.num_tokens
        assert word_topic.sum() == small_corpus.num_tokens
        np.testing.assert_array_equal(doc_topic.sum(axis=0), word_topic.sum(axis=0))

    def test_theta_phi_are_distributions(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=1).fit(2)
        np.testing.assert_allclose(model.theta().sum(axis=1), 1.0)
        np.testing.assert_allclose(model.phi().sum(axis=1), 1.0)

    def test_converges_to_cgs_quality(self, medium_corpus):
        """The MCEM solution should be close to the CGS solution (Sec. 6.3)."""
        cgs = CollapsedGibbsSampler(medium_corpus, num_topics=8, seed=0).fit(15)
        warp = WarpLDA(medium_corpus, num_topics=8, seed=0, num_mh_steps=2).fit(60)
        gap = abs(warp.log_likelihood() - cgs.log_likelihood())
        assert gap / abs(cgs.log_likelihood()) < 0.05
