"""Tests for TopicState and the LDASampler base class."""

import numpy as np
import pytest

from repro.evaluation import ConvergenceTracker
from repro.samplers import CollapsedGibbsSampler, TopicState
from repro.samplers.base import resolve_hyperparameters
from repro.samplers.registry import SAMPLER_REGISTRY, build_sampler


class TestResolveHyperparameters:
    def test_default_alpha_is_50_over_k(self):
        alpha, alpha_sum, beta, beta_sum = resolve_hyperparameters(100, None, 0.01, 500)
        np.testing.assert_allclose(alpha, 0.5)
        assert alpha_sum == pytest.approx(50.0)
        assert beta_sum == pytest.approx(5.0)

    def test_vector_alpha(self):
        alpha, alpha_sum, _, _ = resolve_hyperparameters(3, np.array([0.1, 0.2, 0.3]), 0.01, 10)
        assert alpha_sum == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_topics": 0, "alpha": None, "beta": 0.01, "vocabulary_size": 5},
            {"num_topics": 2, "alpha": 0.0, "beta": 0.01, "vocabulary_size": 5},
            {"num_topics": 2, "alpha": None, "beta": 0.0, "vocabulary_size": 5},
            {"num_topics": 2, "alpha": np.array([0.1]), "beta": 0.01, "vocabulary_size": 5},
        ],
    )
    def test_invalid_inputs_raise(self, kwargs):
        with pytest.raises(ValueError):
            resolve_hyperparameters(**kwargs)


class TestTopicState:
    def test_random_initialisation_is_consistent(self, tiny_corpus):
        state = TopicState(tiny_corpus, num_topics=3, rng=0)
        assert state.assignments.shape == (tiny_corpus.num_tokens,)
        assert state.check_consistency()
        assert state.doc_topic.sum() == tiny_corpus.num_tokens
        assert state.word_topic.sum() == tiny_corpus.num_tokens
        np.testing.assert_array_equal(
            state.topic_counts, state.word_topic.sum(axis=0)
        )

    def test_explicit_assignments(self, tiny_corpus):
        assignments = np.zeros(tiny_corpus.num_tokens, dtype=np.int64)
        state = TopicState(tiny_corpus, num_topics=2, assignments=assignments)
        assert state.doc_topic[:, 0].sum() == tiny_corpus.num_tokens
        assert state.doc_topic[:, 1].sum() == 0

    def test_out_of_range_assignments_raise(self, tiny_corpus):
        assignments = np.full(tiny_corpus.num_tokens, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            TopicState(tiny_corpus, num_topics=3, assignments=assignments)

    def test_remove_and_assign_token_roundtrip(self, tiny_corpus):
        state = TopicState(tiny_corpus, num_topics=3, rng=1)
        token = 5
        old_topic = state.remove_token(token)
        assert not state.check_consistency()  # token is in limbo
        state.assign_token(token, old_topic)
        assert state.check_consistency()

    def test_assign_different_topic_updates_counts(self, tiny_corpus):
        state = TopicState(tiny_corpus, num_topics=3, rng=1)
        token = 0
        doc = int(tiny_corpus.token_documents[token])
        old_topic = state.remove_token(token)
        new_topic = (old_topic + 1) % 3
        before = state.doc_topic[doc, new_topic]
        state.assign_token(token, new_topic)
        assert state.doc_topic[doc, new_topic] == before + 1
        assert state.check_consistency()


class TestFitLoop:
    def test_fit_records_convergence(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=0)
        tracker = ConvergenceTracker("cgs")
        sampler.fit(4, tracker=tracker, evaluate_every=2)
        assert sampler.iterations_completed == 4
        assert len(tracker) == 2
        assert tracker.iterations == [2, 4]

    def test_fit_validates_arguments(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=0)
        with pytest.raises(ValueError):
            sampler.fit(-1)
        with pytest.raises(ValueError):
            sampler.fit(1, evaluate_every=0)

    def test_theta_phi_are_distributions(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=0).fit(2)
        theta = sampler.theta()
        phi = sampler.phi()
        assert theta.shape == (tiny_corpus.num_documents, 3)
        assert phi.shape == (3, tiny_corpus.vocabulary_size)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0)

    def test_default_hyperparameters_match_paper(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=10, seed=0)
        np.testing.assert_allclose(sampler.alpha, 5.0)  # 50 / K
        assert sampler.beta == pytest.approx(0.01)


class TestBuildSampler:
    """The one factory: kernel degradation and per-algorithm knobs."""

    @pytest.mark.parametrize(
        "algorithm, kernel, ran",
        [
            ("warplda", "slab", "slab"),
            ("cgs", "slab", "slab"),
            ("sparselda", "slab", "scalar"),
            ("lightlda", "scalar", "scalar"),
        ],
    )
    def test_requested_kernel_degrades_to_what_the_sampler_has(
        self, tiny_corpus, algorithm, kernel, ran
    ):
        sampler = build_sampler(algorithm, tiny_corpus, num_topics=3, kernel=kernel)
        assert type(sampler) is SAMPLER_REGISTRY[algorithm]
        assert sampler.kernel == ran

    def test_mh_steps_reach_warplda_and_lightlda_only(self, tiny_corpus):
        for algorithm in SAMPLER_REGISTRY:
            sampler = build_sampler(algorithm, tiny_corpus, num_topics=3, num_mh_steps=4)
            reached = algorithm in ("warplda", "lightlda")
            # AliasLDA's inner MH count has never been plumbed from a run
            # description; it keeps its default (trajectories depend on it).
            assert getattr(sampler, "num_mh_steps", None) == (
                4 if reached else 2 if algorithm == "aliaslda" else None
            )

    def test_matches_direct_construction_seed_for_seed(self, tiny_corpus):
        built = build_sampler("cgs", tiny_corpus, num_topics=3, seed=5).fit(2)
        direct = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=5).fit(2)
        np.testing.assert_array_equal(built.state.assignments, direct.state.assignments)

    def test_unknown_algorithm_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="unknown sampler 'plsa'"):
            build_sampler("plsa", tiny_corpus, num_topics=3)
