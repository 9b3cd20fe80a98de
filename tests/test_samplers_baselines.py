"""Behavioural tests shared by all baseline samplers.

Every baseline must (a) keep its count matrices consistent with the token
assignments, (b) improve the log joint likelihood on a structured corpus, and
(c) be reproducible from a seed.  The CGS conditional distribution is the
reference the fast samplers are validated against.
"""

import numpy as np
import pytest

from repro.samplers import (
    AliasLDASampler,
    CollapsedGibbsSampler,
    FPlusLDASampler,
    LightLDASampler,
    SparseLDASampler,
)

ALL_SAMPLERS = [
    CollapsedGibbsSampler,
    SparseLDASampler,
    AliasLDASampler,
    FPlusLDASampler,
    LightLDASampler,
]


@pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
class TestCommonBehaviour:
    def test_counts_stay_consistent(self, small_corpus, sampler_class):
        sampler = sampler_class(small_corpus, num_topics=5, seed=0).fit(2)
        assert sampler.state.check_consistency()

    def test_log_likelihood_improves(self, small_corpus, sampler_class):
        sampler = sampler_class(small_corpus, num_topics=5, seed=0)
        initial = sampler.log_likelihood()
        sampler.fit(4)
        assert sampler.log_likelihood() > initial

    def test_reproducible_from_seed(self, tiny_corpus, sampler_class):
        first = sampler_class(tiny_corpus, num_topics=3, seed=42).fit(3)
        second = sampler_class(tiny_corpus, num_topics=3, seed=42).fit(3)
        np.testing.assert_array_equal(first.assignments, second.assignments)

    def test_different_seeds_differ(self, small_corpus, sampler_class):
        first = sampler_class(small_corpus, num_topics=5, seed=1).fit(1)
        second = sampler_class(small_corpus, num_topics=5, seed=2).fit(1)
        assert not np.array_equal(first.assignments, second.assignments)

    def test_assignments_in_range(self, tiny_corpus, sampler_class):
        sampler = sampler_class(tiny_corpus, num_topics=4, seed=0).fit(2)
        assert sampler.assignments.min() >= 0
        assert sampler.assignments.max() < 4

    def test_imported_global_counts_survive_sweeps(self, small_corpus, sampler_class):
        # Data-parallel epochs add external word-topic counts onto the live
        # ones; a sweep must update them incrementally, never rebuild them
        # down to the shard-local contribution — which is what makes
        # clear_external_counts() an exact subtraction.
        sampler = sampler_class(small_corpus, num_topics=5, seed=0)
        external = np.random.default_rng(1).integers(
            0, 5, size=(small_corpus.vocabulary_size, 5)
        ).astype(np.int64)
        sampler.set_external_counts(external)
        sampler.fit(2)
        local = np.zeros_like(external)
        np.add.at(local, (small_corpus.token_words, sampler.assignments), 1)
        np.testing.assert_array_equal(sampler.state.word_topic - local, external)
        np.testing.assert_array_equal(sampler.word_topic_counts(), local)
        sampler.clear_external_counts()
        assert sampler.state.check_consistency()


class TestCgsConditional:
    def test_conditional_is_positive_and_normalisable(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=0)
        weights = sampler.conditional_distribution(0)
        assert weights.shape == (3,)
        assert np.all(weights > 0)
        assert np.isfinite(weights.sum())

    def test_conditional_excludes_current_token(self, tiny_corpus):
        sampler = CollapsedGibbsSampler(tiny_corpus, num_topics=3, seed=0)
        token = 0
        topic = int(sampler.assignments[token])
        doc = int(tiny_corpus.token_documents[token])
        weights = sampler.conditional_distribution(token)
        # Reconstruct the weight using ¬dn counts and compare.
        doc_count = sampler.state.doc_topic[doc, topic] - 1
        word = int(tiny_corpus.token_words[token])
        word_count = sampler.state.word_topic[word, topic] - 1
        topic_count = sampler.state.topic_counts[topic] - 1
        expected = (
            (doc_count + sampler.alpha[topic])
            * (word_count + sampler.beta)
            / (topic_count + sampler.beta_sum)
        )
        assert weights[topic] == pytest.approx(expected)

    def test_matches_eq1_for_every_topic_and_token(self, small_corpus):
        sampler = CollapsedGibbsSampler(small_corpus, num_topics=5, seed=2)
        sampler.fit(1)  # leave uniform init so the counts carry structure
        stop = min(64, small_corpus.num_tokens)
        docs = small_corpus.token_documents[:stop]
        words = small_corpus.token_words[:stop]
        own = np.eye(5)[sampler.assignments[:stop]]  # the ¬dn exclusion
        state = sampler.state
        expected = (
            (state.doc_topic[docs] - own + sampler.alpha)
            * (state.word_topic[words] - own + sampler.beta)
            / (state.topic_counts - own + sampler.beta_sum)
        )
        for token_index in range(stop):
            np.testing.assert_allclose(
                sampler.conditional_distribution(token_index),
                expected[token_index],
                rtol=1e-12,
            )


class TestSamplerSpecifics:
    def test_lightlda_requires_positive_mh_steps(self, tiny_corpus):
        with pytest.raises(ValueError):
            LightLDASampler(tiny_corpus, num_topics=3, num_mh_steps=0)

    def test_aliaslda_requires_positive_mh_steps(self, tiny_corpus):
        with pytest.raises(ValueError):
            AliasLDASampler(tiny_corpus, num_topics=3, num_mh_steps=0)

    def test_lightlda_more_mh_steps_still_consistent(self, tiny_corpus):
        sampler = LightLDASampler(tiny_corpus, num_topics=3, num_mh_steps=4, seed=0).fit(2)
        assert sampler.state.check_consistency()

    def test_fpluslda_visits_word_by_word(self, small_corpus):
        # After one iteration every token must have been re-sampled at least
        # once; verify by checking the sampler touched all words' tokens
        # (count consistency plus a changed assignment distribution).
        sampler = FPlusLDASampler(small_corpus, num_topics=5, seed=3)
        before = sampler.assignments.copy()
        sampler.fit(1)
        assert sampler.state.check_consistency()
        assert np.mean(before != sampler.assignments) > 0.2

    def test_exact_samplers_converge_to_similar_likelihood(self, small_corpus):
        # SparseLDA and F+LDA are exact CGS samplers: after the same number of
        # iterations they should land in the same likelihood ballpark as CGS.
        num_iterations = 8
        results = {}
        for cls in (CollapsedGibbsSampler, SparseLDASampler, FPlusLDASampler):
            sampler = cls(small_corpus, num_topics=5, seed=0).fit(num_iterations)
            results[cls.__name__] = sampler.log_likelihood()
        values = np.array(list(results.values()))
        spread = values.max() - values.min()
        scale = abs(values.mean())
        assert spread / scale < 0.05, results
