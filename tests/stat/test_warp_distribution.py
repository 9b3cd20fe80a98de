"""Distributional checks of the WarpLDA kernel (ROADMAP item 1, first file).

The rest of the suite pins *bit identity* — that the code still does what it
did.  These tests pin that what it does targets the right distribution:

* the Sec. 4.3 draw behind ``word_phase`` / ``document_phase`` has empirical
  frequencies matching ``q(k) ∝ C_rk + prior_k`` per row — the two-component
  word and document mixtures and the three-component external-count mixture;
* one ``M``-step chain of Eq. (7), read through a slot table narrower than
  ``K`` (contested slots), leaves its frozen-count target invariant.

Every generator is seeded, so the chi-square statistics are fixed numbers and
the tests cannot flake; each has a negative control showing the statistic
would catch the error it guards against.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.corpus import Corpus, Vocabulary
from repro.kernels.buckets import corpus_buckets
from repro.kernels.warp import _run_chain, _slot_counts, document_phase, word_phase
from repro.sampling.alias import AliasTable

NUM_TOPICS = 5
NUM_DRAWS = 4000  # proposals per token: M is just the number of draws here
P_FLOOR = 1e-3


@pytest.fixture(scope="module")
def corpus():
    """Six words, five documents; word ``e`` and document 4 have one token."""
    vocabulary = Vocabulary(["a", "b", "c", "d", "e", "f"])
    token_lists = [
        ["a", "a", "b", "c", "a", "d", "a", "b"],
        ["b", "a", "c", "c", "d"],
        ["a", "b", "a", "f", "f", "c", "a"],
        ["d", "a", "e"],
        ["a"],
    ]
    return Corpus.from_token_lists(token_lists, vocabulary)


def frozen_state(corpus, seed):
    """Assignments, and stored proposals equal to them so the chain cannot move."""
    rng = np.random.default_rng(seed)
    assignments = rng.integers(NUM_TOPICS, size=corpus.num_tokens)
    proposals = np.tile(assignments, (NUM_DRAWS, 1))
    stale = np.bincount(assignments, minlength=NUM_TOPICS).astype(np.float64)
    return rng, assignments, proposals, stale


def row_p_value(drawn, row_tokens, weights):
    """Chi-square p-value of the topics drawn for one row against ``weights``."""
    observed = np.bincount(drawn[:, row_tokens].ravel(), minlength=NUM_TOPICS)
    expected = weights / weights.sum() * observed.sum()
    keep = expected > 0
    assert observed[~keep].sum() == 0
    return chisquare(observed[keep], expected[keep]).pvalue


class TestProposalFrequencies:
    def word_rows(self, corpus, assignments):
        for word in range(corpus.vocabulary_size):
            tokens = corpus.word_token_indices(word)
            yield word, tokens, np.bincount(assignments[tokens], minlength=NUM_TOPICS)

    def test_word_mixture(self, corpus):
        beta = 0.3
        rng, assignments, proposals, stale = frozen_state(corpus, seed=1)
        before = assignments.copy()
        word_phase(
            assignments, proposals, corpus_buckets(corpus, "word"), stale,
            NUM_TOPICS, NUM_DRAWS, beta, beta * corpus.vocabulary_size, rng,
        )  # fmt: skip
        np.testing.assert_array_equal(assignments, before)
        wrong = []
        for _, tokens, counts in self.word_rows(corpus, assignments):
            assert row_p_value(proposals, tokens, counts + beta) > P_FLOOR
            # Control: the Vβ-for-Kβ slip (prior mass β̄ instead of K·β).
            slipped = counts + beta * corpus.vocabulary_size / NUM_TOPICS
            wrong.append(row_p_value(proposals, tokens, slipped))
        assert min(wrong) < 1e-6

    def test_document_mixture_with_asymmetric_alpha(self, corpus):
        alpha = np.array([0.05, 0.4, 1.5, 0.2, 0.85])
        rng, assignments, proposals, stale = frozen_state(corpus, seed=2)
        document_phase(
            assignments, proposals, corpus_buckets(corpus, "doc"), stale,
            alpha, float(alpha.sum()), NUM_TOPICS, NUM_DRAWS, 1.8, rng,
            alpha_alias=AliasTable(alpha),
        )  # fmt: skip
        wrong = []
        for doc in range(corpus.num_documents):
            tokens = corpus.document_token_indices(doc)
            counts = np.bincount(assignments[tokens], minlength=NUM_TOPICS)
            assert row_p_value(proposals, tokens, counts + alpha) > P_FLOOR
            # Control: a symmetric prior of the same mass.
            wrong.append(row_p_value(proposals, tokens, counts + alpha.mean()))
        assert min(wrong) < 1e-6

    def test_external_three_component_mixture(self, corpus):
        beta = 0.3
        rng, assignments, proposals, stale = frozen_state(corpus, seed=3)
        external = rng.integers(0, 4, size=(corpus.vocabulary_size, NUM_TOPICS))
        external[:, 2] = 0  # a topic the other shards never used
        external[corpus.vocabulary["f"]] = 0  # E_w = 0: never pick the table
        single = corpus.vocabulary["e"]  # L = 1
        assert corpus.word_token_indices(single).size == 1 and external[single].any()
        word_phase(
            assignments, proposals, corpus_buckets(corpus, "word"), stale,
            NUM_TOPICS, NUM_DRAWS, beta, beta * corpus.vocabulary_size, rng,
            external_word_topic=external,
        )  # fmt: skip
        wrong = []
        for word, tokens, counts in self.word_rows(corpus, assignments):
            assert row_p_value(proposals, tokens, counts + external[word] + beta) > P_FLOOR
            # Control: the local-only mixture, blind to the other shards.
            if external[word].any():
                wrong.append(row_p_value(proposals, tokens, counts + beta))
        assert max(wrong) < 1e-6


class TestChainInvariance:
    """One enumerable row: 4 tokens, K = 3, counts frozen at ``[1, 1, 2]``."""

    ROW = np.array([0, 2, 2, 1])
    NUM_TOPICS, WIDTH = 3, 2  # topics 0 and 2 contest slot 0
    BETA, BETA_SUM = 0.4, 2.0
    STALE = np.array([30.0, 4.0, 11.0])
    PROPOSAL = np.array([0.5, 0.3, 0.2])  # any fixed q the chain corrects for

    def run(self, replicas, num_steps, start, seed, beta_sum=BETA_SUM):
        """``replicas`` copies of the row, each token an independent chain."""
        rng = np.random.default_rng(seed)
        row = np.repeat(np.arange(replicas), self.ROW.size)
        count_at, _ = _slot_counts(
            np.tile(self.ROW, replicas), row, replicas, self.NUM_TOPICS, self.WIDTH
        )
        np.testing.assert_array_equal(
            count_at(np.full(row.size, 2)), np.full(row.size, 2.0)
        )
        inv = 1.0 / (self.STALE + beta_sum)
        f_at = lambda topics: (count_at(topics) + self.BETA) * inv[topics]  # noqa: E731
        state = rng.choice(self.NUM_TOPICS, size=row.size, p=start)
        proposed = rng.choice(self.NUM_TOPICS, size=(num_steps, row.size), p=self.PROPOSAL)
        _run_chain(state, f_at(state), proposed, f_at, rng)
        return np.bincount(state, minlength=self.NUM_TOPICS)

    def target(self, beta_sum=BETA_SUM):
        # Eq. (7)'s stationary law for this proposal: q(k) · (C_rk + β) / (C_k + β̄).
        counts = np.bincount(self.ROW, minlength=self.NUM_TOPICS)
        weights = self.PROPOSAL * (counts + self.BETA) / (self.STALE + beta_sum)
        return weights / weights.sum()

    @pytest.mark.parametrize("num_steps", [1, 3])
    def test_slot_table_chain_leaves_the_target_invariant(self, num_steps):
        target = self.target()
        after = self.run(50_000, num_steps, start=target, seed=num_steps)
        assert chisquare(after, target * after.sum()).pvalue > P_FLOOR

    def test_control_a_wrong_target_is_not_invariant(self):
        # Started from the law of a different β̄, one step must visibly move it.
        wrong = self.target(beta_sum=40.0)
        after = self.run(50_000, 1, start=wrong, seed=7)
        assert chisquare(after, wrong * after.sum()).pvalue < 1e-6
