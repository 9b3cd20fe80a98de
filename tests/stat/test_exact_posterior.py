"""The scalar samplers against the exact collapsed posterior (ROADMAP item 4(a)).

Two documents, three words, two topics and six tokens give ``2**6 = 64``
assignment states, few enough to enumerate ``p(z | w)`` exactly from the
collapsed joint

    p(w, z) ∝ ∏_d [∏_k Γ(C_dk + α)] / Γ(L_d + Kα) · ∏_k [∏_w Γ(C_wk + β)] / Γ(C_k + Vβ)

(its one-token ratios are Eq. 1, which the first test checks).  Each sampler then runs one long chain from a
fixed seed, and the frequencies of the states it visits are compared with
the enumeration by Pearson's chi-square.

Two things keep the statistic honest:

* **Autocorrelation.**  Consecutive sweeps are correlated, so a chi-square
  over every sweep over-rejects an exact sampler: scalar CGS scores
  p = 0.011 over 20k consecutive sweeps here.  Every :data:`THIN`-th sweep
  is kept instead.
* **Label switching.**  α and β are symmetric, so ``p(z) = p(1 - z)``, and
  moving between the two mirror images is the chain's slowest mode: a
  state's indicator has an integrated autocorrelation time of 6–8 sweeps,
  its mirror-folded class one of 2–3.  States are therefore folded with
  their mirror image (32 classes), which a short :data:`THIN` then
  decorrelates.  The price: an error that favours one topic label over the
  other would go unseen here.

Classes expected fewer than five times are pooled.  Every generator is
seeded, so the statistics are fixed numbers.  The negative control scores
the same samples against the posterior enumerated with ``2β`` and must
reject it.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

from repro.corpus import Corpus, Vocabulary
from repro.samplers import (
    AliasLDASampler,
    CollapsedGibbsSampler,
    FPlusLDASampler,
    LightLDASampler,
    SparseLDASampler,
)

NUM_TOPICS = 2
ALPHA = 0.5
BETA = 0.1
SWEEPS = 6000
THIN = 4
P_FLOOR = 1e-3
#: The negative control must be rejected far below the floor.
P_WRONG = 1e-6

CORPUS = Corpus.from_token_lists(
    [["a", "a", "b"], ["b", "c", "c"]], Vocabulary(["a", "b", "c"])
)
NUM_STATES = NUM_TOPICS ** CORPUS.num_tokens
#: Assignment vector -> state index (token 0 is the most significant bit).
PLACE = NUM_TOPICS ** np.arange(CORPUS.num_tokens)[::-1]
STATES = np.array(list(itertools.product(range(NUM_TOPICS), repeat=CORPUS.num_tokens)))


def fold(index):
    """A state's class: the smaller index of it and its label-swapped mirror."""
    return np.minimum(index, NUM_STATES - 1 - index)


def log_joint(assignments, beta):
    """``log p(w, z)`` up to a constant independent of ``z``."""
    doc_topic = np.zeros((CORPUS.num_documents, NUM_TOPICS))
    word_topic = np.zeros((CORPUS.vocabulary_size, NUM_TOPICS))
    np.add.at(doc_topic, (CORPUS.token_documents, assignments), 1)
    np.add.at(word_topic, (CORPUS.token_words, assignments), 1)
    return (
        gammaln(doc_topic + ALPHA).sum()
        - gammaln(doc_topic.sum(axis=1) + NUM_TOPICS * ALPHA).sum()
        + gammaln(word_topic + beta).sum()
        - gammaln(word_topic.sum(axis=0) + CORPUS.vocabulary_size * beta).sum()
    )


def posterior(beta):
    """Exact ``p(z | w)`` over all states, indexed like :data:`PLACE`."""
    log_p = np.array([log_joint(state, beta) for state in STATES])
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def folded(p):
    classes = np.zeros(NUM_STATES)
    np.add.at(classes, fold(np.arange(NUM_STATES)), p)
    return classes


@lru_cache(maxsize=None)
def visited_classes(sampler_class):
    """Class counts of every :data:`THIN`-th state of one seeded scalar chain."""
    sampler = sampler_class(
        CORPUS, num_topics=NUM_TOPICS, alpha=ALPHA, beta=BETA, seed=0, kernel="scalar"
    )
    states = np.empty(SWEEPS, dtype=np.int64)
    for sweep in range(SWEEPS):
        sampler.run_iteration()
        states[sweep] = sampler.state.assignments @ PLACE
    return np.bincount(fold(states[THIN - 1 :: THIN]), minlength=NUM_STATES)


def p_value(observed, p):
    """Pearson's chi-square p-value, classes expected < 5 times pooled."""
    expected = p * observed.sum()
    live = p > 0
    assert observed[~live].sum() == 0
    observed, expected = observed[live], expected[live]
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    return chisquare(observed, expected).pvalue


EXACT = [CollapsedGibbsSampler, SparseLDASampler, FPlusLDASampler]


def test_enumeration_matches_the_cgs_conditional():
    """Flipping one token changes the joint by the Eq. 1 conditional ratio."""
    sampler = CollapsedGibbsSampler(
        CORPUS, num_topics=NUM_TOPICS, alpha=ALPHA, beta=BETA, seed=0
    )
    for state in STATES[[0, 5, 22, 41, 63]]:
        sampler.set_assignments(state)
        for token in range(CORPUS.num_tokens):
            conditional = sampler.conditional_distribution(token)
            flipped = state.copy()
            flipped[token] = 1 - state[token]
            np.testing.assert_allclose(
                log_joint(flipped, BETA) - log_joint(state, BETA),
                np.log(conditional[flipped[token]] / conditional[state[token]]),
                rtol=1e-10,
            )


@pytest.mark.parametrize(
    "sampler_class",
    [
        *EXACT,
        pytest.param(
            AliasLDASampler,
            marks=pytest.mark.xfail(
                strict=True,
                reason="total variation to the exact posterior stays at "
                "0.076 from 20k to 60k sweeps (scalar CGS: 0.020 -> 0.007)",
            ),
        ),
        pytest.param(
            LightLDASampler,
            marks=pytest.mark.xfail(
                strict=True,
                reason="total variation to the exact posterior stays at "
                "0.14 from 20k to 60k sweeps (scalar CGS: 0.020 -> 0.007)",
            ),
        ),
    ],
)
def test_long_run_frequencies_match_the_exact_posterior(sampler_class):
    assert p_value(visited_classes(sampler_class), folded(posterior(BETA))) > P_FLOOR


@pytest.mark.parametrize("sampler_class", EXACT)
def test_wrong_target_is_rejected(sampler_class):
    assert p_value(visited_classes(sampler_class), folded(posterior(2 * BETA))) < P_WRONG
