"""Plain collapsed Gibbs sampling (Griffiths & Steyvers 2004).

For each token the full conditional of Eq. (1) is enumerated over all ``K``
topics, so the per-token cost is O(K).  This is the reference sampler: every
faster algorithm in the library must target the same stationary distribution,
and the tests compare their conditionals against this one.  It runs the exact
sequential scan only (``kernel="scalar"``); a ``"slab"`` request through
``ModelSpec``, the trainers or the CLI runs it on ``scalar``
(:func:`repro.samplers.base.resolve_kernel`).
"""

from __future__ import annotations

import numpy as np

from repro.samplers.base import LDASampler

__all__ = ["CollapsedGibbsSampler"]


class CollapsedGibbsSampler(LDASampler):
    """O(K)-per-token collapsed Gibbs sampler, visiting tokens document-by-document."""

    name = "CGS"

    def conditional_distribution(self, token_index: int) -> np.ndarray:
        """Unnormalised CGS conditional of Eq. (1) for one token.

        The token's own assignment is excluded from the counts (the ``¬dn``
        superscript in the paper).  Exposed for tests, which validate the fast
        samplers against it.
        """
        doc = int(self.corpus.token_documents[token_index])
        word = int(self.corpus.token_words[token_index])
        topic = int(self.state.assignments[token_index])

        doc_counts = self.state.doc_topic[doc].astype(np.float64).copy()
        word_counts = self.state.word_topic[word].astype(np.float64).copy()
        topic_counts = self.state.topic_counts.astype(np.float64).copy()
        doc_counts[topic] -= 1
        word_counts[topic] -= 1
        topic_counts[topic] -= 1

        return (doc_counts + self.alpha) * (word_counts + self.beta) / (
            topic_counts + self.beta_sum
        )

    def _sample_iteration(self) -> None:
        state = self.state
        alpha = self.alpha
        beta = self.beta
        beta_sum = self.beta_sum
        token_documents = self.corpus.token_documents
        token_words = self.corpus.token_words
        rng = self.rng

        # Pre-draw one uniform per token; the inverse-CDF draw below consumes
        # exactly one.
        uniforms = rng.random(self.corpus.num_tokens)

        for token_index in range(self.corpus.num_tokens):
            doc = token_documents[token_index]
            word = token_words[token_index]
            old_topic = state.assignments[token_index]

            state.doc_topic[doc, old_topic] -= 1
            state.word_topic[word, old_topic] -= 1
            state.topic_counts[old_topic] -= 1

            weights = (
                (state.doc_topic[doc] + alpha)
                * (state.word_topic[word] + beta)
                / (state.topic_counts + beta_sum)
            )
            cumulative = np.cumsum(weights)
            new_topic = int(
                np.searchsorted(cumulative, uniforms[token_index] * cumulative[-1])
            )
            if new_topic >= self.num_topics:  # numerical edge case
                new_topic = self.num_topics - 1

            state.assignments[token_index] = new_topic
            state.doc_topic[doc, new_topic] += 1
            state.word_topic[word, new_topic] += 1
            state.topic_counts[new_topic] += 1
