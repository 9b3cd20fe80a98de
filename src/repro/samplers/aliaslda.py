"""AliasLDA (Li, Ahmed, Ravi & Smola, KDD 2014).

The conditional is factorised as::

    p(k) ∝ C_dk (C_wk + β) / (C_k + β̄)    (document part, fresh counts)
         + α_k (C_wk + β) / (C_k + β̄)     (prior part)

The document part is enumerated exactly over the non-zero entries of ``c_d``
(O(K_d)).  The prior part is sampled from a **stale** per-word alias table in
O(1); a Metropolis-Hastings correction step removes the bias introduced by the
staleness.  Tables are rebuilt after a word has consumed as many draws as the
table has entries, which amortises the O(K) construction cost.

As in the original algorithm, tokens are visited document-by-document, so the
random accesses to ``C_w`` spread over the whole O(KV) matrix — this is the
behaviour the paper's Table 2 records.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.samplers.base import LDASampler
from repro.sampling.alias import AliasTable

__all__ = ["AliasLDASampler"]


class _StaleWordTable:
    """A stale alias table for the prior part of one word's conditional."""

    __slots__ = ("alias", "topics", "weights", "total", "draws_remaining")

    def __init__(self, alias: AliasTable, topics: np.ndarray, weights: np.ndarray):
        self.alias = alias
        self.topics = topics
        self.weights = weights
        self.total = alias.total_weight
        self.draws_remaining = max(int(topics.size), 4)

    def density(self, topic: int) -> float:
        """Stale (unnormalised) proposal weight of ``topic``."""
        return float(self.weights[topic])

    def draw(self, rng: np.random.Generator) -> int:
        self.draws_remaining -= 1
        return int(self.topics[self.alias.draw(rng)])


class AliasLDASampler(LDASampler):
    """Sparsity-aware + MH sampler with stale per-word alias tables."""

    name = "AliasLDA"

    def __init__(self, *args, num_mh_steps: int = 2, **kwargs):
        super().__init__(*args, num_mh_steps=num_mh_steps, **kwargs)
        self.num_mh_steps = int(num_mh_steps)
        self._word_tables: Dict[int, _StaleWordTable] = {}

    def invalidate_caches(self) -> None:
        """Drop the stale per-word alias tables (counts changed underneath)."""
        self._word_tables.clear()

    # ------------------------------------------------------------------ #
    def _build_word_table(self, word: int) -> _StaleWordTable:
        """(Re)build the stale alias table for the prior part of ``word``."""
        weights = (
            self.alpha
            * (self.state.word_topic[word] + self.beta)
            / (self.state.topic_counts + self.beta_sum)
        )
        topics = np.arange(self.num_topics)
        table = _StaleWordTable(AliasTable(weights), topics, weights.copy())
        self._word_tables[word] = table
        return table

    def _word_table(self, word: int) -> _StaleWordTable:
        table = self._word_tables.get(word)
        if table is None or table.draws_remaining <= 0:
            table = self._build_word_table(word)
        return table

    # ------------------------------------------------------------------ #
    def _true_weight(self, doc: int, word: int, topic: int) -> float:
        """Fresh (¬dn already removed) conditional weight of ``topic``."""
        return float(
            (self.state.doc_topic[doc, topic] + self.alpha[topic])
            * (self.state.word_topic[word, topic] + self.beta)
            / (self.state.topic_counts[topic] + self.beta_sum)
        )

    def _proposal_weight(
        self, doc: int, topic: int, table: _StaleWordTable, doc_nonzero: np.ndarray,
        doc_weights: np.ndarray
    ) -> float:
        """Unnormalised proposal density (doc part fresh, prior part stale)."""
        doc_part = 0.0
        positions = np.nonzero(doc_nonzero == topic)[0]
        if positions.size:
            doc_part = float(doc_weights[positions[0]])
        return doc_part + table.density(topic)

    def _sample_iteration(self) -> None:
        state = self.state
        rng = self.rng
        beta = self.beta
        beta_sum = self.beta_sum

        for doc_index in range(self.corpus.num_documents):
            token_indices = self.corpus.document_token_indices(doc_index)
            doc_counts = state.doc_topic[doc_index]
            for token_index in token_indices:
                word = int(self.corpus.token_words[token_index])
                old_topic = int(state.assignments[token_index])

                # Remove the token (¬dn counts).
                doc_counts[old_topic] -= 1
                state.word_topic[word, old_topic] -= 1
                state.topic_counts[old_topic] -= 1

                table = self._word_table(word)
                doc_nonzero = np.nonzero(doc_counts)[0]
                doc_weights = (
                    doc_counts[doc_nonzero]
                    * (state.word_topic[word, doc_nonzero] + beta)
                    / (state.topic_counts[doc_nonzero] + beta_sum)
                )
                doc_total = float(doc_weights.sum())

                current = old_topic
                current_true = self._true_weight(doc_index, word, current)
                current_proposal = self._proposal_weight(
                    doc_index, current, table, doc_nonzero, doc_weights
                )
                for _ in range(self.num_mh_steps):
                    # Draw from the mixture proposal.
                    if rng.random() * (doc_total + table.total) < doc_total and doc_total > 0:
                        cumulative = np.cumsum(doc_weights)
                        choice = int(
                            np.searchsorted(cumulative, rng.random() * cumulative[-1])
                        )
                        choice = min(choice, doc_nonzero.size - 1)
                        candidate = int(doc_nonzero[choice])
                    else:
                        candidate = table.draw(rng)

                    candidate_true = self._true_weight(doc_index, word, candidate)
                    candidate_proposal = self._proposal_weight(
                        doc_index, candidate, table, doc_nonzero, doc_weights
                    )
                    acceptance = 1.0
                    denominator = current_true * candidate_proposal
                    if denominator > 0:
                        acceptance = min(
                            1.0, (candidate_true * current_proposal) / denominator
                        )
                    if rng.random() < acceptance:
                        current = candidate
                        current_true = candidate_true
                        current_proposal = candidate_proposal

                # Add the token back with the (possibly unchanged) topic.
                new_topic = current
                doc_counts[new_topic] += 1
                state.word_topic[word, new_topic] += 1
                state.topic_counts[new_topic] += 1
                state.assignments[token_index] = new_topic
