"""LightLDA (Yuan et al., WWW 2015): O(1) cycle Metropolis-Hastings proposals.

Each token alternates between two cheap proposals:

* **doc proposal** ``q_doc(k) ∝ C_dk + α_k`` — drawn in O(1) via the
  mixture-of-multinomials trick (pick the topic of a uniformly random position
  of the document with probability ``L_d / (L_d + ᾱ)``, otherwise draw from the
  prior α).
* **word proposal** ``q_word(k) ∝ (C_wk + β) / (C_k + β̄)`` — drawn in O(1)
  from a *stale* per-word alias table; the acceptance ratio uses the stale
  table's own density, so staleness does not bias the chain.

Counts are updated **instantly** after every token (unlike WarpLDA's delayed
updates), and tokens are visited document-by-document, which is why the
accesses to ``C_w`` spread over the whole O(KV) matrix (paper, Table 2).

``num_mh_steps`` is the paper's ``M``: the number of proposal/acceptance steps
per token (alternating doc / word), matching the knob swept in Fig. 5.

The default ``kernel="slab"`` path runs the cycle under WarpLDA's delayed
counts via :func:`repro.kernels.light.delayed_cycle_sweep`: all counts are
frozen for a sweep, every token's chain becomes independent, and the whole
corpus executes as a flat vectorised MH chain whose acceptance rates collapse
to the two factors of Eq. (7).  ``kernel="scalar"`` keeps the original
instant-update per-token loop as the correctness oracle.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.kernels.light import delayed_cycle_sweep
from repro.samplers.base import LDASampler
from repro.sampling.alias import AliasTable

__all__ = ["LightLDASampler"]


class _StaleWordProposal:
    """Stale alias table for ``q_word(k) ∝ (C_wk + β) / (C_k + β̄)``."""

    __slots__ = ("alias", "weights", "draws_remaining")

    def __init__(self, weights: np.ndarray, refresh_interval: int):
        self.alias = AliasTable(weights)
        self.weights = weights
        self.draws_remaining = refresh_interval

    def density(self, topic: int) -> float:
        return float(self.weights[topic])

    def draw(self, rng: np.random.Generator) -> int:
        self.draws_remaining -= 1
        return int(self.alias.draw(rng))


class LightLDASampler(LDASampler):
    """MH-based O(1) sampler with instant count updates."""

    name = "LightLDA"
    KERNELS = ("slab", "scalar")
    DEFAULT_KERNEL = "slab"

    def __init__(self, *args, num_mh_steps: int = 2, **kwargs):
        super().__init__(*args, num_mh_steps=num_mh_steps, **kwargs)
        self.num_mh_steps = int(num_mh_steps)
        self._word_proposals: Dict[int, _StaleWordProposal] = {}
        # Alias table over the (fixed) prior α used by the doc proposal's
        # second mixture component.  The slab kernel draws the prior
        # component uniformly when α is symmetric (same distribution, one
        # RNG call) and from this table otherwise.
        self._alpha_alias = AliasTable(self.alpha)
        self._alpha_is_symmetric = bool(np.allclose(self.alpha, self.alpha[0]))

    def invalidate_caches(self) -> None:
        """Drop the stale per-word proposal tables (counts changed underneath)."""
        self._word_proposals.clear()

    # ------------------------------------------------------------------ #
    def _word_proposal(self, word: int) -> _StaleWordProposal:
        proposal = self._word_proposals.get(word)
        if proposal is None or proposal.draws_remaining <= 0:
            weights = (self.state.word_topic[word] + self.beta) / (
                self.state.topic_counts + self.beta_sum
            )
            refresh = max(int(self.corpus.word_frequencies()[word]), 8)
            proposal = _StaleWordProposal(weights, refresh)
            self._word_proposals[word] = proposal
        return proposal

    def _draw_doc_proposal(
        self, doc_token_indices: np.ndarray, doc_length: int, rng: np.random.Generator
    ) -> int:
        """Draw from ``q_doc(k) ∝ C_dk + α_k`` via random positioning."""
        if rng.random() * (doc_length + self.alpha_sum) < doc_length:
            position = int(rng.integers(doc_length))
            return int(self.state.assignments[doc_token_indices[position]])
        return self._alpha_alias.draw(rng)

    # ------------------------------------------------------------------ #
    def _sample_iteration(self) -> None:
        if self.kernel == "slab":
            delayed_cycle_sweep(
                self.state,
                self.alpha,
                self.alpha_sum,
                self.beta,
                self.beta_sum,
                self.num_mh_steps,
                self.rng,
                alpha_alias=None if self._alpha_is_symmetric else self._alpha_alias,
                threads=self.threads,
            )
            return
        self._sample_iteration_scalar()

    def _sample_iteration_scalar(self) -> None:
        state = self.state
        rng = self.rng
        alpha = self.alpha
        beta = self.beta
        beta_sum = self.beta_sum

        for doc_index in range(self.corpus.num_documents):
            token_indices = self.corpus.document_token_indices(doc_index)
            doc_length = int(token_indices.size)
            if doc_length == 0:
                continue
            doc_counts = state.doc_topic[doc_index]

            for token_index in token_indices:
                word = int(self.corpus.token_words[token_index])
                current = int(state.assignments[token_index])

                # One "MH step" is a full cycle: one doc-proposal move followed
                # by one word-proposal move, matching the paper's usage of M.
                for step in range(2 * self.num_mh_steps):
                    use_doc_proposal = step % 2 == 0
                    if use_doc_proposal:
                        candidate = self._draw_doc_proposal(token_indices, doc_length, rng)
                    else:
                        candidate = self._word_proposal(word).draw(rng)
                    if candidate == current:
                        continue

                    # ¬dn counts: exclude the token being resampled.
                    doc_current = doc_counts[current] - 1
                    word_current = state.word_topic[word, current] - 1
                    topic_current = state.topic_counts[current] - 1
                    doc_candidate = doc_counts[candidate]
                    word_candidate = state.word_topic[word, candidate]
                    topic_candidate = state.topic_counts[candidate]

                    target_ratio = (
                        (doc_candidate + alpha[candidate])
                        * (word_candidate + beta)
                        * (topic_current + beta_sum)
                    ) / (
                        (doc_current + alpha[current])
                        * (word_current + beta)
                        * (topic_candidate + beta_sum)
                    )
                    if use_doc_proposal:
                        # q_doc uses the *full* counts (the token included).
                        proposal_ratio = (doc_counts[current] + alpha[current]) / (
                            doc_counts[candidate] + alpha[candidate]
                        )
                    else:
                        stale = self._word_proposal(word)
                        proposal_ratio = stale.density(current) / max(
                            stale.density(candidate), 1e-300
                        )

                    acceptance = min(1.0, target_ratio * proposal_ratio)
                    if rng.random() < acceptance:
                        # Instant count update (the defining difference from
                        # WarpLDA's delayed updates).
                        doc_counts[current] -= 1
                        state.word_topic[word, current] -= 1
                        state.topic_counts[current] -= 1
                        doc_counts[candidate] += 1
                        state.word_topic[word, candidate] += 1
                        state.topic_counts[candidate] += 1
                        state.assignments[token_index] = candidate
                        current = candidate
