"""Ablation variants bridging LightLDA and WarpLDA (Fig. 7 of the paper).

The paper isolates the two ingredients that differ between LightLDA's CGS
solution and WarpLDA's MCEM solution:

* **delayed count updates** — ``C_w`` (and ``c_k``) updated once per iteration
  instead of instantly (``+DW``), then ``C_d`` as well (``+DD``);
* **the simplified word proposal** — ``q_word ∝ C_wk + β`` instead of
  LightLDA's ``q_word ∝ (C_wk + β)/(C_k + β̄)`` (``+SP``).

:class:`DelayedUpdateLightLDA` implements a LightLDA-style per-token sampler
whose count freshness and word proposal are controlled by flags, and
:func:`make_ablation_suite` builds the five configurations plotted in Fig. 7
(the fifth being WarpLDA itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.warplda import WarpLDA
from repro.corpus.corpus import Corpus
from repro.samplers.base import LDASampler
from repro.sampling.alias import AliasTable
from repro.sampling.rng import RngLike

__all__ = ["AblationVariant", "DelayedUpdateLightLDA", "make_ablation_suite"]


@dataclass(frozen=True)
class AblationVariant:
    """One point on the LightLDA → WarpLDA ablation path."""

    label: str
    delay_word_counts: bool
    delay_doc_counts: bool
    simple_word_proposal: bool
    use_warplda: bool = False


class DelayedUpdateLightLDA(LDASampler):
    """LightLDA-style per-token MH sampler with configurable count freshness.

    Parameters
    ----------
    delay_word_counts:
        Read ``C_w`` and ``c_k`` from an iteration-start snapshot (``+DW``).
    delay_doc_counts:
        Read ``C_d`` from an iteration-start snapshot (``+DD``).
    simple_word_proposal:
        Use WarpLDA's ``q_word ∝ C_wk + β`` instead of LightLDA's
        ``q_word ∝ (C_wk + β)/(C_k + β̄)`` (``+SP``).
    num_mh_steps:
        Number of doc+word proposal cycles per token (Fig. 7 uses 1).
    """

    name = "DelayedUpdateLightLDA"

    def __init__(
        self,
        *args,
        delay_word_counts: bool = False,
        delay_doc_counts: bool = False,
        simple_word_proposal: bool = False,
        num_mh_steps: int = 1,
        **kwargs,
    ):
        super().__init__(*args, num_mh_steps=num_mh_steps, **kwargs)
        self.delay_word_counts = bool(delay_word_counts)
        self.delay_doc_counts = bool(delay_doc_counts)
        self.simple_word_proposal = bool(simple_word_proposal)
        self.num_mh_steps = int(num_mh_steps)
        self._alpha_alias = AliasTable(self.alpha)
        self.name = self._label()

    def _label(self) -> str:
        label = "LightLDA"
        if self.delay_word_counts:
            label += "+DW"
        if self.delay_doc_counts:
            label += "+DD"
        if self.simple_word_proposal:
            label += "+SP"
        return label

    # ------------------------------------------------------------------ #
    def _word_proposal_weights(self, word: int, word_topic_read, topic_read) -> np.ndarray:
        if self.simple_word_proposal:
            return word_topic_read[word] + self.beta
        return (word_topic_read[word] + self.beta) / (topic_read + self.beta_sum)

    def _sample_iteration(self) -> None:
        state = self.state
        rng = self.rng
        alpha = self.alpha
        beta = self.beta
        beta_sum = self.beta_sum

        # Snapshots taken at the start of the iteration; reads go to the
        # snapshot when the corresponding counts are delayed, to the live
        # matrices otherwise.
        word_topic_read = (
            state.word_topic.copy() if self.delay_word_counts else state.word_topic
        )
        topic_read = (
            state.topic_counts.copy() if self.delay_word_counts else state.topic_counts
        )
        doc_topic_read = (
            state.doc_topic.copy() if self.delay_doc_counts else state.doc_topic
        )
        # With delayed word counts the proposal weights are constant for the
        # whole iteration, so per-word alias tables can be cached safely.
        word_tables: Dict[int, AliasTable] = {}

        def word_proposal_table(word: int) -> AliasTable:
            table = word_tables.get(word)
            if table is None:
                table = AliasTable(
                    self._word_proposal_weights(word, word_topic_read, topic_read)
                )
                word_tables[word] = table
            return table

        for doc_index in range(self.corpus.num_documents):
            token_indices = self.corpus.document_token_indices(doc_index)
            doc_length = int(token_indices.size)
            if doc_length == 0:
                continue
            doc_counts_live = state.doc_topic[doc_index]
            doc_counts_read = doc_topic_read[doc_index]

            for token_index in token_indices:
                word = int(self.corpus.token_words[token_index])
                current = int(state.assignments[token_index])

                for step in range(2 * self.num_mh_steps):
                    use_doc_proposal = step % 2 == 0
                    if use_doc_proposal:
                        if rng.random() * (doc_length + self.alpha_sum) < doc_length:
                            position = int(rng.integers(doc_length))
                            candidate = int(
                                state.assignments[token_indices[position]]
                            )
                        else:
                            candidate = self._alpha_alias.draw(rng)
                    else:
                        if not self.delay_word_counts:
                            # Fresh proposal weights: cached tables would be
                            # stale, rebuild every time (LightLDA handles this
                            # with a staleness budget; exact freshness is fine
                            # for the ablation).
                            candidate = int(
                                AliasTable(
                                    self._word_proposal_weights(
                                        word, word_topic_read, topic_read
                                    )
                                ).draw(rng)
                            )
                        else:
                            candidate = int(word_proposal_table(word).draw(rng))
                    if candidate == current:
                        continue

                    # Target densities.  Live reads exclude the current token
                    # (CGS ¬dn); delayed reads use the snapshot as is (MCEM).
                    doc_current = doc_counts_read[current] - (
                        0 if self.delay_doc_counts else 1
                    )
                    doc_candidate = doc_counts_read[candidate]
                    word_current = word_topic_read[word, current] - (
                        0 if self.delay_word_counts else 1
                    )
                    word_candidate = word_topic_read[word, candidate]
                    topic_current = topic_read[current] - (
                        0 if self.delay_word_counts else 1
                    )
                    topic_candidate = topic_read[candidate]

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
                        proposal_ratio = (doc_counts_read[current] + alpha[current]) / (
                            doc_counts_read[candidate] + alpha[candidate]
                        )
                    else:
                        weights = self._word_proposal_weights(
                            word, word_topic_read, topic_read
                        )
                        proposal_ratio = float(weights[current]) / max(
                            float(weights[candidate]), 1e-300
                        )

                    acceptance = min(1.0, target_ratio * proposal_ratio)
                    if rng.random() < acceptance:
                        # Live counts always track the assignments instantly;
                        # delaying only affects what the *reads* see.
                        doc_counts_live[current] -= 1
                        state.word_topic[word, current] -= 1
                        state.topic_counts[current] -= 1
                        doc_counts_live[candidate] += 1
                        state.word_topic[word, candidate] += 1
                        state.topic_counts[candidate] += 1
                        state.assignments[token_index] = candidate
                        current = candidate


#: The five configurations of Fig. 7, in the paper's order.
ABLATION_VARIANTS = (
    AblationVariant("LightLDA", False, False, False),
    AblationVariant("LightLDA+DW", True, False, False),
    AblationVariant("LightLDA+DW+DD", True, True, False),
    AblationVariant("LightLDA+DW+DD+SP", True, True, True),
    AblationVariant("WarpLDA", True, True, True, use_warplda=True),
)


def make_ablation_suite(
    corpus: Corpus,
    num_topics: int,
    alpha: Optional[float] = None,
    beta: float = 0.01,
    num_mh_steps: int = 1,
    seed: RngLike = 0,
) -> Dict[str, Callable[[], object]]:
    """Return ``{label: factory}`` for the five Fig. 7 configurations.

    Each factory builds a fresh sampler so the configurations start from
    independent (but seed-controlled) initial states.
    """
    suite: Dict[str, Callable[[], object]] = {}
    for variant in ABLATION_VARIANTS:
        if variant.use_warplda:
            suite[variant.label] = (
                lambda v=variant: WarpLDA(
                    corpus,
                    num_topics=num_topics,
                    num_mh_steps=num_mh_steps,
                    alpha=alpha,
                    beta=beta,
                    seed=seed,
                )
            )
        else:
            suite[variant.label] = (
                lambda v=variant: DelayedUpdateLightLDA(
                    corpus,
                    num_topics,
                    alpha=alpha,
                    beta=beta,
                    seed=seed,
                    delay_word_counts=v.delay_word_counts,
                    delay_doc_counts=v.delay_doc_counts,
                    simple_word_proposal=v.simple_word_proposal,
                    num_mh_steps=num_mh_steps,
                )
            )
    return suite
