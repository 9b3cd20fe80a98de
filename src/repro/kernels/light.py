"""LightLDA's cycle proposals as a delayed-count, token-parallel sweep.

Scalar LightLDA (:mod:`repro.samplers.lightlda`) alternates two O(1)
proposals per token — ``q_doc(k) ∝ C_dk + α_k`` and
``q_word(k) ∝ (C_wk + β)/(C_k + β̄)`` — updating counts *instantly* after
every accepted move, which forces a Python loop over tokens.

The kernel applies WarpLDA's delayed-count reordering (Sec. 4.2) to the same
cycle: all counts (and the assignments the random-positioning draw reads) are
frozen at the start of the sweep, so every token's ``M`` proposal cycles
become independent and the whole corpus runs as a flat vectorised chain —
precisely the MCEM E-step argument that justifies WarpLDA's own phases.

Freezing also collapses the acceptance rates to the two factors of Eq. (7):
with the doc proposal equal to the delayed document factor of the target,

    π_doc  = min{1, (C_wt + β)(C_s + β̄) / ((C_ws + β)(C_t + β̄))}

and with the word proposal equal to the delayed word/topic factor,

    π_word = min{1, (C_dt + α_t) / (C_ds + α_s)}.

The stale per-word alias tables of the scalar path become one exact batched
draw from the frozen ``(V, K)`` proposal table (a single flattened
``searchsorted``), refreshed every sweep.

Threaded execution: because *everything* the proposal cycles read is frozen
at sweep entry, the token axis splits into fixed-size chunks
(:data:`CHUNK_TOKENS`, a pure function of the corpus — never of the thread
count) that run as independent :mod:`repro.kernels.pool` tasks, each writing
a disjoint slice of the new-assignment vector with its own RNG stream.  The
count updates stay serial at the end of the sweep, so the result is
bit-identical for every thread count.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.kernels import pool
from repro.kernels.buckets import MAX_SLAB_CELLS
from repro.kernels.draws import prepare_table, table_categorical_draws
from repro.kernels.proposals import positioning_mixture_proposal
from repro.sampling.alias import AliasTable

__all__ = ["delayed_cycle_sweep"]

#: Tokens per pool task.  Matches the slab-cell budget of the other kernels
#: so a chunk's working set (a handful of per-token vectors) stays
#: cache-friendly while each task still amortises its dispatch cost.
CHUNK_TOKENS = MAX_SLAB_CELLS


def _sweep_chunk(
    current: np.ndarray,
    start: int,
    stop: int,
    frozen_assignments: np.ndarray,
    frozen_doc: np.ndarray,
    frozen_word: np.ndarray,
    frozen_topic: np.ndarray,
    word_cdf: np.ndarray,
    words: np.ndarray,
    docs: np.ndarray,
    token_offset: np.ndarray,
    token_length: np.ndarray,
    alpha_sum: float,
    alpha: np.ndarray,
    beta: float,
    beta_sum: float,
    num_topics: int,
    num_mh_steps: int,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable],
) -> None:
    """Run the proposal cycles for tokens ``[start, stop)`` (one pool task).

    Writes the chunk's slice of ``current`` in place (slices are disjoint
    across tasks); every other argument is sweep-frozen and only read.  The
    random-positioning proposal reads the *full* frozen assignment vector —
    a token's document may span chunk boundaries — which is safe precisely
    because it is frozen.
    """
    chunk_words = words[start:stop]
    chunk_docs = docs[start:stop]
    chunk_current = current[start:stop].copy()
    num_chunk = stop - start
    for _ in range(num_mh_steps):
        # Doc-proposal move: π_doc (word/topic factor only, see module doc).
        proposed = positioning_mixture_proposal(
            frozen_assignments,
            token_offset[start:stop],
            token_length[start:stop],
            alpha_sum,
            num_topics,
            rng,
            alpha_alias=alpha_alias,
        )
        ratio = (
            (frozen_word[chunk_words, proposed] + beta)
            * (frozen_topic[chunk_current] + beta_sum)
        ) / (
            (frozen_word[chunk_words, chunk_current] + beta)
            * (frozen_topic[proposed] + beta_sum)
        )
        accept = rng.random(num_chunk) < ratio
        chunk_current = np.where(accept, proposed, chunk_current)

        # Word-proposal move: π_word (document factor only).
        proposed = table_categorical_draws(word_cdf, num_topics, chunk_words, rng)
        ratio = (frozen_doc[chunk_docs, proposed] + alpha[proposed]) / (
            frozen_doc[chunk_docs, chunk_current] + alpha[chunk_current]
        )
        accept = rng.random(num_chunk) < ratio
        chunk_current = np.where(accept, proposed, chunk_current)
    current[start:stop] = chunk_current


def delayed_cycle_sweep(
    state,
    alpha: np.ndarray,
    alpha_sum: float,
    beta: float,
    beta_sum: float,
    num_mh_steps: int,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable] = None,
    threads: Optional[int] = None,
    chunk_tokens: Optional[int] = None,
) -> None:
    """One delayed-count LightLDA sweep over every token of the corpus.

    One "MH step" is a full cycle (doc-proposal move then word-proposal
    move), matching the scalar sampler's use of ``M``.  Mutates ``state`` in
    place.  The count structures are updated *incrementally* (old
    assignments subtracted, new ones added) rather than rebuilt, so imported
    AD-LDA global word-topic counts — which a rebuild would silently reduce
    to the shard-local contribution — survive the sweep exactly as they do
    on the scalar path.

    The token axis splits into ``chunk_tokens``-sized tasks (default
    :data:`CHUNK_TOKENS`) dispatched through :mod:`repro.kernels.pool` with
    per-chunk RNG streams; the chunking is independent of ``threads``, so the
    sweep is bit-identical for every thread count (though changing
    ``chunk_tokens`` itself selects a different — equally valid —
    trajectory).
    """
    corpus = state.corpus
    num_topics = state.num_topics
    num_tokens = corpus.num_tokens
    if num_tokens == 0:
        return
    if chunk_tokens is None:
        chunk_tokens = CHUNK_TOKENS
    if chunk_tokens <= 0:
        raise ValueError(f"chunk_tokens must be positive, got {chunk_tokens}")
    words = corpus.token_words
    docs = corpus.token_documents
    token_offset = corpus.doc_offsets[docs]
    token_length = corpus.document_lengths()[docs]

    frozen_assignments = state.assignments.copy()
    frozen_doc = state.doc_topic
    frozen_word = state.word_topic
    frozen_topic = state.topic_counts.astype(np.float64)
    # The frozen word-proposal table, shared by every token of a word.
    word_table = (frozen_word + beta) / (frozen_topic + beta_sum)
    word_cdf = prepare_table(word_table)

    current = frozen_assignments.copy()
    starts = list(range(0, num_tokens, chunk_tokens))
    chunk_rngs = pool.spawn_task_rngs(rng, len(starts))
    tasks = [
        partial(
            _sweep_chunk,
            current,
            start,
            min(start + chunk_tokens, num_tokens),
            frozen_assignments,
            frozen_doc,
            frozen_word,
            frozen_topic,
            word_cdf,
            words,
            docs,
            token_offset,
            token_length,
            alpha_sum,
            alpha,
            beta,
            beta_sum,
            num_topics,
            num_mh_steps,
            chunk_rngs[index],
            alpha_alias,
        )
        for index, start in enumerate(starts)
    ]
    pool.run_tasks(tasks, threads=threads, label="light.sweep")

    state.assignments[:] = current
    np.subtract.at(state.doc_topic, (docs, frozen_assignments), 1)
    np.add.at(state.doc_topic, (docs, current), 1)
    np.subtract.at(state.word_topic, (words, frozen_assignments), 1)
    np.add.at(state.word_topic, (words, current), 1)
    state.topic_counts += np.bincount(
        current, minlength=num_topics
    ) - np.bincount(frozen_assignments, minlength=num_topics)
