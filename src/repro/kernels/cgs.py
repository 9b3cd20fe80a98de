"""Blocked dense collapsed-Gibbs kernel (Eq. 1, batched).

Plain CGS enumerates the full conditional

    p(z = k | rest) ∝ (C_dk + α_k)(C_wk + β) / (C_k + β̄)        (Eq. 1)

per token, which costs a Python-interpreter iteration per token.  The blocked
kernel enumerates the conditional for a whole *document block* at once: one
``(T, K)`` weight matrix built from three fancy-indexed gathers, one
cumulative sum, one batched inverse-CDF draw, and one scatter of the count
deltas.

Semantics: the counts are **frozen at the start of each block** (each token
still excludes its own assignment — the ``¬dn`` superscript), so tokens
within a block do not see each other's updates.  This is the standard
delayed-count device (AD-LDA within a block; the same reordering argument as
WarpLDA's Sec. 4.2): the chain is statistically equivalent and targets the
same stationary distribution, but is not a bit-identical replay of the
sequential scan — the scalar path remains the oracle.

Threaded execution
------------------
Blocks are grouped into fixed **waves** (:func:`_wave_size` — a pure
function of the block count, never of the thread count).  Within a wave
every block runs as one :mod:`repro.kernels.pool` task: its documents (and
so its ``doc_topic`` rows and assignment slice) are exclusively its own and
mutate live, while the shared ``word_topic``/``topic_counts`` stay frozen at
wave entry — each block tracks its own updates in local copies and returns
them as count deltas, which the calling thread applies serially in block
order after the wave.  That is the AD-LDA delayed-count device at wave
granularity; with fewer than ``2 * MIN_WAVES`` blocks the wave size is 1 and
the sweep reduces to the previous strictly block-sequential semantics.
Per-block RNG streams are spawned once per sweep from the main generator
(:func:`repro.kernels.pool.spawn_task_rngs`), so results are bit-identical
for every thread count.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.kernels import pool
from repro.kernels.draws import row_categorical_draw

__all__ = ["block_conditionals", "blocked_gibbs_sweep"]

#: Cap on ``T * K`` float64 cells per block's weight matrix (~4 MB).
MAX_BLOCK_CELLS = 1 << 19

#: Default cap on tokens per block even when ``K`` is small.  Blocks are the
#: staleness unit of the delayed-count semantics: smaller blocks refresh the
#: counts more often (better per-iteration mixing), larger blocks amortise
#: more Python overhead.  2k tokens keeps per-block staleness negligible
#: while the per-block NumPy work still dwarfs the interpreter cost.
DEFAULT_BLOCK_TOKENS = 2048

#: Cap on blocks per wave (the concurrency the sweep exposes to the pool).
MAX_WAVE_BLOCKS = 8

#: Minimum number of waves per sweep: corpora with fewer than
#: ``2 * MIN_WAVES`` blocks run with wave size 1 (strictly sequential
#: blocks, the pre-threading semantics), so small-corpus trajectories keep
#: their per-block count freshness.
MIN_WAVES = 8


def _wave_size(num_blocks: int) -> int:
    """Blocks per wave — a pure function of the block count only.

    Never depends on the thread count: the wave structure (like the block
    structure) is part of the trajectory, which must be identical whether
    the wave's blocks run on one thread or eight.
    """
    return max(1, min(MAX_WAVE_BLOCKS, num_blocks // MIN_WAVES))


def block_conditionals(
    state,
    token_start: int,
    token_stop: int,
    alpha: np.ndarray,
    beta: float,
    beta_sum: float,
    word_rows: Optional[np.ndarray] = None,
    topic_counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unnormalised Eq. (1) conditionals for tokens ``[token_start, token_stop)``.

    Each row equals ``CollapsedGibbsSampler.conditional_distribution`` for the
    corresponding token, evaluated against the counts as they stand now (the
    token's own assignment excluded).  ``word_rows`` (pre-gathered per-token
    ``(T, K)`` word-topic rows) and ``topic_counts`` optionally substitute
    frozen copies for the word/topic factor.
    """
    corpus = state.corpus
    docs = corpus.token_documents[token_start:token_stop]
    words = corpus.token_words[token_start:token_stop]
    current = state.assignments[token_start:token_stop]
    topic_source = state.topic_counts if topic_counts is None else topic_counts

    doc_rows = state.doc_topic[docs].astype(np.float64)
    if word_rows is None:
        word_rows = state.word_topic[words].astype(np.float64)
    else:
        word_rows = word_rows.astype(np.float64)
    rows = np.arange(docs.size)
    doc_rows[rows, current] -= 1.0
    word_rows[rows, current] -= 1.0
    # Live counts include the token itself, so the exclusion cannot go
    # negative; block-frozen counts can (the token moved in an earlier
    # block), so clamp to keep every weight non-negative.
    np.maximum(doc_rows, 0.0, out=doc_rows)
    np.maximum(word_rows, 0.0, out=word_rows)
    numerator = (doc_rows + alpha) * (word_rows + beta)
    # The topic denominator differs from a plain broadcast of the global
    # vector only in the current-topic cell of each row, so fix that one
    # column instead of tiling a (T, K) copy.
    topic_row = topic_source.astype(np.float64)
    weights = numerator / (topic_row + beta_sum)
    excluded = np.maximum(topic_row[current] - 1.0, 0.0) + beta_sum
    weights[rows, current] = numerator[rows, current] / excluded
    return weights


def _plan_blocks(
    doc_offsets: np.ndarray, num_documents: int, max_block_tokens: int
) -> List[Tuple[int, int]]:
    """Contiguous document blocks of at most ``max_block_tokens`` tokens.

    A pure function of the corpus layout and the token cap — the block list
    (like the wave grouping built on it) never depends on the thread count.
    """
    blocks: List[Tuple[int, int]] = []
    doc_start = 0
    while doc_start < num_documents:
        doc_stop = doc_start + 1
        block_base = doc_offsets[doc_start]
        while (
            doc_stop < num_documents
            and doc_offsets[doc_stop + 1] - block_base <= max_block_tokens
        ):
            doc_stop += 1
        token_start, token_stop = int(block_base), int(doc_offsets[doc_stop])
        doc_start = doc_stop
        if token_start != token_stop:
            blocks.append((token_start, token_stop))
    return blocks


def _run_block(
    state,
    token_start: int,
    token_stop: int,
    alpha: np.ndarray,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    inner_passes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one block against wave-frozen word/topic counts (one pool task).

    Mutates ``state`` in place, but only its block-exclusive parts: the
    block's assignment slice and its documents' ``doc_topic`` rows (documents
    are contiguous and disjoint across blocks).  The shared
    ``word_topic``/``topic_counts`` are only read — each pass sees the
    wave-entry values plus this block's own updates, tracked in local copies
    — and the block's net contribution comes back as
    ``(unique_words, word_delta, topic_delta)`` for the caller to apply
    serially after the wave.
    """
    corpus = state.corpus
    num_topics = state.num_topics
    docs = corpus.token_documents[token_start:token_stop]
    words = corpus.token_words[token_start:token_stop]
    unique_words, inverse = np.unique(words, return_inverse=True)

    local_word = state.word_topic[unique_words].astype(np.float64)
    local_topic = state.topic_counts.astype(np.float64)
    initial = state.assignments[token_start:token_stop].copy()

    for _ in range(inner_passes):
        # Each pass folds this block's own earlier passes into the
        # wave-frozen word/topic counts.
        weights = block_conditionals(
            state,
            token_start,
            token_stop,
            alpha,
            beta,
            beta_sum,
            word_rows=local_word[inverse],
            topic_counts=local_topic,
        )
        new_topics = row_categorical_draw(weights, rng)

        old_topics = state.assignments[token_start:token_stop].copy()
        state.assignments[token_start:token_stop] = new_topics
        np.subtract.at(state.doc_topic, (docs, old_topics), 1)
        np.add.at(state.doc_topic, (docs, new_topics), 1)
        np.subtract.at(local_word, (inverse, old_topics), 1.0)
        np.add.at(local_word, (inverse, new_topics), 1.0)
        local_topic += np.bincount(
            new_topics, minlength=num_topics
        ) - np.bincount(old_topics, minlength=num_topics)

    final = state.assignments[token_start:token_stop]
    word_delta = np.zeros((unique_words.size, num_topics), dtype=np.int64)
    np.subtract.at(word_delta, (inverse, initial), 1)
    np.add.at(word_delta, (inverse, final), 1)
    topic_delta = np.bincount(final, minlength=num_topics) - np.bincount(
        initial, minlength=num_topics
    )
    return unique_words, word_delta, topic_delta


def blocked_gibbs_sweep(
    state,
    alpha: np.ndarray,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    max_block_tokens: Optional[int] = None,
    inner_passes: int = 2,
    threads: Optional[int] = None,
) -> None:
    """One full blocked-Gibbs sweep over the corpus, document blocks in order.

    Mutates ``state`` in place and leaves all three count structures
    consistent with the assignments (``TopicState.check_consistency`` holds
    after every wave).

    ``inner_passes`` re-enumerates and re-draws each block that many times,
    refreshing the block's counts between passes.  One pass is the pure
    delayed draw; the default of two restores most of the within-block
    feedback the sequential scan gets for free (a document's tokens
    coordinating onto a topic within one sweep costs sequential CGS nothing,
    but a frozen block cannot see it) at a small constant-factor cost — the
    per-iteration mixing then matches or beats the scalar scan.

    ``threads`` (per :func:`repro.kernels.pool.resolve_threads`) runs each
    wave's blocks concurrently; the wave structure and per-block RNG streams
    are thread-count-invariant, so the sweep is bit-identical for any value.
    """
    corpus = state.corpus
    num_topics = state.num_topics
    if max_block_tokens is None:
        max_block_tokens = max(1, min(DEFAULT_BLOCK_TOKENS, MAX_BLOCK_CELLS // num_topics))
    if max_block_tokens <= 0:
        raise ValueError(f"max_block_tokens must be positive, got {max_block_tokens}")
    if inner_passes <= 0:
        raise ValueError(f"inner_passes must be positive, got {inner_passes}")

    blocks = _plan_blocks(
        corpus.doc_offsets, corpus.num_documents, max_block_tokens
    )
    if not blocks:
        return
    block_rngs = pool.spawn_task_rngs(rng, len(blocks))
    wave = _wave_size(len(blocks))
    for wave_start in range(0, len(blocks), wave):
        wave_blocks = blocks[wave_start : wave_start + wave]
        tasks = [
            partial(
                _run_block,
                state,
                token_start,
                token_stop,
                alpha,
                beta,
                beta_sum,
                block_rngs[wave_start + offset],
                inner_passes,
            )
            for offset, (token_start, token_stop) in enumerate(wave_blocks)
        ]
        results = pool.run_tasks(tasks, threads=threads, label="cgs.wave")
        # Deltas apply serially, in block order, on the calling thread: the
        # shared word/topic counts advance only at wave boundaries.
        for unique_words, word_delta, topic_delta in results:
            state.word_topic[unique_words] += word_delta
            state.topic_counts += topic_delta
