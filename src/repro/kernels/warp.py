"""WarpLDA's two phases (Alg. 2) executed token-major over bucket chunks.

The scalar implementation in :mod:`repro.core.warplda` vectorises the tokens
*of one word* (or document) but still pays a Python-loop iteration per row —
O(V) + O(D) interpreter steps per iteration.  The kernel here runs the same
computation for a whole chunk of rows at once, over **the chunk's real tokens
only**: a chunk is flattened to its flat token indices
(:meth:`repro.kernels.buckets.SlabBucket.token_indices`, one ragged gather
through the axis order) plus a per-token local row id
(:func:`repro.kernels.proposals.token_layout`), and every array below
:func:`word_phase` / :func:`document_phase` is one-dimensional over those
tokens.  No padding exists to be gathered, drawn for or scattered.  Per chunk:

* gather the current assignments of the real tokens,
* rebuild every row's delayed counts ``c_w`` / ``c_d`` on the fly (Sec. 4.2)
  into a per-row **slot table** (below), keyed ``row * W + slot``,
* run the ``M``-step MH chain of Eq. (7) as ``accept ⇔ u · f(cur) < f(prop)``
  with ``f(t) = (C_rt + prior_t) · inv[t]`` and ``inv = 1 / (C_t + β̄)``
  computed once per phase — one table gather and one ``inv`` gather per step,
  ``f`` carried forward on accept,
* draw the next phase's ``M`` proposals with the one Sec. 4.3 draw the whole
  package shares (:func:`repro.kernels.proposals.positioning_mixture_proposal`).

Because WarpLDA's counts are **delayed** for the duration of a phase, no
row's chain observes another row's in-phase updates — rows are independent
given the frozen global ``c_k`` — so chunk-parallel execution produces a chain
with *identical* per-row transition kernels to the scalar path (only the
order in which the RNG streams are consumed differs).

What depends on K, and what does not
------------------------------------
The paper's claim is O(1) work per token whatever ``K`` is, with the random
accesses of a row confined to a hash table of capacity ``min(K, 2 L_d)``.
The chain only ever reads ``c[row, current]`` and ``c[row, proposed]``, so a
dense ``(R, K)`` histogram is never needed for it:

* **K-free per token** — the MH chain of both phases and the positioning
  mixture proposals.  Counts live in ``R * W`` slots with ``W =``
  :func:`slot_table_width` ``= min(K, max(64, 2 L))``: topic ``t`` of row
  ``r`` sits in slot ``r * W + (t & (W - 1))``, an owner array says which
  topic holds each slot, and the few tokens whose topic lost its slot go to a
  sorted overflow list that a lookup consults only for slots flagged
  contested (:func:`_slot_counts`).  Counts are integers, so every read is
  exactly the dense histogram's; chunks are cut so ``R * W <= max_cells``,
  which makes the chunk list, the table sizes and the allocations the same at
  ``K = 2**14`` and ``K = 2**20``.  The only K-long arrays touched are the
  shared ``stale_topic_counts`` (and its reciprocal) and ``alpha``.  For
  ``K <= 64`` (and wherever ``2 L >= K``) ``W == K``: the table *is* the
  dense histogram, with no ownership check.
* **Frozen external counts** (``external_word_topic``: every shard of the
  data-parallel trainer, every streaming batch once documents have retired)
  stay K-free per token: the chain reads ``slot lookup + E[word, topic]`` and
  the word proposal is the exact three-component mixture ``q(k) ∝ C_wk^local
  + E_wk + β`` — random positioning, a draw from the installed table's CDF,
  or uniform.  The CDF is one O(VK) pass per installed table
  (:func:`external_proposal_table`), not per row or per phase.
* **Inherently O(K) per row** — only the explicit exact word proposal
  (``word_proposal="alias"``): it draws from ``q_word(k) ∝ C_wk + β`` through
  a per-row CDF over all ``K`` topics, so it keeps a dense ``R * K`` table
  and the ``R * K <= max_cells`` row cap.

Elsewhere in the package ``repro.kernels.cgs`` (the blocked full conditional
is a ``(T, K)`` matrix by construction) and the scalar oracle (a ``bincount``
of length ``K`` per row) are O(K) by design; :func:`repro.evaluation.likelihood
.log_joint_likelihood_from_assignments` is K-free.

Threaded execution
------------------
Each phase decomposes into **bucket chunks** (``SlabBucket.chunks``), whose
writes target disjoint token sets and whose shared reads (``assignments`` at
gather time, the frozen ``stale_topic_counts``/``external_word_topic``) are
fixed for the phase.  The chunks are dispatched through
:mod:`repro.kernels.pool`, each consuming its own generator spawned from the
phase RNG (:func:`repro.kernels.pool.spawn_task_rngs`), so the result is
bit-identical for every thread count — ``threads=1`` simply runs the same
tasks inline.  The chunk list is a pure function of the corpus, the table
width (so of ``K`` only while ``K < max(64, 2 L)``), the proposal kind and
``max_cells``; it never depends on the thread count.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.kernels import pool
from repro.kernels.buckets import MAX_SLAB_CELLS, MIN_SLOT_WIDTH, SlabBucket
from repro.kernels.draws import prepare_table, table_categorical_draws
from repro.kernels.proposals import positioning_mixture_proposal, token_layout
from repro.sampling.alias import AliasTable

__all__ = [
    "document_phase",
    "external_proposal_table",
    "slot_table_width",
    "word_phase",
]

#: One chunk's delayed per-row counts as the MH chain reads them: maps one
#: topic per real token of the chunk to ``c[row of the token, topic]``
#: (float64), exact for any topic, present in the row or not.
CountLookup = Callable[[np.ndarray], np.ndarray]


def slot_table_width(num_topics: int, slab_len: int) -> int:
    """Width ``W`` of the per-row count table for rows of the ``slab_len`` band.

    A row of at most ``slab_len`` tokens holds at most ``slab_len`` distinct
    topics, so ``2 * slab_len`` slots (never fewer than
    :data:`~repro.kernels.buckets.MIN_SLOT_WIDTH`) keep collisions rare — the
    paper's hash table of capacity ``min(K, 2 * L_d)``.  ``W == K`` means the
    table is the dense histogram; otherwise ``W`` is a power of two (slab
    lengths are), which is what lets a topic's slot be ``topic & (W - 1)``.
    This is the one place the width is decided: the chunk cap and the table
    builder both call it.
    """
    return min(num_topics, max(MIN_SLOT_WIDTH, 2 * slab_len))


def _phase_chunks(
    buckets: List[SlabBucket],
    num_topics: int,
    max_cells: Optional[int],
    dense: bool = False,
) -> List[SlabBucket]:
    """The phase's task list: every bucket chunk, in bucket order.

    ``max_cells`` bounds both the ``R x L`` band cells and (via the row
    cap) the ``R x W`` per-row count table — the slab working-set knob the
    cache-analysis bench turns.  ``W`` is :func:`slot_table_width` of the
    bucket, or ``K`` when ``dense`` (the exact word proposal needs the whole
    histogram).  The decomposition depends only on the buckets, ``K``,
    ``dense`` and ``max_cells``, never on the thread count: that is what
    makes the per-task RNG streams (and so the whole trajectory)
    thread-count-invariant.
    """
    if max_cells is None:
        max_cells = MAX_SLAB_CELLS
    chunks: List[SlabBucket] = []
    for bucket in buckets:
        width = (
            num_topics if dense else slot_table_width(num_topics, bucket.slab_len)
        )
        max_rows = max(1, max_cells // max(1, width))
        chunks.extend(bucket.chunks(max_cells=max_cells, max_rows=max_rows))
    return chunks


def external_proposal_table(
    external_word_topic: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The proposal side of a frozen ``(V, K)`` external count table.

    Returns its :func:`~repro.kernels.draws.prepare_table` CDF and the
    per-word mass ``E_w``: what the three-component word proposal draws from
    and weighs.  One O(VK) pass, so callers that keep a table installed for
    several phases (``WarpLDA.set_external_counts``) build it once and hand
    it to :func:`word_phase`.
    """
    mass = external_word_topic.sum(axis=1).astype(np.float64)
    return prepare_table(external_word_topic), mass


def _slot_counts(
    current: np.ndarray, row: np.ndarray, num_rows: int, num_topics: int, width: int
) -> Tuple[CountLookup, np.ndarray]:
    """Exact per-row counts of a chunk's real tokens in ``num_rows * width`` cells.

    ``current`` and ``row`` hold one topic and one local row id per token.
    Topic ``t`` of row ``r`` lives in slot ``r * width + (t & (width - 1))``;
    ``owner[slot]`` names the one topic of the row whose count the slot holds.
    Tokens whose topic lost its slot to another are counted in a sorted
    ``(row * K + topic)`` overflow list instead, and their slots are flagged
    contested, so a lookup pays for a ``searchsorted`` only where it misses
    the owner of a contested slot.  Every read is exact — the lookup equals
    the dense histogram at ``(row, topic)`` for any topics, present in the
    row or not — and nothing here has a ``K``-sized axis.  ``width ==
    num_topics`` is the dense histogram, with no ownership check.

    Returns the lookup and, since building the table has already found where
    every token's own count lives, the counts at ``current`` itself.
    """
    if width >= num_topics:
        base = row * num_topics
        dense = np.bincount(base + current, minlength=num_rows * num_topics).astype(
            np.float64
        )
        return (lambda topics: dense.take(base + topics)), dense.take(base + current)
    base = row * width
    slot = base + (current & (width - 1))
    # Which of a slot's claimants wins is immaterial: the losers overflow.
    owner = np.full(num_rows * width, -1, dtype=current.dtype)
    owner[slot] = current
    owned = owner[slot] == current
    lost = np.flatnonzero(~owned)
    table = np.bincount(slot[owned], minlength=owner.size).astype(np.float64)
    overflow_keys, lost_index, overflow_counts = np.unique(
        row[lost] * num_topics + current[lost], return_inverse=True, return_counts=True
    )
    contested = np.zeros(owner.size, dtype=bool)
    contested[slot[lost]] = True
    count_current = table[slot]
    count_current[lost] = overflow_counts[lost_index]

    def lookup(topics: np.ndarray) -> np.ndarray:
        at = base + (topics & (width - 1))
        hit = owner[at] == topics
        counts = np.where(hit, table[at], 0.0)
        missed = np.flatnonzero(contested[at] & ~hit)
        if missed.size:
            keys = row[missed] * num_topics + topics[missed]
            found = np.minimum(
                np.searchsorted(overflow_keys, keys), overflow_keys.size - 1
            )
            counts[missed] = np.where(
                overflow_keys[found] == keys, overflow_counts[found], 0
            )
        return counts

    return lookup, count_current


def _topic_inv(stale_topic_counts: np.ndarray, beta_sum: float) -> np.ndarray:
    """``1 / (C_k + β̄)``, the phase's one K-long allocation."""
    inv = stale_topic_counts + beta_sum
    return np.reciprocal(inv, out=inv)


def _external_counts(
    external_word_topic: np.ndarray, token_words: np.ndarray
) -> CountLookup:
    """Frozen external counts ``E[word of the token, topic]``, one gather per read."""
    flat = external_word_topic.reshape(-1)
    base = token_words * external_word_topic.shape[1]
    return lambda topics: flat.take(base + topics)


def _run_chain(
    current: np.ndarray,
    f_current: np.ndarray,
    proposed: np.ndarray,
    f_at: CountLookup,
    rng: np.random.Generator,
    chain_stats: Optional[dict] = None,
) -> None:
    """Accept/reject the ``M`` stored proposals of one chunk, in place.

    Implements Eq. (7): ``π = min{1, (C_rt + prior_t)(C_s + β̄) /
    ((C_rs + prior_s)(C_t + β̄))}`` as ``u · f(s) < f(t)`` with ``f(k) =
    (C_rk + prior_k) / (C_k + β̄)``: ``f_current`` is ``f`` at the incoming
    assignments ``current`` (both ``(n,)``, both updated in place), ``f_at``
    evaluates it at any other topic per token, ``proposed`` is ``(M, n)``.

    The counts are delayed for the whole chain, so ``f`` at the current topic
    is, after an accept, the value just computed for the proposal: it is
    carried forward and the count table is read once per step, at the
    proposal only.

    ``chain_stats`` (telemetry only, ``None`` by default) is a mutable
    ``{"proposed": int, "accepted": int}`` accumulator for MH acceptance
    counting; it never touches the RNG stream, so instrumented and plain
    runs stay bit-identical.
    """
    uniforms = rng.random(proposed.shape)
    accepted = 0
    for step_uniforms, topics in zip(uniforms, proposed):
        f_proposed = f_at(topics)
        moved = np.flatnonzero(step_uniforms * f_current < f_proposed)
        current[moved] = topics.take(moved)
        f_current[moved] = f_proposed.take(moved)
        accepted += moved.size
    if chain_stats is not None:
        chain_stats["proposed"] += proposed.size
        chain_stats["accepted"] += accepted


def _chunk_body(
    assignments: np.ndarray,
    proposals: np.ndarray,
    topic_inv: np.ndarray,
    prior: Union[float, np.ndarray],
    prior_mass: float,
    num_topics: int,
    alpha_alias: Optional[AliasTable],
    exact: bool,
    external: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    chunk: SlabBucket,
    rng: np.random.Generator,
    chain_stats: Optional[dict],
) -> None:
    """Either phase's body for one bucket chunk (one pool task).

    ``prior`` is β (word phase) or the α vector (document phase),
    ``prior_mass`` its total over the topics; ``external`` is the frozen
    ``(table, cdf, mass)`` of the other shards' word-topic counts.  Mutates
    ``assignments`` (this chunk's tokens only — chunks are disjoint) and
    ``proposals`` (the same token columns) in place; every random draw comes
    from the task-local ``rng``.  The flat view of the chunk is rebuilt here
    on every call rather than cached: it is cheap next to the chain and a
    cache would hold a second copy of the corpus index.
    """
    layout = token_layout(chunk.lengths)
    _, row, token_offset, token_length = layout
    flat = chunk.token_indices(layout)
    current = assignments.take(flat)
    width = num_topics if exact else slot_table_width(num_topics, chunk.slab_len)
    count_at, count_current = _slot_counts(
        current, row, chunk.num_rows, num_topics, width
    )
    if external is not None:
        external_table, external_cdf, external_mass = external
        token_words = chunk.rows[row]
        external_at = _external_counts(external_table, token_words)

    def target(counts: np.ndarray, topics: np.ndarray) -> np.ndarray:
        """``f = (C_r + prior) / (C + β̄)`` at ``topics``, given the row counts there."""
        if external is not None:
            counts = counts + external_at(topics)
        here = prior.take(topics) if np.ndim(prior) else prior
        return (counts + here) * topic_inv.take(topics)

    _run_chain(
        current,
        target(count_current, current),
        proposals.take(flat, axis=1),
        lambda topics: target(count_at(topics), topics),
        rng,
        chain_stats=chain_stats,
    )
    assignments[flat] = current

    # Fresh counts for the proposal distribution (Alg. 2 recomputes them
    # after the chain): random positioning reads them off ``current`` itself.
    if exact:
        fresh = np.bincount(
            row * num_topics + current, minlength=chunk.num_rows * num_topics
        ).reshape(chunk.num_rows, num_topics)
        if external is not None:
            fresh = fresh + external_table[chunk.rows]
        cdf = prepare_table(fresh + prior)
        for step in range(proposals.shape[0]):
            proposals[step][flat] = table_categorical_draws(cdf, num_topics, row, rng)
        return
    table = None
    if external is not None:
        table = (external_cdf, token_words, external_mass[token_words])
    for step in range(proposals.shape[0]):
        proposals[step][flat] = positioning_mixture_proposal(
            current, token_offset, token_length, prior_mass, num_topics, rng,
            alpha_alias=alpha_alias, table=table,
        )  # fmt: skip


def _run_phase(
    label: str,
    chunks: List[SlabBucket],
    body: Callable[[SlabBucket, np.random.Generator, Optional[dict]], None],
    rng: np.random.Generator,
    chain_stats: Optional[dict],
    threads: Optional[int],
) -> None:
    """Dispatch ``body`` over the phase's chunks, one spawned RNG stream each.

    ``chain_stats`` is modified in place: its ``proposed``/``accepted``
    entries accumulate the per-task totals.
    """
    if not chunks:
        return
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(body, chunk, task_rng, stats if chain_stats is not None else None)
        for chunk, task_rng, stats in zip(chunks, task_rngs, per_task)
    ]
    pool.run_tasks(tasks, threads=threads, label=label)
    if chain_stats is not None:
        for stats in per_task:  # in task order
            chain_stats["proposed"] += stats["proposed"]
            chain_stats["accepted"] += stats["accepted"]


def word_phase(
    assignments: np.ndarray,
    proposals: np.ndarray,
    buckets: List[SlabBucket],
    stale_topic_counts: np.ndarray,
    num_topics: int,
    num_mh_steps: int,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    exact_word_proposal: bool = False,
    external_word_topic: Optional[np.ndarray] = None,
    chain_stats: Optional[dict] = None,
    threads: Optional[int] = None,
    max_cells: Optional[int] = None,
    external_proposal: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> None:
    """Word phase over word-axis buckets: accept doc proposals, draw word proposals.

    Mutates ``assignments`` and ``proposals`` in place.  ``stale_topic_counts``
    is the phase-frozen global ``c_k`` (float64, external shard counts already
    added).  With frozen ``external_word_topic`` counts installed the chain
    reads ``C_wk^local + E_wk`` and the proposal gains a third component, a
    draw from the table's CDF (random positioning cannot reach the other
    shards' tokens); ``external_proposal`` is that table's
    :func:`external_proposal_table`, built here when the caller has not kept
    one.  ``exact_word_proposal`` selects the Sec. 4.3 alias strategy instead
    — an exact per-row draw from ``q_word(k) ∝ C_wk + β``.

    Bucket chunks run as independent tasks on :mod:`repro.kernels.pool`
    (``threads`` per :func:`repro.kernels.pool.resolve_threads`), each with
    its own RNG stream spawned from ``rng`` — one main-stream draw per phase,
    so the trajectory is bit-identical for every thread count.
    ``max_cells`` overrides the per-chunk working-set budget
    (:data:`~repro.kernels.buckets.MAX_SLAB_CELLS`).
    """
    external = None
    if external_word_topic is not None:
        if external_proposal is None:
            external_proposal = external_proposal_table(external_word_topic)
        external = (external_word_topic, *external_proposal)
    body = partial(
        _chunk_body,
        assignments,
        proposals[:num_mh_steps],
        _topic_inv(stale_topic_counts, beta_sum),
        beta,
        num_topics * beta,
        num_topics,
        None,
        exact_word_proposal,
        external,
    )
    chunks = _phase_chunks(buckets, num_topics, max_cells, dense=exact_word_proposal)
    _run_phase("warp.word", chunks, body, rng, chain_stats, threads)


def document_phase(
    assignments: np.ndarray,
    proposals: np.ndarray,
    buckets: List[SlabBucket],
    stale_topic_counts: np.ndarray,
    alpha: np.ndarray,
    alpha_sum: float,
    num_topics: int,
    num_mh_steps: int,
    beta_sum: float,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable] = None,
    chain_stats: Optional[dict] = None,
    threads: Optional[int] = None,
    max_cells: Optional[int] = None,
) -> None:
    """Document phase over doc-axis buckets: accept word proposals, draw doc proposals.

    Symmetric to :func:`word_phase` with the document prior α in place of β;
    ``alpha_alias`` supplies the prior component of the mixture draw when α is
    asymmetric (``None`` means symmetric α, i.e. a uniform prior draw).
    Like :func:`word_phase`, mutates ``assignments`` and ``proposals`` in
    place (accepted moves and freshly drawn doc-phase proposals), dispatches
    bucket chunks through :mod:`repro.kernels.pool` with per-task RNG
    streams, and honours the same ``threads``/``max_cells``
    knobs with the same bit-exact determinism contract.
    """
    body = partial(
        _chunk_body,
        assignments,
        proposals[:num_mh_steps],
        _topic_inv(stale_topic_counts, beta_sum),
        alpha,
        alpha_sum,
        num_topics,
        alpha_alias,
        False,
        None,
    )
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    _run_phase("warp.doc", chunks, body, rng, chain_stats, threads)
