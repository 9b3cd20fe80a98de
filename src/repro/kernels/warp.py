"""WarpLDA's two phases (Alg. 2) executed over slab buckets.

The scalar implementation in :mod:`repro.core.warplda` vectorises the tokens
*of one word* (or document) but still pays a Python-loop iteration per row —
O(V) + O(D) interpreter steps per iteration.  The kernels here run the same
computation for an entire length bucket at once:

* gather the bucket's current assignments into an ``(R, L)`` matrix,
* rebuild every row's delayed counts ``c_w`` / ``c_d`` on the fly (Sec. 4.2)
  into a per-row **slot table** (below),
* run the ``M``-step MH accept/reject chain of Eq. (7) as broadcast
  arithmetic over the whole matrix,
* draw the next phase's ``M`` proposals (Sec. 4.3: random positioning +
  prior mixture, or an exact draw from ``C_rk + prior`` via a batched
  inverse-CDF pass over freshly recomputed counts).

Because WarpLDA's counts are **delayed** for the duration of a phase, no
row's chain observes another row's in-phase updates — rows are independent
given the frozen global ``c_k`` — so slab-parallel execution produces a chain
with *identical* per-row transition kernels to the scalar path (only the
order in which the RNG streams are consumed differs).

What depends on K, and what does not
------------------------------------
The paper's claim is O(1) work per token whatever ``K`` is, with the random
accesses of a row confined to a hash table of capacity ``min(K, 2 L_d)``.
The chain only ever reads ``c[row, current]`` and ``c[row, proposed]``, so a
dense ``(R, K)`` histogram is never needed for it:

* **K-free** — the MH chain of both phases and the random-positioning
  proposals.  Counts live in an ``(R, W)`` slot table with ``W =``
  :func:`slot_table_width` ``= min(K, max(64, 2 L))``: topic ``t`` sits in
  slot ``t & (W - 1)``, an owner array says which topic holds each slot, and
  the few cells whose topic lost its slot go to a sorted overflow list that a
  lookup consults only for slots flagged contested (:func:`_slot_counts`).
  Counts are integers, so every Eq. (7) ratio is bit-equal to the dense
  histogram's; chunks are cut so ``R * W <= max_cells``, which makes the
  chunk list, the table sizes and the allocations the same at ``K = 2**14``
  and ``K = 2**20``.  The only K-long arrays touched are the shared
  ``stale_topic_counts`` and ``alpha``.  For ``K <= 64`` (and wherever
  ``2 L >= K``) ``W == K``: the table *is* the dense histogram, with no
  ownership check.
* **Inherently O(K) per row** — the exact word proposal (``word_proposal=
  "alias"``, and always when frozen ``external_word_topic`` counts are
  installed, i.e. the data-parallel trainer): it draws from ``q_word(k) ∝
  C_wk + β`` through a per-row CDF over all ``K`` topics, so it keeps the
  dense ``(R, K)`` table and the ``R * K <= max_cells`` row cap.

Elsewhere in the package ``repro.kernels.cgs`` (the blocked full conditional
is a ``(T, K)`` matrix by construction), ``repro.kernels.light`` (a frozen
``(V, K)`` word-proposal table) and the scalar oracle (a ``bincount`` of length ``K`` per
row) are O(K) by design; :func:`repro.evaluation.likelihood
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

When ``use_jit=True`` and numba is importable (:mod:`repro.kernels.jit`),
the per-chunk MH chain runs as one compiled ``nogil`` loop consuming the
same pre-drawn uniforms and the same pre-gathered count terms — it has no
``(R, K)`` input and runs on the very same chunks — bit-identical to the
NumPy chain, silently falling back to it when numba is absent.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.kernels import pool
from repro.kernels.buckets import MAX_SLAB_CELLS, MIN_SLOT_WIDTH, SlabBucket
from repro.kernels.draws import row_categorical_matrix
from repro.kernels.jit import jit_mh_chain
from repro.sampling.alias import AliasTable

__all__ = ["document_phase", "slot_table_width", "word_phase"]

#: One chunk's delayed per-row counts as the MH chain reads them: maps an
#: ``(R, L)`` topic matrix to ``c[row, topic]`` (float64, same shape), exact
#: for any topic, present in the row or not.
CountLookup = Callable[[np.ndarray], np.ndarray]


def slot_table_width(num_topics: int, slab_len: int) -> int:
    """Width ``W`` of the per-row count table for rows padded to ``slab_len``.

    A row of at most ``slab_len`` tokens holds at most ``slab_len`` distinct
    topics, so ``2 * slab_len`` slots (never fewer than
    :data:`~repro.kernels.buckets.MIN_SLOT_WIDTH`) keep collisions rare — the
    paper's hash table of capacity ``min(K, 2 * L_d)``.  ``W == K`` means the
    table is the dense histogram; otherwise ``W`` is a power of two (slab
    lengths are), which is what lets a topic's slot be ``topic & (W - 1)``.
    This is the one place the width is decided: the chunk cap, the table
    builder and the working-set model of ``bench_thread_scaling`` all call it.
    """
    return min(num_topics, max(MIN_SLOT_WIDTH, 2 * slab_len))


def _phase_chunks(
    buckets: List[SlabBucket],
    num_topics: int,
    max_cells: Optional[int],
    dense: bool = False,
) -> List[SlabBucket]:
    """The phase's task list: every bucket chunk, in bucket order.

    ``max_cells`` bounds both the ``R x L`` token matrix and (via the row
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


def _merge_chain_stats(chain_stats: Optional[dict], per_task: List[dict]) -> None:
    """Reduce per-task acceptance counters into the caller's accumulator.

    ``chain_stats`` is modified in place (its ``proposed``/``accepted``
    entries accumulate the per-task totals, in task order).
    """
    if chain_stats is None:
        return
    for stats in per_task:
        chain_stats["proposed"] += stats["proposed"]
        chain_stats["accepted"] += stats["accepted"]


def _row_counts(
    current: np.ndarray, mask: np.ndarray, num_topics: int
) -> np.ndarray:
    """Per-row topic histograms of an ``(R, L)`` assignment matrix."""
    num_rows = current.shape[0]
    keyed = current + np.arange(num_rows)[:, None] * num_topics
    counts = np.bincount(keyed[mask], minlength=num_rows * num_topics)
    return counts.reshape(num_rows, num_topics).astype(np.float64)


def _dense_counts(
    table: np.ndarray, current: np.ndarray
) -> Tuple[CountLookup, np.ndarray]:
    """Read counts straight out of a dense ``(R, K)`` histogram.

    Returns the lookup and the counts at ``current``, like :func:`_slot_counts`.
    """
    rows = np.arange(table.shape[0])[:, None]
    return (lambda topics: table[rows, topics]), table[rows, current]


def _slot_counts(
    current: np.ndarray, mask: np.ndarray, num_topics: int, width: int
) -> Tuple[CountLookup, np.ndarray]:
    """Exact per-row counts of an ``(R, L)`` chunk held in ``(R, width)`` cells.

    Topic ``t`` of row ``r`` lives in slot ``t & (width - 1)``; ``owner[r,
    slot]`` names the one topic of the row whose count the slot holds.  Cells
    whose topic lost its slot to another are counted in a sorted ``(row * K +
    topic)`` overflow list instead, and their slots are flagged contested, so
    a lookup pays for a ``searchsorted`` only where it misses the owner of a
    contested slot.  Every read is exact — the lookup equals
    ``_row_counts(...)[rows, topics]`` for any topics, present in the row or
    not — and nothing here has a ``K``-sized axis.  ``width == num_topics``
    is the dense histogram, with no ownership check.

    Returns the lookup and, since building the table has already found where
    every cell's own count lives, the counts at ``current`` itself (exact at
    the real cells, which is all the chain uses).
    """
    if width >= num_topics:
        return _dense_counts(_row_counts(current, mask, num_topics), current)
    num_rows = current.shape[0]
    rows = np.arange(num_rows)[:, None]
    slot = current & (width - 1)
    # Padding repeats the row's last real token, so every cell may claim.
    # Which of a slot's claimants wins is immaterial: the losers overflow.
    owner = np.full((num_rows, width), -1, dtype=current.dtype)
    owner[rows, slot] = current
    owned = owner[rows, slot] == current
    table = _row_counts(slot, mask & owned, width)
    lost_rows, lost_cols = np.nonzero(mask & ~owned)
    overflow_keys, lost_index, overflow_counts = np.unique(
        lost_rows * num_topics + current[lost_rows, lost_cols],
        return_inverse=True,
        return_counts=True,
    )
    contested = np.zeros((num_rows, width), dtype=bool)
    contested[lost_rows, slot[lost_rows, lost_cols]] = True
    count_current = table[rows, slot]
    count_current[lost_rows, lost_cols] = overflow_counts[lost_index]

    def lookup(topics: np.ndarray) -> np.ndarray:
        at = topics & (width - 1)
        hit = owner[rows, at] == topics
        counts = np.where(hit, table[rows, at], 0.0)
        missed = np.flatnonzero(contested[rows, at] & ~hit)
        if missed.size:
            keys = (missed // topics.shape[1]) * num_topics + topics.ravel()[missed]
            found = np.minimum(
                np.searchsorted(overflow_keys, keys), overflow_keys.size - 1
            )
            counts.ravel()[missed] = np.where(
                overflow_keys[found] == keys, overflow_counts[found], 0
            )
        return counts

    return lookup, count_current


def _run_chain(
    current: np.ndarray,
    count_current: np.ndarray,
    proposals: np.ndarray,
    tokens: np.ndarray,
    mask: np.ndarray,
    count_at: CountLookup,
    prior_of: Callable[[np.ndarray], Any],
    stale_topic_counts: np.ndarray,
    beta_sum: float,
    num_mh_steps: int,
    rng: np.random.Generator,
    chain_stats: Optional[dict] = None,
    compiled=None,
) -> np.ndarray:
    """Accept/reject the ``M`` stored proposals for one bucket chunk.

    Implements Eq. (7): ``π = min{1, (C_rt + prior_t)(C_s + β̄) /
    ((C_rs + prior_s)(C_t + β̄))}`` with ``C_r`` the row's delayed counts
    (``count_current`` at the incoming assignments, ``count_at`` for any
    other topic) and ``C`` the phase-frozen global topic counts.
    ``prior_of`` maps a topic matrix to its prior term (a constant β for the
    word phase, ``α[topic]`` for the document phase).

    The counts are delayed for the whole chain, so ``C_r + prior`` at the
    current topic is, after an accept, the term just computed for the
    proposal: it is carried forward with one select and the count table is
    read once per step, at the proposal only.

    With ``compiled`` (:func:`repro.kernels.jit.jit_mh_chain`) the same
    uniforms and the same terms — every step's gathered up front, through the
    same ``count_at`` — feed one fused loop, which therefore never sees a
    count table and is bit-identical to the NumPy steps below.

    ``chain_stats`` (telemetry only, ``None`` by default) is a mutable
    ``{"proposed": int, "accepted": int}`` accumulator for MH acceptance
    counting; it never touches the RNG stream, so instrumented and plain
    runs stay bit-identical.
    """
    uniforms = rng.random((num_mh_steps,) + current.shape)
    valid = int(np.count_nonzero(mask)) if chain_stats is not None else 0
    term_current = count_current + prior_of(current)
    if compiled is not None:
        proposed = proposals[:, tokens]
        accepted = compiled(
            current,
            proposed,
            mask,
            term_current,
            np.stack([count_at(topics) + prior_of(topics) for topics in proposed]),
            stale_topic_counts,
            float(beta_sum),
            uniforms,
        )
        if chain_stats is not None:
            chain_stats["proposed"] += valid * num_mh_steps
            chain_stats["accepted"] += int(accepted)
        return current
    for step in range(num_mh_steps):
        proposed = proposals[step][tokens]
        term_proposed = count_at(proposed) + prior_of(proposed)
        ratio = (term_proposed * (stale_topic_counts[current] + beta_sum)) / (
            term_current * (stale_topic_counts[proposed] + beta_sum)
        )
        accept = mask & (uniforms[step] < ratio)
        if chain_stats is not None:
            chain_stats["proposed"] += valid
            chain_stats["accepted"] += int(np.count_nonzero(accept))
        current = np.where(accept, proposed, current)
        if step + 1 < num_mh_steps:
            term_current = np.where(accept, term_proposed, term_current)
    return current


def _word_chunk(
    assignments: np.ndarray,
    proposals: np.ndarray,
    chunk: SlabBucket,
    stale_topic_counts: np.ndarray,
    num_topics: int,
    num_mh_steps: int,
    beta: float,
    beta_sum: float,
    rng: np.random.Generator,
    exact: bool,
    external_word_topic: Optional[np.ndarray],
    chain_stats: Optional[dict],
    compiled,
) -> None:
    """Word-phase body for one bucket chunk (one pool task).

    Mutates ``assignments`` (this chunk's tokens only — chunks are disjoint)
    and ``proposals`` (the same token columns) in place; every random draw
    comes from the task-local ``rng``.
    """
    tokens, mask, lengths = chunk.tokens, chunk.mask, chunk.lengths
    current = assignments[tokens]
    if exact:
        # The exact proposal draws from the whole histogram, so build it.
        word_counts = _row_counts(current, mask, num_topics)
        if external_word_topic is not None:
            word_counts += external_word_topic[chunk.rows]
        count_at, count_current = _dense_counts(word_counts, current)
    else:
        count_at, count_current = _slot_counts(
            current, mask, num_topics, slot_table_width(num_topics, chunk.slab_len)
        )

    current = _run_chain(
        current,
        count_current,
        proposals,
        tokens,
        mask,
        count_at,
        lambda topics: beta,
        stale_topic_counts,
        beta_sum,
        num_mh_steps,
        rng,
        chain_stats=chain_stats,
        compiled=compiled,
    )
    assignments[tokens[mask]] = current[mask]

    # Fresh c_w for the proposal distribution (Alg. 2 recomputes it
    # after the chain, before drawing q_word).
    flat_tokens = tokens[mask]
    if exact:
        fresh = _row_counts(current, mask, num_topics)
        if external_word_topic is not None:
            fresh += external_word_topic[chunk.rows]
        # One batched draw covers all M steps, so the per-row CDF is
        # prepared once instead of once per step.
        slab_len = chunk.slab_len
        drawn = row_categorical_matrix(fresh + beta, slab_len * num_mh_steps, rng)
        for step in range(num_mh_steps):
            block = drawn[:, step * slab_len : (step + 1) * slab_len]
            proposals[step, flat_tokens] = block[mask]
    else:
        word_weight = (lengths / (lengths + num_topics * beta))[:, None]
        for step in range(num_mh_steps):
            use_counts = rng.random(current.shape) < word_weight
            positions = rng.integers(0, lengths[:, None], size=current.shape)
            positioned = np.take_along_axis(current, positions, axis=1)
            uniform = rng.integers(num_topics, size=current.shape)
            drawn = np.where(use_counts, positioned, uniform)
            proposals[step, flat_tokens] = drawn[mask]


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
    use_jit: bool = False,
    max_cells: Optional[int] = None,
) -> None:
    """Word phase over word-axis buckets: accept doc proposals, draw word proposals.

    Mutates ``assignments`` and ``proposals`` in place.  ``stale_topic_counts``
    is the phase-frozen global ``c_k`` (float64, external shard counts already
    added).  ``exact_word_proposal`` selects the Sec. 4.3 alias strategy —
    an exact batched draw from ``q_word(k) ∝ C_wk + β`` — which is also forced
    whenever frozen ``external_word_topic`` counts are installed (random
    positioning cannot reach the other shards' tokens).

    Bucket chunks run as independent tasks on :mod:`repro.kernels.pool`
    (``threads`` per :func:`repro.kernels.pool.resolve_threads`), each with
    its own RNG stream spawned from ``rng`` — one main-stream draw per phase,
    so the trajectory is bit-identical for every thread count.  ``use_jit``
    swaps in the compiled chain of :mod:`repro.kernels.jit` when available;
    ``max_cells`` overrides the per-chunk working-set budget
    (:data:`~repro.kernels.buckets.MAX_SLAB_CELLS`).
    """
    exact = exact_word_proposal or external_word_topic is not None
    chunks = _phase_chunks(buckets, num_topics, max_cells, dense=exact)
    if not chunks:
        return
    compiled = jit_mh_chain() if use_jit else None
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _word_chunk,
            assignments,
            proposals,
            chunk,
            stale_topic_counts,
            num_topics,
            num_mh_steps,
            beta,
            beta_sum,
            task_rngs[index],
            exact,
            external_word_topic,
            per_task[index] if chain_stats is not None else None,
            compiled,
        )
        for index, chunk in enumerate(chunks)
    ]
    pool.run_tasks(tasks, threads=threads, label="warp.word")
    _merge_chain_stats(chain_stats, per_task)


def _document_chunk(
    assignments: np.ndarray,
    proposals: np.ndarray,
    chunk: SlabBucket,
    stale_topic_counts: np.ndarray,
    alpha: np.ndarray,
    alpha_sum: float,
    num_topics: int,
    num_mh_steps: int,
    beta_sum: float,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable],
    chain_stats: Optional[dict],
    compiled,
) -> None:
    """Document-phase body for one bucket chunk (one pool task).

    Mutates ``assignments`` (this chunk's tokens only — chunks are disjoint)
    and ``proposals`` (the same token columns) in place; every random draw
    comes from the task-local ``rng``.
    """
    tokens, mask, lengths = chunk.tokens, chunk.mask, chunk.lengths
    current = assignments[tokens]
    count_at, count_current = _slot_counts(
        current, mask, num_topics, slot_table_width(num_topics, chunk.slab_len)
    )

    current = _run_chain(
        current,
        count_current,
        proposals,
        tokens,
        mask,
        count_at,
        lambda topics: alpha[topics],
        stale_topic_counts,
        beta_sum,
        num_mh_steps,
        rng,
        chain_stats=chain_stats,
        compiled=compiled,
    )
    assignments[tokens[mask]] = current[mask]

    flat_tokens = tokens[mask]
    doc_weight = (lengths / (lengths + alpha_sum))[:, None]
    for step in range(num_mh_steps):
        use_counts = rng.random(current.shape) < doc_weight
        positions = rng.integers(0, lengths[:, None], size=current.shape)
        positioned = np.take_along_axis(current, positions, axis=1)
        if alpha_alias is None:
            prior = rng.integers(num_topics, size=current.shape)
        else:
            prior = alpha_alias.draw_many(current.size, rng).reshape(current.shape)
        drawn = np.where(use_counts, positioned, prior)
        proposals[step, flat_tokens] = drawn[mask]


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
    use_jit: bool = False,
    max_cells: Optional[int] = None,
) -> None:
    """Document phase over doc-axis buckets: accept word proposals, draw doc proposals.

    Symmetric to :func:`word_phase` with the document prior α in place of β;
    ``alpha_alias`` supplies the prior component of the mixture draw when α is
    asymmetric (``None`` means symmetric α, i.e. a uniform prior draw).
    Like :func:`word_phase`, mutates ``assignments`` and ``proposals`` in
    place (accepted moves and freshly drawn doc-phase proposals), dispatches
    bucket chunks through :mod:`repro.kernels.pool` with per-task RNG
    streams, and honours the same ``threads``/``use_jit``/``max_cells``
    knobs with the same bit-exact determinism contract.
    """
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    if not chunks:
        return
    compiled = jit_mh_chain() if use_jit else None
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    tasks = [
        partial(
            _document_chunk,
            assignments,
            proposals,
            chunk,
            stale_topic_counts,
            alpha,
            alpha_sum,
            num_topics,
            num_mh_steps,
            beta_sum,
            task_rngs[index],
            alpha_alias,
            per_task[index] if chain_stats is not None else None,
            compiled,
        )
        for index, chunk in enumerate(chunks)
    ]
    pool.run_tasks(tasks, threads=threads, label="warp.doc")
    _merge_chain_stats(chain_stats, per_task)
