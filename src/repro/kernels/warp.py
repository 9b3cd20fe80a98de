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
  ``r`` hashes to slot ``r * W + (t & (W - 1))``, whose one cell (int32
  up to ``K = 2**16``) packs the owning topic and its count, so a read is
  one gather.  The tokens whose topic lost its slot are hashed again into a
  second level (``t ^ (t >> log2 W)``), and the few that lose twice go to a
  sorted list; a lookup goes down a level only where it missed a slot
  flagged contested (:func:`_slot_counts`).  The cells are a workspace owned by the phase,
  one per running task, that a chunk claims and releases slot by slot: the
  build costs O(tokens), not O(``R * W``), and nothing is allocated per
  chunk along the table.  Counts are integers, so every read is exactly the
  dense histogram's; chunks are cut so ``R * W <= max_cells``, which makes
  the chunk list, the table sizes and the allocations the same at ``K =
  2**14`` and ``K = 2**20``.  The only K-long arrays touched are the shared
  ``stale_topic_counts`` (and its reciprocal) and ``alpha``.  For ``K <=
  64`` (and wherever ``2 L >= K``) ``W == K``: the table *is* the dense
  histogram, one ``bincount``, with no ownership check.
* **Frozen external counts** (``external_word_topic``: every shard of the
  data-parallel trainer, every streaming batch once documents have retired)
  stay O(1) per token: the chain reads ``slot lookup + E[word, topic]`` and
  the word proposal is the exact three-component mixture ``q(k) ∝ C_wk^local
  + E_wk + β`` — random positioning over the word's tokens, over its
  ``E_w`` pseudo-tokens (:func:`external_proposal_table`: ``ΣE`` ints and
  ``V + 1`` offsets, built once per installed table; ``ΣE`` can exceed
  ``V·K`` in a long ``decay=1`` stream), or uniform.  One uniform picks the
  component and the position, so a table draw is one gather, with no search.

Only the scalar oracle (a ``bincount`` of length ``K`` per row) is O(K)
by design; :func:`repro.evaluation.likelihood
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
width (so of ``K`` only while ``K < max(64, 2 L)``) and ``max_cells``; it
never depends on the thread count.
"""

from __future__ import annotations

import queue
from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.kernels import pool
from repro.kernels.buckets import MAX_SLAB_CELLS, MIN_SLOT_WIDTH, SlabBucket
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
#: (float64 or integer), exact for any topic, present in the row or not.
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
) -> List[SlabBucket]:
    """The phase's task list: every bucket chunk, in bucket order.

    ``max_cells`` bounds both the ``R x L`` band cells and (via the row
    cap) the ``R x W`` per-row count table — the slab working-set knob the
    cache-analysis bench turns.  ``W`` is :func:`slot_table_width` of the
    bucket.  The decomposition depends only on the buckets, ``K`` and
    ``max_cells``, never on the thread count: that is what makes the
    per-task RNG streams (and so the whole trajectory) thread-count-invariant.
    """
    if max_cells is None:
        max_cells = MAX_SLAB_CELLS
    chunks: List[SlabBucket] = []
    for bucket in buckets:
        width = slot_table_width(num_topics, bucket.slab_len)
        max_rows = max(1, max_cells // max(1, width))
        chunks.extend(bucket.chunks(max_cells=max_cells, max_rows=max_rows))
    return chunks


def external_proposal_table(
    external_word_topic: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The proposal side of a frozen ``(V, K)`` external count table.

    Returns ``(topics, offsets)``: the table as word-sorted pseudo-tokens —
    every non-zero cell ``(w, k)`` contributes topic ``k`` ``E_wk`` times —
    and the ``V + 1`` cumulative sums of ``E_w``, so word ``w``'s
    pseudo-tokens are ``topics[offsets[w]:offsets[w + 1]]`` (empty for a
    word of zero mass).  A uniformly random one of them is an exact draw
    from ``E_w· / E_w``, the third component of the word proposal.  Callers
    that keep a table installed for several phases (``WarpLDA``) build this
    once and hand it to :func:`word_phase`.
    """
    num_words, num_topics = external_word_topic.shape
    offsets = np.zeros(num_words + 1, dtype=np.int64)
    np.cumsum(external_word_topic.sum(axis=1), out=offsets[1:])
    topics = np.empty(int(offsets[-1]), dtype=np.min_scalar_type(num_topics - 1))
    # Rows are scanned a block at a time through a bool mask (cheaper to scan
    # than the int64 cells), the block about ΣE + V cells, so the scratch
    # stays O(ΣE + V) however many of the V·K cells are zero.
    block = max(1, (topics.size + num_words) // max(1, num_topics))
    for start in range(0, num_words, block):
        rows = external_word_topic[start : start + block].reshape(-1)
        cells = np.flatnonzero(rows != 0)
        topics[offsets[start] : offsets[min(start + block, num_words)]] = np.repeat(
            cells % num_topics, rows.take(cells)
        )
    return topics, offsets


class _SlotWorkspace:
    """Reusable cells for the slot tables of one running task.

    Two levels of ``cells`` slots.  A slot's cell packs the topic that owns
    it (the high bits, ``-1`` if the slot is free) and that topic's count in
    the row (the low ``shift`` bits), so one gather reads both; a
    ``contested`` flag per slot says some other topic of the row hashed
    there and lost.  A narrow table's rows are shorter than ``K / 2``, so
    for ``K <= 2**16`` a 16-bit topic and a 15-bit count fit an int32 cell
    (half the bytes to gather and scatter); above, an int64 cell holds
    topics up to ``2**31``.

    A build writes only the slots its tokens hash to and :meth:`release`
    clears exactly those again, so building a chunk costs O(tokens), not
    O(``R * W``), and the arrays are allocated once per phase and task
    instead of once per chunk.  ``cells`` is the largest ``R * W`` of the
    phase's narrow chunks — at most ``max_cells`` unless one row is wider —
    whatever ``K`` is.  A workspace serves one chunk at a time: the lookup
    of a chunk is valid until :meth:`release`.
    """

    LEVELS = 2

    def __init__(self, cells: int, num_topics: int) -> None:
        if num_topics > 1 << 31:
            raise ValueError(f"slot tables hold topics below 2**31, got K = {num_topics}")
        dtype, self.shift = (np.int32, 15) if num_topics <= 1 << 16 else (np.int64, 32)
        self.count_mask = (1 << self.shift) - 1
        self.one = dtype(1)
        self.cell = np.full((self.LEVELS, cells), -1, dtype=dtype)
        self.contested = np.zeros((self.LEVELS, cells), dtype=bool)
        self._touched: List[Tuple[int, np.ndarray, np.ndarray]] = []

    def claim(self, level: int, slot: np.ndarray, topics: np.ndarray) -> np.ndarray:
        """Count ``topics`` into ``slot`` of ``level``; returns the losers' indices.

        Every slot ends up owned by one of the topics hashed to it, with that
        topic's exact count; the tokens of the other topics lose, and their
        slots are flagged contested.  Which claimant wins is immaterial.
        """
        cell = self.cell[level]
        claimed = (topics << self.shift).astype(cell.dtype, copy=False)
        cell[slot] = claimed
        lost = np.flatnonzero(cell.take(slot) != claimed)
        np.add.at(cell, slot, self.one)
        lost_slot = slot.take(lost)
        if lost.size:
            np.subtract.at(cell, lost_slot, self.one)
            self.contested[level][lost_slot] = True
        self._touched.append((level, slot, lost_slot))
        return lost

    def counts(self, level: int, slot: np.ndarray) -> np.ndarray:
        """The counts held in ``slot`` of ``level`` (whichever topic owns them)."""
        return self.cell[level].take(slot) & self.count_mask

    def read(
        self, level: int, at: np.ndarray, topics: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Counts of ``topics`` at slots ``at`` of ``level``, and which to look up deeper.

        A topic that owns its slot reads its count, any other reads 0, which
        is exact unless the slot is contested: the topic may then have lost
        it, so the second returned array names the reads to repeat one level
        down.
        """
        cell = self.cell[level].take(at)
        hit = cell >> self.shift == topics.astype(cell.dtype, copy=False)
        counts = np.where(hit, cell & self.count_mask, 0)
        deeper = np.flatnonzero(self.contested[level].take(at) > hit)  # and not hit
        return counts, deeper

    def release(self) -> None:
        """Free every slot the current chunk claimed, for the next chunk."""
        for level, slot, lost_slot in self._touched:
            self.cell[level][slot] = -1
            self.contested[level][lost_slot] = False
        self._touched.clear()


def _workspace_cells(chunks: List[SlabBucket], num_topics: int) -> int:
    """Slots a :class:`_SlotWorkspace` needs for the narrow (``W < K``) chunks."""
    cells = [
        chunk.num_rows * width
        for chunk in chunks
        if (width := slot_table_width(num_topics, chunk.slab_len)) < num_topics
    ]
    return max(cells, default=0)


def _slot_counts(
    current: np.ndarray,
    row: np.ndarray,
    num_rows: int,
    num_topics: int,
    width: int,
    workspace: Optional[_SlotWorkspace] = None,
) -> Tuple[CountLookup, np.ndarray]:
    """Exact per-row counts of a chunk's real tokens, in ``num_rows * width`` slots.

    ``current`` and ``row`` hold one topic and one local row id per token.
    ``width == num_topics`` is the dense ``(R, K)`` histogram (one
    ``bincount``).  Otherwise topic ``t`` of row ``r`` is hashed to slot
    ``r * width + (t & (width - 1))`` of the first level of ``workspace``
    (:meth:`_SlotWorkspace.claim`, which claims and later releases only the
    slots the tokens touch); the tokens whose topic lost its slot are
    claimed again in the second level at ``r * width + ((t ^ (t >> log2
    width)) & (width - 1))`` — topics congruent mod ``width`` spread out
    there — and the few that lose twice are counted in a sorted ``(row * K +
    topic)`` list.  A lookup reads the first level, goes down a level only
    where it missed a contested slot, and searches the list only where it
    missed a contested second-level slot.

    Every read is exact — the lookup, given one topic per token, equals the
    dense histogram at ``(row of the token, topic)`` for any topics, present
    in the row or not — and nothing here has a ``K``-sized axis.  Counts are
    float64 from the dense histogram and integers from a narrow table (int32
    cells for ``K <= 2**16``), which needs ``K <= 2**31``.  ``workspace``
    defaults to a private one; a caller that passes its own releases it
    (:meth:`_SlotWorkspace.release`) once the lookup is no longer needed.

    Returns the lookup and, since building the table has already found where
    every token's own count lives, the counts at ``current`` itself.
    """
    if width >= num_topics:
        base = row * num_topics
        dense = np.bincount(base + current, minlength=num_rows * num_topics).astype(
            np.float64
        )
        return (lambda topics: dense.take(base + topics)), dense.take(base + current)
    if workspace is None:
        workspace = _SlotWorkspace(num_rows * width, num_topics)
    mask = width - 1
    shift = width.bit_length() - 1
    base = row * width

    def second_slot(which: np.ndarray, topics: np.ndarray) -> np.ndarray:
        return base.take(which) + ((topics ^ (topics >> shift)) & mask)

    slot = current & mask
    slot += base
    lost = workspace.claim(0, slot, current)
    count_current = workspace.counts(0, slot)
    overflow_keys = overflow_counts = None
    if lost.size:
        lost_topics = current.take(lost)
        lost_slot = second_slot(lost, lost_topics)
        lost_twice = workspace.claim(1, lost_slot, lost_topics)
        lost_counts = workspace.counts(1, lost_slot)
        if lost_twice.size:
            overflow_keys, inverse, overflow_counts = np.unique(
                row.take(lost.take(lost_twice)) * num_topics
                + lost_topics.take(lost_twice),
                return_inverse=True,
                return_counts=True,
            )
            lost_counts[lost_twice] = overflow_counts.take(inverse)
        count_current[lost] = lost_counts

    def lookup(topics: np.ndarray) -> np.ndarray:
        at = topics & mask
        at += base
        counts, deeper = workspace.read(0, at, topics)
        if deeper.size:
            deep_topics = topics.take(deeper)
            deep_counts, deepest = workspace.read(
                1, second_slot(deeper, deep_topics), deep_topics
            )
            if deepest.size:
                keys = row.take(deeper.take(deepest)) * num_topics + deep_topics.take(
                    deepest
                )
                found = np.minimum(
                    np.searchsorted(overflow_keys, keys), overflow_keys.size - 1
                )
                deep_counts[deepest] = np.where(
                    overflow_keys.take(found) == keys, overflow_counts.take(found), 0
                )
            counts[deeper] = deep_counts
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
    external: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    chunk: SlabBucket,
    rng: np.random.Generator,
    chain_stats: Optional[dict],
    workspace: _SlotWorkspace,
) -> None:
    """Either phase's body for one bucket chunk (one pool task).

    ``prior`` is β (word phase) or the α vector (document phase),
    ``prior_mass`` its total over the topics; ``external`` is the frozen
    ``(table, topics, offsets)`` of the other shards' word-topic counts
    (the table and its :func:`external_proposal_table`).  Mutates
    ``assignments`` (this chunk's tokens only — chunks are disjoint) and
    ``proposals`` (the same token columns) in place; every random draw comes
    from the task-local ``rng``; ``workspace`` holds the chunk's slot table
    and is released again before the call returns.  The flat view of the
    chunk is rebuilt here on every call rather than cached: it is cheap next
    to the chain and a cache would hold a second copy of the corpus index.
    """
    layout = token_layout(chunk.lengths)
    _, row, token_offset, token_length = layout
    flat = chunk.token_indices(layout)
    current = assignments.take(flat)
    width = slot_table_width(num_topics, chunk.slab_len)
    count_at, count_current = _slot_counts(
        current, row, chunk.num_rows, num_topics, width, workspace
    )
    if external is not None:
        external_table, table_topics, table_offsets = external
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
    workspace.release()
    assignments[flat] = current

    # Fresh counts for the proposal distribution (Alg. 2 recomputes them
    # after the chain): random positioning reads them off ``current`` itself.
    table = None
    if external is not None:
        token_start = table_offsets.take(token_words)
        token_mass = table_offsets.take(token_words + 1) - token_start
        table = (table_topics, token_start, token_mass)
    for step in range(proposals.shape[0]):
        proposals[step][flat] = positioning_mixture_proposal(
            current, token_offset, token_length, prior_mass, num_topics, rng,
            alpha_alias=alpha_alias, table=table,
        )  # fmt: skip


def _run_phase(
    label: str,
    chunks: List[SlabBucket],
    num_topics: int,
    body: Callable[..., None],
    rng: np.random.Generator,
    chain_stats: Optional[dict],
    threads: Optional[int],
) -> None:
    """Dispatch ``body`` over the phase's chunks, one spawned RNG stream each.

    ``chain_stats`` is modified in place: its ``proposed``/``accepted``
    entries accumulate the per-task totals.  The phase owns the
    :class:`_SlotWorkspace` s: a task takes a free one (or makes one, so there
    are never more than tasks running at once) and hands it back when it is
    done, so each is used by one task at a time.  A workspace holds nothing
    between chunks, so which task gets which never changes a result.
    """
    if not chunks:
        return
    task_rngs = pool.spawn_task_rngs(rng, len(chunks))
    per_task = [{"proposed": 0, "accepted": 0} for _ in chunks]
    cells = _workspace_cells(chunks, num_topics)
    free: "queue.SimpleQueue[_SlotWorkspace]" = queue.SimpleQueue()

    def task(chunk: SlabBucket, task_rng: np.random.Generator, stats: Optional[dict]):
        try:
            workspace = free.get_nowait()
        except queue.Empty:
            workspace = _SlotWorkspace(cells, num_topics)
        body(chunk, task_rng, stats, workspace)
        free.put(workspace)

    tasks = [
        partial(task, chunk, task_rng, stats if chain_stats is not None else None)
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
    reads ``C_wk^local + E_wk`` and the proposal gains a third component,
    random positioning over the table's pseudo-tokens (the word's own tokens
    cannot reach the other shards' counts); ``external_proposal`` is that
    table's :func:`external_proposal_table`, built here when the caller has
    not kept one.

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
        external,
    )
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    _run_phase("warp.word", chunks, num_topics, body, rng, chain_stats, threads)


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
        None,
    )
    chunks = _phase_chunks(buckets, num_topics, max_cells)
    _run_phase("warp.doc", chunks, num_topics, body, rng, chain_stats, threads)
