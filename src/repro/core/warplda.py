"""WarpLDA: the MCEM, cache-efficient, O(1)-per-token LDA sampler (Sec. 4).

Algorithm summary (Alg. 2 of the paper)
---------------------------------------
WarpLDA keeps, per token, the current topic assignment ``z`` and ``M`` topic
proposals.  One iteration is two passes over the tokens:

* **Word phase** (tokens visited word-by-word).  For each word ``w``: compute
  ``c_w`` on the fly from the topic assignments of the word's tokens; run the
  MH chain that *accepts or rejects the doc proposals* drawn in the previous
  document phase, using the acceptance rate
  ``π_doc = min{1, (C_wt+β)(C_s+β̄) / ((C_ws+β)(C_t+β̄))}``; recompute ``c_w``
  from the updated assignments; then draw ``M`` fresh *word proposals*
  ``q_word(k) ∝ C_wk + β`` for every token of the word.
* **Document phase** (tokens visited document-by-document).  Symmetric: accept
  or reject the word proposals with
  ``π_word = min{1, (C_dt+α_t)(C_s+β̄) / ((C_ds+α_s)(C_t+β̄))}``, then draw
  ``M`` fresh *doc proposals* ``q_doc(k) ∝ C_dk + α_k``.

Counts are **delayed**: within a phase the counts used by the acceptance rates
are the ones computed at the start of the phase (the MCEM E-step keeps Θ and Φ
fixed), which is what makes the reordering legal.  No count matrix is ever
stored — only the per-word / per-document count vector of the row or column
currently being processed, plus the global K-vector ``c_k``.  This is exactly
the property that shrinks the randomly accessed memory per document to O(K).

Implementation notes
--------------------
* Two execution paths share the algorithm.  The default ``kernel="slab"``
  path runs each phase over the bucketed slab matrices of
  :mod:`repro.kernels` — whole groups of words/documents processed by single
  NumPy operations (see :mod:`repro.kernels.warp`).  Because the counts are
  delayed for the duration of a phase, the slab chain has identical per-row
  transition kernels to the scalar formulation; only the RNG consumption
  order differs.  ``kernel="scalar"`` keeps the original row-by-row loop
  (each word/document vectorised over its own tokens) as the correctness
  oracle.
* The doc proposal is drawn by *random positioning* (pick the assignment of a
  uniformly random token of the document) mixed with the prior α; the word
  proposal by random positioning mixed with the uniform distribution implied
  by the symmetric β: the O(1) random-positioning strategy of Sec. 4.3.
  With external shard counts installed the word proposal covers those
  counts too (:meth:`WarpLDA.set_external_counts`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.kernels.buckets import corpus_buckets
from repro.kernels.warp import document_phase as slab_document_phase
from repro.kernels.warp import external_proposal_table
from repro.kernels.warp import word_phase as slab_word_phase
from repro.obs import get_telemetry
from repro.samplers.base import KERNELS, Sampler
from repro.sampling.alias import AliasTable
from repro.sampling.rng import RngLike

__all__ = [
    "WarpLDA",
    "doc_proposal_acceptance",
    "word_proposal_acceptance",
]


def doc_proposal_acceptance(
    word_count_current: np.ndarray,
    word_count_proposed: np.ndarray,
    topic_count_current: np.ndarray,
    topic_count_proposed: np.ndarray,
    beta: float,
    beta_sum: float,
) -> np.ndarray:
    """Acceptance rate π_doc of Eq. (7) for doc-proposal moves (vectorised).

    All count arguments are the *delayed* counts of the state (``current``,
    subscript ``k``) and the proposal (``proposed``, subscript ``k'``).
    """
    ratio = (
        (word_count_proposed + beta)
        * (topic_count_current + beta_sum)
        / ((word_count_current + beta) * (topic_count_proposed + beta_sum))
    )
    return np.minimum(1.0, ratio)


def word_proposal_acceptance(
    doc_count_current: np.ndarray,
    doc_count_proposed: np.ndarray,
    alpha_current: np.ndarray,
    alpha_proposed: np.ndarray,
    topic_count_current: np.ndarray,
    topic_count_proposed: np.ndarray,
    beta_sum: float,
) -> np.ndarray:
    """Acceptance rate π_word of Eq. (7) for word-proposal moves (vectorised)."""
    ratio = (
        (doc_count_proposed + alpha_proposed)
        * (topic_count_current + beta_sum)
        / ((doc_count_current + alpha_current) * (topic_count_proposed + beta_sum))
    )
    return np.minimum(1.0, ratio)


class WarpLDA(Sampler):
    """The WarpLDA sampler.

    It stores no count matrices: :meth:`doc_topic_counts` and
    :meth:`word_topic_counts` materialise them from the assignments, for
    evaluation only, and frozen external counts are kept beside the
    sampler's own and read by the kernels rather than added into anything.

    Parameters
    ----------
    corpus:
        Corpus to train on.
    num_topics:
        Number of topics ``K``.
    num_mh_steps:
        The paper's ``M``: number of proposals stored per token and MH steps
        per phase.  The paper uses 1-4 for WarpLDA (Fig. 8).
    alpha:
        Symmetric scalar or length-K document Dirichlet parameter; ``None``
        resolves to 50/K.
    beta:
        Symmetric word Dirichlet parameter (0.01 in the paper; 0.001 for the
        1M-topic ClueWeb run).
    kernel:
        ``"slab"`` (the default: bucketed whole-bucket NumPy execution, see
        :mod:`repro.kernels.warp`) or ``"scalar"`` (the legacy row-by-row
        loop, kept as the correctness oracle).
    threads:
        Worker threads for the slab kernel phases (bucket chunks run
        concurrently on :mod:`repro.kernels.pool`); ``None`` means 1.  The
        trajectory is bit-identical for every thread count.
    seed:
        Seed or generator controlling the full trajectory.

    Examples
    --------
    >>> from repro.corpus import load_preset
    >>> corpus = load_preset("nytimes_like", scale=0.05, seed=0)
    >>> model = WarpLDA(corpus, num_topics=10, seed=0).fit(5)
    >>> model.phi().shape[0]
    10
    """

    name = "WarpLDA"
    #: Execution paths this sampler implements (all of them).
    KERNELS = KERNELS
    DEFAULT_KERNEL = "slab"
    SNAPSHOT_FIELDS = ("num_mh_steps",)

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int = 10,
        num_mh_steps: int = 2,
        alpha: Optional[Union[float, np.ndarray]] = None,
        beta: float = 0.01,
        kernel: str = "slab",
        threads: Optional[int] = None,
        seed: RngLike = None,
    ):
        super().__init__(
            corpus,
            num_topics,
            alpha,
            beta,
            seed,
            kernel,
            threads,
            num_mh_steps=num_mh_steps,
        )
        self.num_mh_steps = num_mh_steps

        num_tokens = corpus.num_tokens
        self.assignments = self.rng.integers(
            self.num_topics, size=num_tokens
        ).astype(np.int64)
        # The proposal buffer is shared between phases: the word phase consumes
        # doc proposals and overwrites them with word proposals, and vice
        # versa.  Initially it holds uniform proposals (the first word phase's
        # acceptance test then just mixes the initial state, which only affects
        # the transient).
        self.proposals = self.rng.integers(
            self.num_topics, size=(self.num_mh_steps, num_tokens)
        ).astype(np.int64)
        self.topic_counts = np.bincount(self.assignments, minlength=self.num_topics)

        self._alpha_is_symmetric = bool(np.allclose(self.alpha, self.alpha[0]))
        self._alpha_alias = None if self._alpha_is_symmetric else AliasTable(self.alpha)

        # Frozen counts contributed by *other* shards during a data-parallel
        # epoch (see repro.training); None when training single-process.
        self._external_word_topic: Optional[np.ndarray] = None
        self._external_proposal: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Reused per-phase scratch: the delayed global counts as float64 (and
        # the cached float64 view of the external sums), so neither phase
        # re-allocates a K-vector per call.  Concurrent bucket tasks share
        # these arrays, so the kernels only ever receive non-writable views
        # (_stale_topic_counts) — a stray in-kernel store would raise instead
        # of silently corrupting a sibling task's reads.
        self._stale_topic_buffer = np.empty(self.num_topics, dtype=np.float64)
        self._external_topic_f64: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # One iteration
    # ------------------------------------------------------------------ #
    def _sample_iteration(self) -> None:
        """One full WarpLDA iteration: word phase, then document phase.

        Under active telemetry each phase runs in a span and the MH
        acceptance is counted.  The word phase accepts the *doc* proposals
        drawn by the previous document phase and vice versa (Eq. 7), so the
        counters are named for the proposal type being judged — the
        per-proposal-type acceptance rates of Fig. 8.  The accumulators never
        touch the RNG stream, so an instrumented run stays bit-identical to
        an un-instrumented one.
        """
        if self.kernel == "scalar":
            word_phase, document_phase = self._word_phase, self._document_phase
        else:
            word_phase, document_phase = self._word_phase_slab, self._document_phase_slab
        obs = get_telemetry()
        doc_proposal_stats = word_proposal_stats = None
        if obs.enabled:
            doc_proposal_stats = {"proposed": 0, "accepted": 0}
            word_proposal_stats = {"proposed": 0, "accepted": 0}
        with obs.span("word_phase", kernel=self.kernel):
            word_phase(chain_stats=doc_proposal_stats)
        with obs.span("doc_phase", kernel=self.kernel):
            document_phase(chain_stats=word_proposal_stats)
        if obs.enabled:
            for proposal, stats in (
                ("doc_proposal", doc_proposal_stats),
                ("word_proposal", word_proposal_stats),
            ):
                obs.count(f"mh.{proposal}.proposed", stats["proposed"])
                obs.count(f"mh.{proposal}.accepted", stats["accepted"])
                if stats["proposed"]:
                    obs.record(
                        f"mh.{proposal}.acceptance_rate",
                        stats["accepted"] / stats["proposed"],
                    )

    def _stale_topic_counts(self) -> np.ndarray:
        """The phase-frozen global ``c_k`` as float64, in a reused buffer.

        External shard counts (data-parallel epochs) are added from the
        float64 view cached by :meth:`set_external_counts`.  Returns a
        **read-only view**: the buffer is shared by every concurrent bucket
        task of the phase, so any accidental in-kernel write must fail loudly
        rather than race.
        """
        np.copyto(self._stale_topic_buffer, self.topic_counts)
        if self._external_topic_f64 is not None:
            self._stale_topic_buffer += self._external_topic_f64
        view = self._stale_topic_buffer.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------ #
    # Driver protocol and resumable state
    # ------------------------------------------------------------------ #
    def set_external_counts(self, word_topic: np.ndarray) -> None:
        """Install frozen word-topic counts contributed by other shards.

        During a data-parallel epoch every worker samples its shard against
        the cluster-wide counts frozen at the epoch barrier: the acceptance
        rates read ``c_w^local + c_w^external`` and ``c_k^local +
        c_k^external``, and the word proposal becomes an exact draw from
        ``q_word(k) ∝ C_wk^global + β`` (scalar kernel: a per-word alias
        table; slab kernel: random positioning over the word's own tokens or
        over this table's pseudo-tokens, or uniform, mixed by their masses,
        O(1) per token).  Freezing
        the external contribution for a whole epoch is precisely the delayed
        count update that makes WarpLDA's MCEM reordering legal (Sec. 4.2) —
        only the delay grows from one phase to one epoch.

        A table with no mass (a single shard, or an empty retired window) is
        never installed: the acceptance rates are identical either way, and
        skipping it keeps the two-component mixture word proposal and avoids
        building the pseudo-tokens (on the scalar kernel, the per-word alias
        tables) — so it is RNG-identical to not calling this at all.  The
        pseudo-tokens (``ΣE`` ints, which can exceed ``V·K`` in a long
        ``decay=1`` stream) are built once, at the next slab word phase.
        """
        word_topic = self._checked_external_counts(word_topic)
        self.clear_external_counts()
        # The counts are non-negative, so the table has no mass iff its
        # column sums are all zero.
        topic_sums = word_topic.sum(axis=0)
        if not topic_sums.any():
            return
        # The kernels read these from every concurrent bucket task, so they
        # are immutable for the phase (and never alias the caller's array).
        word_topic.flags.writeable = False
        self._external_word_topic = word_topic
        self._external_topic_f64 = topic_sums.astype(np.float64)
        self._external_topic_f64.flags.writeable = False

    def clear_external_counts(self) -> None:
        """Return to single-process semantics (no external shard counts)."""
        self._external_word_topic = None
        self._external_proposal = None
        self._external_topic_f64 = None

    def _assignments_changed(self) -> None:
        self.topic_counts = np.bincount(self.assignments, minlength=self.num_topics)

    def export_state(self) -> Dict[str, Any]:
        """Capture everything needed to continue this run bit-exactly.

        Includes the proposal buffer — the next word phase consumes the doc
        proposals drawn by the previous document phase, so dropping them
        would change the trajectory of a resumed run.
        """
        return {**super().export_state(), "proposals": self.proposals.copy()}

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`export_state`."""
        proposals = self._checked_topics(
            "proposals", state["proposals"], self.proposals.shape
        )
        super().import_state(state)
        self.proposals[:] = proposals

    # ------------------------------------------------------------------ #
    # The two phases
    # ------------------------------------------------------------------ #
    def _word_phase(self, chain_stats: Optional[dict] = None) -> None:
        """Visit tokens word-by-word: accept doc proposals, draw word proposals."""
        corpus = self.corpus
        assignments = self.assignments
        proposals = self.proposals
        beta = self.beta
        beta_sum = self.beta_sum
        num_topics = self.num_topics
        rng = self.rng
        external_word_topic = self._external_word_topic
        # Delayed global counts: fixed for the duration of the phase.  During
        # a data-parallel epoch the frozen contribution of the other shards is
        # added on top of the local counts.
        stale_topic_counts = self._stale_topic_counts()

        word_offsets = corpus.word_offsets
        word_order = corpus.word_order

        for word in range(corpus.vocabulary_size):
            start, stop = word_offsets[word], word_offsets[word + 1]
            if start == stop:
                continue
            token_indices = word_order[start:stop]
            length = int(stop - start)

            # c_w computed on the fly (delayed for the acceptance test).
            current = assignments[token_indices]
            word_counts = np.bincount(current, minlength=num_topics).astype(np.float64)
            if external_word_topic is not None:
                word_counts += external_word_topic[word]

            # Accept/reject the M doc proposals drawn in the previous phase.
            uniforms = rng.random((self.num_mh_steps, length))
            for step in range(self.num_mh_steps):
                proposed = proposals[step, token_indices]
                acceptance = doc_proposal_acceptance(
                    word_counts[current],
                    word_counts[proposed],
                    stale_topic_counts[current],
                    stale_topic_counts[proposed],
                    beta,
                    beta_sum,
                )
                accept = uniforms[step] < acceptance
                if chain_stats is not None:
                    chain_stats["proposed"] += length
                    chain_stats["accepted"] += int(np.count_nonzero(accept))
                current = np.where(accept, proposed, current)
            assignments[token_indices] = current

            # Fresh c_w for the proposal distribution (Alg. 2 recomputes it
            # after the chain, before building the sampler for q_word).
            self._draw_word_proposals(word, token_indices, current, length, rng)

        self.topic_counts = np.bincount(assignments, minlength=num_topics)

    def _document_phase(self, chain_stats: Optional[dict] = None) -> None:
        """Visit tokens document-by-document: accept word proposals, draw doc proposals."""
        corpus = self.corpus
        assignments = self.assignments
        proposals = self.proposals
        alpha = self.alpha
        beta_sum = self.beta_sum
        num_topics = self.num_topics
        rng = self.rng
        stale_topic_counts = self._stale_topic_counts()

        doc_offsets = corpus.doc_offsets

        for doc in range(corpus.num_documents):
            start, stop = doc_offsets[doc], doc_offsets[doc + 1]
            if start == stop:
                continue
            token_slice = slice(int(start), int(stop))
            length = int(stop - start)

            current = assignments[token_slice]
            doc_counts = np.bincount(current, minlength=num_topics).astype(np.float64)

            uniforms = rng.random((self.num_mh_steps, length))
            for step in range(self.num_mh_steps):
                proposed = proposals[step, token_slice]
                acceptance = word_proposal_acceptance(
                    doc_counts[current],
                    doc_counts[proposed],
                    alpha[current],
                    alpha[proposed],
                    stale_topic_counts[current],
                    stale_topic_counts[proposed],
                    beta_sum,
                )
                accept = uniforms[step] < acceptance
                if chain_stats is not None:
                    chain_stats["proposed"] += length
                    chain_stats["accepted"] += int(np.count_nonzero(accept))
                current = np.where(accept, proposed, current)
            assignments[token_slice] = current

            self._draw_doc_proposals(token_slice, current, length, rng)

        self.topic_counts = np.bincount(assignments, minlength=num_topics)

    # ------------------------------------------------------------------ #
    # Slab-kernel phases (repro.kernels.warp)
    # ------------------------------------------------------------------ #
    def _word_phase_slab(self, chain_stats: Optional[dict] = None) -> None:
        """Word phase over bucketed word slabs (kernel path)."""
        if self._external_word_topic is not None and self._external_proposal is None:
            # The proposal's third component positions over the installed
            # table's pseudo-tokens: built once per installed table.
            self._external_proposal = external_proposal_table(
                self._external_word_topic
            )
        slab_word_phase(
            self.assignments,
            self.proposals,
            corpus_buckets(self.corpus, "word"),
            self._stale_topic_counts(),
            self.num_topics,
            self.num_mh_steps,
            self.beta,
            self.beta_sum,
            self.rng,
            external_word_topic=self._external_word_topic,
            external_proposal=self._external_proposal,
            chain_stats=chain_stats,
            threads=self.threads,
        )
        self.topic_counts = np.bincount(self.assignments, minlength=self.num_topics)

    def _document_phase_slab(self, chain_stats: Optional[dict] = None) -> None:
        """Document phase over bucketed document slabs (kernel path)."""
        slab_document_phase(
            self.assignments,
            self.proposals,
            corpus_buckets(self.corpus, "doc"),
            self._stale_topic_counts(),
            self.alpha,
            self.alpha_sum,
            self.num_topics,
            self.num_mh_steps,
            self.beta_sum,
            self.rng,
            alpha_alias=self._alpha_alias,
            chain_stats=chain_stats,
            threads=self.threads,
        )
        self.topic_counts = np.bincount(self.assignments, minlength=self.num_topics)

    # ------------------------------------------------------------------ #
    # Proposal draws (both O(1) per draw)
    # ------------------------------------------------------------------ #
    def _draw_word_proposals(
        self,
        word: int,
        token_indices: np.ndarray,
        current: np.ndarray,
        length: int,
        rng: np.random.Generator,
    ) -> None:
        """Draw M samples per token from ``q_word(k) ∝ C_wk + β``."""
        if length == 0:
            return
        if self._external_word_topic is not None:
            # Exact global proposal: random positioning cannot reach the
            # other shards' tokens, so draw from a per-word alias table over
            # the combined counts (the Sec. 4.3 alias strategy).
            word_counts = np.bincount(current, minlength=self.num_topics).astype(
                np.float64
            )
            word_counts += self._external_word_topic[word]
            table = AliasTable(word_counts + self.beta)
            for step in range(self.num_mh_steps):
                self.proposals[step, token_indices] = table.draw_many(length, rng)
            return

        # Mixture of ``C_wk`` (random positioning over the word's tokens) and
        # the uniform distribution implied by the symmetric β.  The smoothing
        # mass of ``q_word(k) ∝ C_wk + β`` summed over the K topics is K·β
        # (not β̄ = V·β, which normalises the word axis): using β̄ here would
        # overweight the uniform component by V/K and silently mismatch the
        # acceptance rates, which assume the proposal is exactly C_wk + β.
        word_weight = length / (length + self.num_topics * self.beta)
        for step in range(self.num_mh_steps):
            use_counts = rng.random(length) < word_weight
            positions = rng.integers(length, size=length)
            uniform_topics = rng.integers(self.num_topics, size=length)
            self.proposals[step, token_indices] = np.where(
                use_counts, current[positions], uniform_topics
            )

    def _draw_doc_proposals(
        self,
        token_slice: slice,
        current: np.ndarray,
        length: int,
        rng: np.random.Generator,
    ) -> None:
        """Draw M samples per token from ``q_doc(k) ∝ C_dk + α_k``.

        ``length`` is always at least one here (zero-token documents are
        skipped by the document phase), so the random-positioning draw
        ``rng.integers(length)`` is well defined even for single-token
        documents — the degenerate "pick a uniformly random token" case just
        always picks the only token.
        """
        if length == 0:
            return
        doc_weight = length / (length + self.alpha_sum)
        for step in range(self.num_mh_steps):
            use_counts = rng.random(length) < doc_weight
            positions = rng.integers(length, size=length)
            if self._alpha_is_symmetric:
                prior_topics = rng.integers(self.num_topics, size=length)
            else:
                prior_topics = self._alpha_alias.draw_many(length, rng)
            self.proposals[step, token_slice] = np.where(
                use_counts, current[positions], prior_topics
            )

    # ------------------------------------------------------------------ #
    # Count hooks (materialised from the assignments)
    # ------------------------------------------------------------------ #
    def doc_topic_counts(self) -> np.ndarray:
        """Materialise the ``D x K`` count matrix (for evaluation only)."""
        counts = np.zeros((self.corpus.num_documents, self.num_topics), dtype=np.int64)
        np.add.at(counts, (self.corpus.token_documents, self.assignments), 1)
        return counts

    def word_topic_counts(self) -> np.ndarray:
        """Materialise this sampler's own ``V x K`` count matrix."""
        counts = np.zeros((self.corpus.vocabulary_size, self.num_topics), dtype=np.int64)
        np.add.at(counts, (self.corpus.token_words, self.assignments), 1)
        return counts
