"""Shared infrastructure for collapsed-Gibbs-style LDA samplers.

:class:`TopicState` owns the per-token topic assignments ``Z`` and the three
count structures of Eq. (1): the document-topic matrix ``C_d``, the word-topic
matrix ``C_w`` and the global topic vector ``c_k``.  :class:`LDASampler` is the
abstract base every baseline derives from; it provides hyper-parameter
handling (α = 50/K, β = 0.01 by default, as in Sec. 6.1), the ``fit`` loop
with optional convergence tracking, and the Θ / Φ point estimates.

WarpLDA does **not** derive from this class — by design it stores no count
matrices (see :mod:`repro.core.warplda`) — but exposes the same ``fit`` /
``log_likelihood`` / ``phi`` interface so the benchmark harness can treat all
samplers uniformly.

This module is also the one home of *what a sampler run is made of*: the
kernel names (:data:`KERNELS`), the ``(K, α, β)`` check
(:func:`validate_hyperparameters`), the ``(M, kernel, threads,
word_proposal)`` check (:func:`validate_sampler_options`) and the kernel
degradation rule (:func:`resolve_kernel`).  Every description of a run —
``ModelSpec``, ``TrainerConfig``, ``OnlineTrainerConfig`` and the sampler
constructors themselves — validates through these and nothing else;
:func:`repro.samplers.registry.build_sampler` turns one into a sampler.
"""

from __future__ import annotations

import abc
import numbers
import time
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.evaluation.convergence import ConvergenceTracker
from repro.evaluation.likelihood import log_joint_likelihood
from repro.obs import get_telemetry
from repro.sampling.rng import RngLike, ensure_rng, export_rng_state, restore_rng_state

__all__ = [
    "KERNELS",
    "TopicState",
    "LDASampler",
    "read_kernel",
    "resolve_hyperparameters",
    "resolve_kernel",
    "validate_hyperparameters",
    "validate_sampler_options",
]

#: Every execution path a run may request.  ``"slab"``: the vectorised
#: bucket kernels of :mod:`repro.kernels`; ``"scalar"``: the legacy
#: per-row/per-token loops, kept as the correctness oracle.
KERNELS = ("slab", "scalar")

_WORD_PROPOSALS = ("mixture", "alias")


def _one_of(names: tuple) -> str:
    """``('a', 'b', 'c')`` → ``"'a', 'b' or 'c'"`` for error messages."""
    return ", ".join(repr(name) for name in names[:-1]) + f" or {names[-1]!r}"


def validate_sampler_options(
    *,
    num_mh_steps: int = 2,
    kernel: str = "slab",
    threads: Optional[int] = None,
    word_proposal: str = "mixture",
) -> None:
    """Raise the shared ``ValueError`` family for invalid run options.

    The companion of :func:`validate_hyperparameters` for the knobs that are
    not Dirichlet parameters: the paper's ``M`` (``num_mh_steps``), the
    execution path, the kernel thread count and WarpLDA's word-proposal
    kind.  Every entry point checks the options it carries here (the rest
    keep their valid defaults), so ``kernel="fast"`` or ``threads=True``
    raises the same text from a spec, a trainer config or a sampler.
    """
    if num_mh_steps <= 0:
        raise ValueError(f"num_mh_steps must be positive, got {num_mh_steps}")
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be {_one_of(KERNELS)}, got {kernel!r}")
    if threads is not None:
        if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
            raise ValueError(f"threads must be an int or None, got {threads!r}")
        if threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
    if word_proposal not in _WORD_PROPOSALS:
        raise ValueError(
            f"word_proposal must be {_one_of(_WORD_PROPOSALS)}, got "
            f"{word_proposal!r}"
        )


def read_kernel(name: str) -> str:
    """The kernel an on-disk artefact names, as today's :data:`KERNELS` spell it.

    The one read rule for spec files, snapshot-embedded specs and
    ``checkpoint.json``: the retired ``"jit"`` tier was bit-identical to
    ``"slab"`` by contract, so an artefact that names it loads — and a
    checkpoint resumes, exactly — as ``"slab"``.  Constructors do not apply
    it: ``kernel="jit"`` in code is an ordinary invalid name.
    """
    return "slab" if name == "jit" else name


def resolve_kernel(sampler_cls: type, kernel: str) -> str:
    """Best supported execution path for ``kernel`` on ``sampler_cls``.

    A requested path the sampler implements is used as-is; anything else
    degrades to ``"scalar"``, which every sampler implements.  This keeps
    one config (``TrainerConfig``/``ModelSpec``) valid across samplers with
    different kernel support instead of erroring midway through
    construction.  Called by
    :func:`repro.samplers.registry.build_sampler` (what runs) and by
    :meth:`repro.api.LDA.export_snapshot` (what the provenance records).
    A name that is no kernel at all raises the shared text.
    """
    validate_sampler_options(kernel=kernel)
    return kernel if kernel in sampler_cls.KERNELS else "scalar"


def resolve_hyperparameters(
    num_topics: int,
    alpha: Optional[Union[float, np.ndarray]],
    beta: float,
    vocabulary_size: int,
) -> tuple[np.ndarray, float, float, float]:
    """Return ``(alpha_vector, alpha_sum, beta, beta_sum)``.

    ``alpha=None`` resolves to the paper's default 50/K (symmetric).
    """
    if num_topics <= 0:
        raise ValueError(f"num_topics must be positive, got {num_topics}")
    if alpha is None:
        alpha = 50.0 / num_topics
    alpha_vector = np.asarray(alpha, dtype=np.float64)
    if alpha_vector.ndim == 0:
        alpha_vector = np.full(num_topics, float(alpha_vector))
    if alpha_vector.shape != (num_topics,):
        raise ValueError(
            f"alpha must be a scalar or length-{num_topics} vector, got shape "
            f"{alpha_vector.shape}"
        )
    if np.any(alpha_vector <= 0):
        raise ValueError("alpha entries must be positive")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return alpha_vector, float(alpha_vector.sum()), float(beta), float(beta * vocabulary_size)


def validate_hyperparameters(
    num_topics: int,
    alpha: Optional[Union[float, np.ndarray]],
    beta: float,
) -> None:
    """Raise the shared ``ValueError`` family for an invalid ``(K, α, β)``.

    Every entry point — the sampler constructors, ``TrainerConfig``,
    ``OnlineTrainerConfig`` and ``repro.api.ModelSpec`` — funnels through
    this one check, so ``num_topics=0`` or a negative ``beta`` raises the
    same error everywhere instead of only where a particular config
    dataclass happened to validate it.
    """
    resolve_hyperparameters(num_topics, alpha, beta, vocabulary_size=1)


class TopicState:
    """Topic assignments plus the count matrices of collapsed Gibbs sampling.

    Parameters
    ----------
    corpus:
        The corpus being sampled.
    num_topics:
        Number of topics ``K``.
    rng:
        Seed or generator used for the random initial assignment.
    assignments:
        Optional explicit initial assignments (length ``num_tokens``); if
        omitted, topics are drawn uniformly at random.
    """

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        rng: RngLike = None,
        assignments: Optional[np.ndarray] = None,
    ):
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        self.corpus = corpus
        self.num_topics = int(num_topics)
        rng = ensure_rng(rng)

        if assignments is None:
            assignments = rng.integers(num_topics, size=corpus.num_tokens)
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.shape != (corpus.num_tokens,):
            raise ValueError(
                f"assignments must have length {corpus.num_tokens}, got shape "
                f"{assignments.shape}"
            )
        if assignments.size and (assignments.min() < 0 or assignments.max() >= num_topics):
            raise ValueError("assignments contain out-of-range topics")
        self.assignments = assignments

        self.doc_topic = np.zeros((corpus.num_documents, num_topics), dtype=np.int64)
        self.word_topic = np.zeros((corpus.vocabulary_size, num_topics), dtype=np.int64)
        self.topic_counts = np.zeros(num_topics, dtype=np.int64)
        self.recompute_counts()

    # ------------------------------------------------------------------ #
    def recompute_counts(self) -> None:
        """Rebuild all three count structures from the assignments."""
        self.doc_topic[:] = 0
        self.word_topic[:] = 0
        np.add.at(
            self.doc_topic, (self.corpus.token_documents, self.assignments), 1
        )
        np.add.at(self.word_topic, (self.corpus.token_words, self.assignments), 1)
        self.topic_counts = self.word_topic.sum(axis=0)

    def remove_token(self, token_index: int) -> int:
        """Decrement all counts for one token and return its current topic."""
        topic = int(self.assignments[token_index])
        doc = int(self.corpus.token_documents[token_index])
        word = int(self.corpus.token_words[token_index])
        self.doc_topic[doc, topic] -= 1
        self.word_topic[word, topic] -= 1
        self.topic_counts[topic] -= 1
        return topic

    def assign_token(self, token_index: int, topic: int) -> None:
        """Set the topic of one token and increment all counts."""
        doc = int(self.corpus.token_documents[token_index])
        word = int(self.corpus.token_words[token_index])
        self.assignments[token_index] = topic
        self.doc_topic[doc, topic] += 1
        self.word_topic[word, topic] += 1
        self.topic_counts[topic] += 1

    # ------------------------------------------------------------------ #
    # Shard-state hooks for data-parallel training (repro.training)
    # ------------------------------------------------------------------ #
    def local_word_topic(self) -> np.ndarray:
        """The ``V x K`` word-topic counts contributed by *this* corpus.

        Unlike :attr:`word_topic` — which may hold imported global counts
        during a data-parallel epoch — this is always recomputed from the
        assignments, i.e. the shard's own contribution to the global state.
        """
        counts = np.zeros_like(self.word_topic)
        np.add.at(counts, (self.corpus.token_words, self.assignments), 1)
        return counts

    def import_global_word_topic(self, word_topic: np.ndarray) -> None:
        """Install frozen *global* word-topic counts for a data-parallel epoch.

        The document-topic counts stay local (documents are disjoint across
        shards, so they are exact); the word-topic matrix and the topic totals
        are replaced by the cluster-wide counts so the conditional
        distributions see every shard's tokens.  This is the AD-LDA /
        ``ldamulticore`` pattern: sample against counts frozen at the epoch
        barrier, then merge deltas.
        """
        word_topic = np.asarray(word_topic, dtype=np.int64)
        if word_topic.shape != self.word_topic.shape:
            raise ValueError(
                f"word_topic must have shape {self.word_topic.shape}, got "
                f"{word_topic.shape}"
            )
        self.word_topic = word_topic.copy()
        self.topic_counts = self.word_topic.sum(axis=0)

    def word_topic_delta(self, baseline: np.ndarray) -> np.ndarray:
        """Count changes relative to ``baseline`` (what a barrier merge sums)."""
        baseline = np.asarray(baseline, dtype=np.int64)
        if baseline.shape != self.word_topic.shape:
            raise ValueError(
                f"baseline must have shape {self.word_topic.shape}, got "
                f"{baseline.shape}"
            )
        return self.word_topic - baseline

    def apply_word_topic_delta(self, delta: np.ndarray) -> None:
        """Merge another shard's count delta into this state's word-topic counts."""
        delta = np.asarray(delta, dtype=np.int64)
        if delta.shape != self.word_topic.shape:
            raise ValueError(
                f"delta must have shape {self.word_topic.shape}, got {delta.shape}"
            )
        self.word_topic += delta
        self.topic_counts = self.word_topic.sum(axis=0)
        if np.any(self.word_topic < 0):
            raise ValueError("word-topic counts became negative after delta merge")

    def check_consistency(self) -> bool:
        """Verify that the count matrices match the assignments exactly."""
        doc_topic = np.zeros_like(self.doc_topic)
        word_topic = np.zeros_like(self.word_topic)
        np.add.at(doc_topic, (self.corpus.token_documents, self.assignments), 1)
        np.add.at(word_topic, (self.corpus.token_words, self.assignments), 1)
        return (
            np.array_equal(doc_topic, self.doc_topic)
            and np.array_equal(word_topic, self.word_topic)
            and np.array_equal(word_topic.sum(axis=0), self.topic_counts)
        )


class LDASampler(abc.ABC):
    """Abstract base class of all count-matrix-based LDA samplers.

    Parameters
    ----------
    corpus:
        Corpus to train on.
    num_topics:
        Number of topics ``K``.
    alpha:
        Symmetric scalar or length-``K`` document Dirichlet parameter;
        defaults to ``50 / K`` (paper, Sec. 6.1).
    beta:
        Symmetric word Dirichlet parameter; defaults to ``0.01``.
    seed:
        Seed or generator controlling both the initial assignment and the
        sampling trajectory.
    kernel:
        Execution path: one of the class's :attr:`KERNELS`.  ``None`` picks
        :attr:`DEFAULT_KERNEL`.  Samplers with a vectorised path in
        :mod:`repro.kernels` accept ``"slab"`` (their default) and keep the
        legacy per-token loop behind ``"scalar"`` as the correctness oracle;
        the rest only accept ``"scalar"``.
    threads:
        Worker threads for the slab kernels (dispatched through
        :mod:`repro.kernels.pool`); ``None`` means 1.  The trajectory is
        bit-identical for every thread count; the scalar path ignores the
        setting.
    """

    #: Human-readable algorithm name used in benchmark tables.
    name: str = "lda"
    #: Execution paths this sampler implements.
    KERNELS: tuple = ("scalar",)
    #: Path chosen when ``kernel=None``.
    DEFAULT_KERNEL: str = "scalar"

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        alpha: Optional[Union[float, np.ndarray]] = None,
        beta: float = 0.01,
        seed: RngLike = None,
        kernel: Optional[str] = None,
        threads: Optional[int] = None,
    ):
        self.corpus = corpus
        self.num_topics = int(num_topics)
        self.alpha, self.alpha_sum, self.beta, self.beta_sum = resolve_hyperparameters(
            num_topics, alpha, beta, corpus.vocabulary_size
        )
        if kernel is None:
            kernel = type(self).DEFAULT_KERNEL
        validate_sampler_options(kernel=kernel, threads=threads)
        if kernel not in type(self).KERNELS:
            raise ValueError(
                f"{type(self).__name__} kernel must be one of "
                f"{type(self).KERNELS}, got {kernel!r}"
            )
        self.kernel = kernel
        self.threads = threads
        self.rng = ensure_rng(seed)
        self.state = TopicState(corpus, num_topics, rng=self.rng)
        self.iterations_completed = 0

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _sample_iteration(self) -> None:
        """Run one full sweep over all tokens (algorithm specific)."""

    def fit(
        self,
        num_iterations: int,
        tracker: Optional[ConvergenceTracker] = None,
        evaluate_every: int = 1,
    ) -> "LDASampler":
        """Run ``num_iterations`` sweeps, optionally recording convergence.

        Parameters
        ----------
        num_iterations:
            Number of full passes over the corpus.
        tracker:
            Optional :class:`ConvergenceTracker`; if given, the log joint
            likelihood is recorded every ``evaluate_every`` iterations.
        evaluate_every:
            Evaluation stride (evaluation itself is not free).
        """
        if num_iterations < 0:
            raise ValueError(f"num_iterations must be non-negative, got {num_iterations}")
        if evaluate_every <= 0:
            raise ValueError(f"evaluate_every must be positive, got {evaluate_every}")
        if tracker is not None:
            tracker.start()
        obs = get_telemetry()
        for _ in range(num_iterations):
            if obs.enabled:
                started = time.perf_counter()
                with obs.span(
                    "sweep", sampler=self.name, iteration=self.iterations_completed
                ):
                    self._sample_iteration()
                elapsed = time.perf_counter() - started
                num_tokens = self.corpus.num_tokens
                obs.count("sampler.tokens_sampled", num_tokens)
                if elapsed > 0:
                    obs.record("sampler.tokens_per_sec", num_tokens / elapsed)
            else:
                self._sample_iteration()
            self.iterations_completed += 1
            if tracker is not None and self.iterations_completed % evaluate_every == 0:
                tracker.record(
                    iteration=self.iterations_completed,
                    log_likelihood=self.log_likelihood(),
                    tokens_processed=self.iterations_completed * self.corpus.num_tokens,
                )
        return self

    # ------------------------------------------------------------------ #
    # Model access
    # ------------------------------------------------------------------ #
    def log_likelihood(self) -> float:
        """Log joint likelihood ``log p(W, Z | α, β)`` of the current state."""
        return log_joint_likelihood(
            self.state.doc_topic, self.state.word_topic, self.alpha, self.beta
        )

    def theta(self) -> np.ndarray:
        """Posterior-mean estimate of the document-topic proportions Θ."""
        counts = self.state.doc_topic.astype(np.float64) + self.alpha
        return counts / counts.sum(axis=1, keepdims=True)

    def phi(self) -> np.ndarray:
        """Posterior-mean estimate of the topic-word distributions Φ (K x V)."""
        counts = self.state.word_topic.T.astype(np.float64) + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def export_snapshot(self):
        """Freeze the current model into a :class:`~repro.serving.ModelSnapshot`.

        The snapshot captures Φ, α, β and the vocabulary and is the input to
        the serving layer (:mod:`repro.serving`).
        """
        # Imported here so the training layer has no hard dependency on serving.
        from repro.serving.snapshot import ModelSnapshot

        return ModelSnapshot.from_model(self)

    def invalidate_caches(self) -> None:
        """Drop derived sampling caches (stale alias tables and the like).

        Called whenever the count matrices change underneath the sampler —
        after a data-parallel global-count import or a state restore.  The
        base class keeps no caches; samplers that do (AliasLDA, LightLDA)
        override this.
        """

    # ------------------------------------------------------------------ #
    # Mutable-state export/import (checkpointing, data-parallel shards)
    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, Any]:
        """Capture everything needed to continue this run bit-exactly.

        The counts are not exported: they are a pure function of the
        assignments (and, during a data-parallel epoch, of the imported
        global counts, which the trainer re-broadcasts every epoch anyway).
        """
        return {
            "assignments": self.state.assignments.copy(),
            "rng_state": export_rng_state(self.rng),
            "iterations_completed": int(self.iterations_completed),
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`export_state`."""
        assignments = np.asarray(state["assignments"], dtype=np.int64)
        if assignments.shape != self.state.assignments.shape:
            raise ValueError(
                f"assignments must have shape {self.state.assignments.shape}, "
                f"got {assignments.shape}"
            )
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= self.num_topics
        ):
            raise ValueError("assignments contain out-of-range topics")
        self.state.assignments[:] = assignments
        self.state.recompute_counts()
        self.rng = restore_rng_state(state["rng_state"])
        self.iterations_completed = int(state["iterations_completed"])
        self.invalidate_caches()

    @property
    def assignments(self) -> np.ndarray:
        """Per-token topic assignments (aligned with the corpus token order)."""
        return self.state.assignments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(K={self.num_topics}, D={self.corpus.num_documents}, "
            f"iterations={self.iterations_completed})"
        )
