"""The one sampler base, and what a sampler run is made of.

:class:`Sampler` is the abstract base of *every* sampler: the baselines
through :class:`LDASampler`, and :class:`repro.core.warplda.WarpLDA`
directly.  The two families differ only in what they store:
:class:`TopicState` owns the per-token topic assignments ``Z`` and the three
count structures of Eq. (1) — the document-topic matrix ``C_d``, the
word-topic matrix ``C_w`` and the global topic vector ``c_k`` — for the
baselines, while WarpLDA stores no count matrices at all and recomputes what
it needs from ``Z`` (see :mod:`repro.core.warplda`).

This module is also the one home of *what a sampler run is made of*: the
kernel names (:data:`KERNELS`), the ``(K, α, β)`` check
(:func:`validate_hyperparameters`), the ``(M, kernel, threads)`` check
(:func:`validate_sampler_options`), the count-option check
(:func:`validate_positive_int`) and the kernel degradation rule
(:func:`resolve_kernel`).  Every entry point of a run — ``ModelSpec``, the
``ParallelTrainer`` / ``OnlineTrainer`` keywords and the sampler
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
from repro.evaluation.likelihood import (
    check_priors,
    log_joint_likelihood_from_assignments,
)
from repro.obs import get_telemetry
from repro.sampling.rng import RngLike, ensure_rng, export_rng_state, restore_rng_state

__all__ = [
    "KERNELS",
    "TopicState",
    "LDASampler",
    "Sampler",
    "read_kernel",
    "resolve_hyperparameters",
    "resolve_kernel",
    "validate_hyperparameters",
    "validate_fit_arguments",
    "validate_positive_int",
    "validate_sampler_options",
]

#: Every execution path a run may request.  ``"slab"``: the vectorised
#: bucket kernels of :mod:`repro.kernels`; ``"scalar"``: the legacy
#: per-row/per-token loops, kept as the correctness oracle.
KERNELS = ("slab", "scalar")


def _one_of(names: tuple) -> str:
    """``('a', 'b', 'c')`` → ``"'a', 'b' or 'c'"`` for error messages."""
    return ", ".join(repr(name) for name in names[:-1]) + f" or {names[-1]!r}"


def validate_sampler_options(
    *,
    num_mh_steps: int = 2,
    kernel: str = "slab",
    threads: Optional[int] = None,
) -> None:
    """Raise the shared ``ValueError`` family for invalid run options.

    The companion of :func:`validate_hyperparameters` for the knobs that are
    not Dirichlet parameters: the paper's ``M`` (``num_mh_steps``), the
    execution path and the kernel thread count.  Every entry point checks
    the options it carries here (the rest keep their valid defaults), so
    ``kernel="fast"`` or ``threads=True`` raises the same text from a spec,
    a trainer or a sampler.
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


def validate_positive_int(name: str, value: Any) -> None:
    """Raise the shared ``ValueError`` unless ``value`` is a positive int.

    The check of every count a run is scheduled by; a bool or float (even
    ``2.0``) fails here instead of being truncated or failing mid-run.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


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
    one run description (a ``ModelSpec``, a trainer's keywords) valid
    across samplers with different kernel support instead of erroring midway
    through construction.  Called by
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
    alpha_vector = check_priors(num_topics, alpha, beta)
    return alpha_vector, float(alpha_vector.sum()), float(beta), float(beta * vocabulary_size)


def validate_hyperparameters(
    num_topics: int,
    alpha: Optional[Union[float, np.ndarray]],
    beta: float,
) -> None:
    """Raise the shared ``ValueError`` family for an invalid ``(K, α, β)``.

    Every entry point — the sampler constructors, ``ParallelTrainer``,
    ``OnlineTrainer`` and ``repro.api.ModelSpec`` — funnels through this one
    check, so ``num_topics=0`` or a negative ``beta`` raises the same error
    everywhere instead of only where a particular entry point happened to
    validate it.
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


def validate_fit_arguments(num_iterations: int, evaluate_every: int) -> None:
    """Raise the shared ``ValueError`` for a bad ``fit(num_iterations, evaluate_every=...)``."""
    if num_iterations < 0:
        raise ValueError(f"num_iterations must be non-negative, got {num_iterations}")
    if evaluate_every <= 0:
        raise ValueError(f"evaluate_every must be positive, got {evaluate_every}")


class Sampler(abc.ABC):
    """What every LDA sampler is: one run description, one loop, one protocol.

    :class:`LDASampler` (the baselines, which keep the count matrices of a
    :class:`TopicState`) and :class:`repro.core.warplda.WarpLDA` (which keeps
    only assignments and proposals) both derive from this class.  A subclass
    supplies the sweep (:meth:`_sample_iteration`), the per-token
    ``assignments``, the two count hooks (:meth:`doc_topic_counts`,
    :meth:`word_topic_counts`) and how it keeps its derived state in step
    with its assignments and with frozen external counts.  Everything else
    — the validated run description, :meth:`fit` / :meth:`run_iteration`,
    Θ, Φ, the log joint, snapshot export and the checked state import — is
    here, once.

    The **driver protocol** is what every data-parallel shard
    (:mod:`repro.training.parallel`) and every online window sweep
    (:mod:`repro.streaming.online`) calls, the same on every sampler:

    * :meth:`set_assignments` — warm-start from given topics;
    * :meth:`set_external_counts` / :meth:`clear_external_counts` — sample
      against frozen ``V x K`` word-topic counts of tokens this sampler does
      not own (other shards, retired documents): the delayed count update of
      Sec. 4.2 with the delay stretched from one phase to a whole epoch;
    * :meth:`word_topic_counts` — this sampler's own contribution, never the
      installed external counts.

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
        :attr:`DEFAULT_KERNEL`.  WarpLDA, the one sampler with a vectorised
        path in :mod:`repro.kernels`, accepts ``"slab"`` (its default) and
        keeps the legacy per-row loop behind ``"scalar"`` as the correctness
        oracle; the rest only accept ``"scalar"``.
    threads:
        Worker threads for the slab kernels (dispatched through
        :mod:`repro.kernels.pool`); ``None`` means 1.  The trajectory is
        bit-identical for every thread count; the scalar path ignores the
        setting.
    **options:
        The further run options a sampler carries (``num_mh_steps``),
        checked by :func:`validate_sampler_options`.
    """

    #: Human-readable algorithm name used in benchmark tables.
    name: str = "lda"
    #: Execution paths this sampler implements.
    KERNELS: tuple = ("scalar",)
    #: Path chosen when ``kernel=None``.
    DEFAULT_KERNEL: str = "scalar"
    #: Attributes recorded in the metadata of an exported snapshot.
    SNAPSHOT_FIELDS: tuple = ()
    #: Per-token topic assignments (aligned with the corpus token order).
    assignments: np.ndarray

    def __init__(
        self,
        corpus: Corpus,
        num_topics: int,
        alpha: Optional[Union[float, np.ndarray]] = None,
        beta: float = 0.01,
        seed: RngLike = None,
        kernel: Optional[str] = None,
        threads: Optional[int] = None,
        **options: Any,
    ):
        self.corpus = corpus
        self.alpha, self.alpha_sum, self.beta, self.beta_sum = resolve_hyperparameters(
            num_topics, alpha, beta, corpus.vocabulary_size
        )
        self.num_topics = int(num_topics)
        if kernel is None:
            kernel = type(self).DEFAULT_KERNEL
        validate_sampler_options(kernel=kernel, threads=threads, **options)
        if kernel not in type(self).KERNELS:
            raise ValueError(
                f"{type(self).__name__} kernel must be one of "
                f"{type(self).KERNELS}, got {kernel!r}"
            )
        self.kernel = kernel
        self.threads = threads
        self.rng = ensure_rng(seed)
        self.iterations_completed = 0

    # ------------------------------------------------------------------ #
    # What a subclass supplies
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _sample_iteration(self) -> None:
        """Run one full sweep over all tokens (algorithm specific)."""

    @abc.abstractmethod
    def _assignments_changed(self) -> None:
        """Rebuild whatever derives from :attr:`assignments` after a rewrite."""

    @abc.abstractmethod
    def doc_topic_counts(self) -> np.ndarray:
        """The ``D x K`` document-topic counts (a fresh array)."""

    @abc.abstractmethod
    def word_topic_counts(self) -> np.ndarray:
        """This sampler's own ``V x K`` word-topic counts (a fresh array)."""

    @abc.abstractmethod
    def set_external_counts(self, word_topic: np.ndarray) -> None:
        """Sample against frozen word-topic counts of tokens owned elsewhere."""

    @abc.abstractmethod
    def clear_external_counts(self) -> None:
        """Drop the installed external counts (a no-op when there are none)."""

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def run_iteration(self) -> None:
        """One full sweep over every token."""
        self._sample_iteration()
        self.iterations_completed += 1

    def fit(
        self,
        num_iterations: int,
        tracker: Optional[ConvergenceTracker] = None,
        evaluate_every: int = 1,
    ) -> "Sampler":
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
        validate_fit_arguments(num_iterations, evaluate_every)
        if tracker is not None:
            tracker.start()
        obs = get_telemetry()
        for _ in range(num_iterations):
            if obs.enabled:
                started = time.perf_counter()
                with obs.span(
                    "sweep", sampler=self.name, iteration=self.iterations_completed
                ):
                    self.run_iteration()
                elapsed = time.perf_counter() - started
                num_tokens = self.corpus.num_tokens
                obs.count("sampler.tokens_sampled", num_tokens)
                if elapsed > 0:
                    obs.record("sampler.tokens_per_sec", num_tokens / elapsed)
            else:
                self.run_iteration()
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
        """Log joint likelihood ``log p(W, Z | α, β)`` of the current state.

        Computed from the assignments, so it is K-free in memory and never
        sees installed external counts; bit-equal to the dense-matrix form.
        """
        return log_joint_likelihood_from_assignments(
            self.corpus.token_documents,
            self.corpus.token_words,
            self.assignments,
            self.corpus.num_documents,
            self.corpus.vocabulary_size,
            self.num_topics,
            self.alpha,
            self.beta,
        )

    def theta(self) -> np.ndarray:
        """Point estimate of the document-topic proportions Θ (Eq. 4)."""
        counts = self.doc_topic_counts().astype(np.float64) + self.alpha
        return counts / counts.sum(axis=1, keepdims=True)

    def phi(self) -> np.ndarray:
        """Point estimate of the topic-word distributions Φ (K x V, Eq. 4)."""
        counts = self.word_topic_counts().T.astype(np.float64) + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def export_snapshot(self):
        """Freeze the current model into a :class:`~repro.serving.ModelSnapshot`.

        The snapshot captures Φ, α, β and the vocabulary and is the input to
        the serving layer (:mod:`repro.serving`).
        """
        # Imported here so the training layer has no hard dependency on serving.
        from repro.serving.snapshot import ModelSnapshot

        return ModelSnapshot.from_model(
            self,
            extra_metadata={field: getattr(self, field) for field in self.SNAPSHOT_FIELDS},
        )

    # ------------------------------------------------------------------ #
    # Driver protocol and mutable-state export/import
    # ------------------------------------------------------------------ #
    def set_assignments(self, assignments: np.ndarray) -> None:
        """Warm-start: replace every token's topic (checked as in :meth:`import_state`)."""
        self.assignments[:] = self._checked_topics(
            "assignments", assignments, self.assignments.shape
        )
        self._assignments_changed()

    def export_state(self) -> Dict[str, Any]:
        """Capture everything needed to continue this run bit-exactly.

        The counts are not exported: they are a pure function of the
        assignments (and, during a data-parallel epoch, of the external
        counts, which the trainer re-installs every epoch anyway).
        """
        return {
            "assignments": self.assignments.copy(),
            "rng_state": export_rng_state(self.rng),
            "iterations_completed": int(self.iterations_completed),
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`export_state`.

        Corrupt assignments or a corrupt counter raise ``ValueError`` before
        anything changes: assignments must be integer topics in ``[0, K)``,
        one per token, and the counter a non-negative integer — never
        truncated or wrapped.
        """
        counter = state["iterations_completed"]
        if not isinstance(counter, numbers.Integral) or counter < 0:
            raise ValueError(
                f"iterations_completed must be a non-negative integer, got {counter!r}"
            )
        self.set_assignments(state["assignments"])
        self.rng = restore_rng_state(state["rng_state"])
        self.iterations_completed = int(counter)

    def _checked_topics(
        self, name: str, topics: np.ndarray, shape: tuple
    ) -> np.ndarray:
        """``topics`` as int64 after the shared checks, or ``ValueError``."""
        topics = np.asarray(topics)
        if topics.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integer topics, got dtype {topics.dtype}")
        if topics.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {topics.shape}")
        if topics.size and (topics.min() < 0 or topics.max() >= self.num_topics):
            raise ValueError(f"{name} contain out-of-range topics")
        return topics.astype(np.int64, copy=False)

    def _checked_external_counts(self, word_topic: np.ndarray) -> np.ndarray:
        """A private, C-ordered int64 copy of a valid external ``V x K`` table."""
        word_topic = np.array(word_topic, dtype=np.int64, order="C")
        expected = (self.corpus.vocabulary_size, self.num_topics)
        if word_topic.shape != expected:
            raise ValueError(
                f"external word_topic must have shape {expected}, got "
                f"{word_topic.shape}"
            )
        if word_topic.size and word_topic.min() < 0:
            raise ValueError("external word-topic counts must be non-negative")
        return word_topic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(K={self.num_topics}, D={self.corpus.num_documents}, "
            f"iterations={self.iterations_completed})"
        )


class LDASampler(Sampler):
    """Base class of the count-matrix samplers (every baseline).

    The sampler's :class:`TopicState` holds the assignments and all three
    count structures, which the sweeps update in place.  External counts are
    *added onto* ``state.word_topic`` (and ``topic_counts``), so every
    kernel reads ``local + E`` without knowing about them, and are
    subtracted again by :meth:`clear_external_counts` — exactly, because
    each sweep moves counts between topics rather than rebuilding them.
    Parameters are those of :class:`Sampler`.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.state = TopicState(self.corpus, self.num_topics, rng=self.rng)
        self._external_word_topic: Optional[np.ndarray] = None

    @property
    def assignments(self) -> np.ndarray:
        """Per-token topic assignments (aligned with the corpus token order)."""
        return self.state.assignments

    def doc_topic_counts(self) -> np.ndarray:
        """The ``D x K`` document-topic counts (a copy)."""
        return self.state.doc_topic.copy()

    def word_topic_counts(self) -> np.ndarray:
        """This sampler's own ``V x K`` word-topic counts (a copy)."""
        counts = self.state.word_topic.copy()
        if self._external_word_topic is not None:
            counts -= self._external_word_topic
        return counts

    def set_external_counts(self, word_topic: np.ndarray) -> None:
        """Add frozen external word-topic counts onto the live ones."""
        external = self._checked_external_counts(word_topic)
        self.clear_external_counts()
        self.state.word_topic += external
        self._external_word_topic = external
        self._counts_changed()

    def clear_external_counts(self) -> None:
        """Subtract the installed external counts again."""
        if self._external_word_topic is None:
            return
        self.state.word_topic -= self._external_word_topic
        self._external_word_topic = None
        self._counts_changed()

    def _assignments_changed(self) -> None:
        self.state.recompute_counts()
        if self._external_word_topic is not None:
            self.state.word_topic += self._external_word_topic
        self._counts_changed()

    def _counts_changed(self) -> None:
        self.state.topic_counts = self.state.word_topic.sum(axis=0)
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop derived sampling caches (stale alias tables and the like).

        Called whenever the count matrices change underneath the sampler —
        external counts installed or cleared, assignments rewritten.  Every
        epoch of a data-parallel run therefore starts from a deterministic
        cache state, which checkpoint resume relies on for bit-exactness.
        The base class keeps no caches; samplers that do (AliasLDA,
        LightLDA) override this.
        """
