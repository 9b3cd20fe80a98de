"""Data-parallel LDA training across ``multiprocessing`` workers.

The execution model is the synchronous variant of the paper's Sec. 5 design,
specialised to document sharding:

1. the corpus is cut into ``num_workers`` contiguous document ranges with
   roughly equal token counts (:func:`contiguous_shards`),
   each a cheap :meth:`~repro.corpus.corpus.Corpus.slice` view;
2. every worker owns one shard and a sampler seeded from its own
   :func:`~repro.sampling.rng.spawn_rngs` stream;
3. each **epoch**, the master broadcasts the global word-topic counts; every
   worker samples its shard against those counts *frozen* (its own documents'
   counts stay live and exact — documents are disjoint across shards) and
   sends back its shard's count contribution; the master merges contributions
   at the barrier into the next global state.

A worker drives its sampler only through the protocol every sampler shares
(:class:`repro.samplers.base.Sampler`): ``set_external_counts(global −
own)``, ``fit``, ``clear_external_counts()``, ``word_topic_counts()`` — there
is no per-family branch.  For WarpLDA the frozen-counts epoch is exactly the
paper's delayed count update with the delay stretched from one phase to one
epoch, so the parallel update has the same MCEM justification as the serial
sampler.  For the collapsed-Gibbs baselines it is the standard AD-LDA
approximation.

Workers are long-lived processes connected by pipes; only count matrices
(V x K int64) cross the boundary per epoch, never the corpus.  A fully
deterministic ``backend="inline"`` runs the same protocol in-process — the
two backends produce bit-identical models for the same seed, which the test
suite checks.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.evaluation.convergence import ConvergenceTracker
from repro.evaluation.likelihood import log_joint_likelihood_from_assignments
from repro.obs import Telemetry, get_telemetry, use_telemetry
from repro.samplers.base import resolve_hyperparameters, validate_positive_int
from repro.samplers.registry import (
    SAMPLER_REGISTRY,
    build_sampler,
    validate_trainer_sampler,
)
from repro.sampling.rng import RngLike, spawn_rngs

if TYPE_CHECKING:  # serving imports stay lazy at runtime (PR 5 guarantee)
    from multiprocessing.connection import Connection

    from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "ParallelTrainer",
    "CONFIG_KEYS",
    "ShardRunner",
    "SAMPLER_REGISTRY",
    "contiguous_shards",
    "validate_schedule",
]

BACKENDS = ("process", "inline")


def contiguous_shards(sizes: np.ndarray, num_partitions: int) -> np.ndarray:
    """Cut items into contiguous ranges with roughly equal total size.

    The result is the ``num_partitions + 1`` boundary array such that shard
    ``p`` owns items ``[boundaries[p], boundaries[p + 1])``.  Contiguity is
    what makes the shards cheap corpus views
    (:meth:`repro.corpus.corpus.Corpus.slice`), the layout data-parallel
    training shards documents with.  Every shard gets at least one item, so
    ``num_partitions`` must not exceed ``len(sizes)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("sizes must be a non-empty 1-D array")
    if np.any(sizes < 0):
        raise ValueError("sizes must be non-negative")
    if not 0 < num_partitions <= sizes.size:
        raise ValueError(
            f"cannot cut {sizes.size} items into {num_partitions} non-empty "
            f"contiguous shards"
        )
    cumulative = np.cumsum(sizes)
    targets = cumulative[-1] * np.arange(1, num_partitions) / num_partitions
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    boundaries = np.empty(num_partitions + 1, dtype=np.int64)
    boundaries[0] = 0
    boundaries[-1] = sizes.size
    # Clamp so every shard keeps at least one item even when a single item
    # exceeds the fair share (power-law document lengths make that real).
    for partition in range(1, num_partitions):
        low = boundaries[partition - 1] + 1
        high = sizes.size - (num_partitions - partition)
        boundaries[partition] = min(max(int(cuts[partition - 1]), low), high)
    return boundaries


def validate_schedule(
    *, num_workers: int = 2, iterations_per_epoch: int = 1, backend: str = "process"
) -> None:
    """Raise ``ValueError`` for :class:`ParallelTrainer`'s own options.

    Its constructor and :class:`repro.api.ModelSpec` both run this one check,
    so a spec that constructs is a spec that runs.
    """
    validate_positive_int("num_workers", num_workers)
    validate_positive_int("iterations_per_epoch", iterations_per_epoch)
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be {BACKENDS[0]!r} or {BACKENDS[1]!r}, got {backend!r}"
        )


#: The keywords :attr:`ParallelTrainer.config` records (every shard's sampler
#: keywords plus the epoch length): the keys of a checkpoint's ``config``.
CONFIG_KEYS = ("sampler", "num_topics", "alpha", "beta", "num_mh_steps", "kernel",
               "threads", "iterations_per_epoch")


class ShardRunner:
    """One worker's sampler over one document shard.

    The same object runs inside a worker process (``backend="process"``) or
    directly in the master (``backend="inline"``); the trainer only speaks
    the four-verb protocol below, so the backends are interchangeable.
    ``config`` is the trainer's keyword dict (:attr:`ParallelTrainer.config`).
    """

    def __init__(
        self,
        shard: Corpus,
        config: Dict[str, Any],
        rng: np.random.Generator,
        index: int = 0,
    ) -> None:
        options = dict(config)
        algorithm = options.pop("sampler")
        self.iterations_per_epoch = options.pop("iterations_per_epoch")
        self.index = int(index)
        self.sampler: Any = build_sampler(algorithm, shard, seed=rng, **options)
        # The shard's contribution only changes while sampling, so it is
        # read once per barrier and reused for the next epoch's external
        # counts (V x K can be large on real corpora).
        self._contribution = self.sampler.word_topic_counts()

    # ------------------------------------------------------------------ #
    def word_topic_counts(self) -> np.ndarray:
        """This shard's own ``V x K`` word-topic count contribution."""
        return self._contribution

    def run_epoch(
        self, global_word_topic: np.ndarray, instrument: bool = False
    ) -> Tuple[np.ndarray, Optional[Dict[str, Any]]]:
        """One barrier-to-barrier step: sample against frozen global counts.

        Returns ``(contribution, telemetry_payload)``: the shard's *new*
        local contribution — the master's merge is ``global' = Σ_shards
        contribution``, which equals applying every shard's delta to the
        old global state — plus, when ``instrument`` is set, an
        :meth:`repro.obs.Telemetry.export_payload` dict (with a ``seconds``
        key for the shard's epoch wall-time) for the master to absorb.
        Instrumentation is capture-only — it never touches the samplers'
        RNG streams, so instrumented epochs stay bit-identical.
        """
        if not instrument:
            self._sample_epoch(global_word_topic)
            return self._contribution, None
        capture = Telemetry()
        started = time.perf_counter()
        try:
            with use_telemetry(capture):
                with capture.span("shard", worker=self.index):
                    self._sample_epoch(global_word_topic)
        finally:
            capture.close()
        payload = capture.export_payload()
        payload["seconds"] = time.perf_counter() - started
        payload["worker"] = self.index
        return self._contribution, payload

    def _sample_epoch(self, global_word_topic: np.ndarray) -> None:
        self.sampler.set_external_counts(global_word_topic - self._contribution)
        try:
            self.sampler.fit(self.iterations_per_epoch)
        finally:
            self.sampler.clear_external_counts()
        self._contribution = self.sampler.word_topic_counts()

    def export_state(self) -> Dict[str, Any]:
        """The sampler's resumable state (see the samplers' ``export_state``)."""
        return self.sampler.export_state()

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`export_state`."""
        self.sampler.import_state(state)
        self._contribution = self.sampler.word_topic_counts()

    def assignments(self) -> np.ndarray:
        """Per-token topic assignments of this shard (corpus token order)."""
        return self.sampler.assignments.copy()


def _worker_main(
    conn: Connection,
    shard: Corpus,
    config: Dict[str, Any],
    rng: np.random.Generator,
    index: int = 0,
) -> None:
    """Entry point of a worker process: serve the shard protocol over a pipe."""
    try:
        runner = ShardRunner(shard, config, rng, index=index)
        conn.send(("ready", runner.word_topic_counts()))
    except Exception:  # noqa: BLE001 - relayed to the master verbatim
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command, payload = message
        try:
            if command == "epoch":
                global_word_topic, instrument = payload
                conn.send(("counts", runner.run_epoch(global_word_topic, instrument)))
            elif command == "export":
                conn.send(("state", runner.export_state()))
            elif command == "import":
                runner.import_state(payload)
                conn.send(("ok", None))
            elif command == "assignments":
                conn.send(("assignments", runner.assignments()))
            elif command == "stop":
                conn.send(("ok", None))
                break
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception:  # noqa: BLE001 - relayed to the master verbatim
            conn.send(("error", traceback.format_exc()))
    conn.close()


class _ProcessWorker:
    """A shard runner living in its own OS process, spoken to over a pipe."""

    def __init__(
        self,
        context: multiprocessing.context.BaseContext,
        shard: Corpus,
        config: Dict[str, Any],
        rng: np.random.Generator,
        index: int = 0,
    ) -> None:
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_worker_main,
            args=(child_conn, shard, config, rng, index),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def post(self, command: str, payload: Any = None) -> None:
        self._conn.send((command, payload))

    def wait(self) -> Any:
        try:
            kind, payload = self._conn.recv()
        except EOFError as exc:
            raise RuntimeError("training worker exited unexpectedly") from exc
        if kind == "error":
            raise RuntimeError(f"training worker failed:\n{payload}")
        return payload

    def close(self) -> None:
        try:
            if self._process.is_alive():
                self.post("stop")
                self.wait()
        except (BrokenPipeError, OSError, RuntimeError):
            pass
        finally:
            self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.terminate()
                self._process.join(timeout=5)
            self._conn.close()


class _InlineWorker:
    """The same protocol executed synchronously in the master process."""

    def __init__(
        self, shard: Corpus, config: Dict[str, Any], rng: np.random.Generator, index: int = 0
    ) -> None:
        self._runner = ShardRunner(shard, config, rng, index=index)
        self._pending: Any = self._runner.word_topic_counts()

    def post(self, command: str, payload: Any = None) -> None:
        if command == "epoch":
            # run_epoch installs its own capture telemetry via use_telemetry,
            # which restores the master's instance on exit — inline and
            # process backends see the same telemetry environment.
            self._pending = self._runner.run_epoch(*payload)
        elif command == "export":
            self._pending = self._runner.export_state()
        elif command == "import":
            self._runner.import_state(payload)
            self._pending = None
        elif command == "assignments":
            self._pending = self._runner.assignments()
        elif command == "stop":
            self._pending = None
        else:
            raise ValueError(f"unknown command {command!r}")

    def wait(self) -> Any:
        pending, self._pending = self._pending, None
        return pending

    def close(self) -> None:
        self._runner = None


class ParallelTrainer:
    """Synchronous data-parallel trainer over document shards.

    Parameters
    ----------
    corpus:
        The full training corpus; workers receive contiguous document-range
        views of it.
    num_workers:
        Number of shards / worker processes.
    seed:
        Master seed; per-worker streams are derived with
        :func:`~repro.sampling.rng.spawn_rngs`, so a single seed makes the
        whole run — including checkpoints — bit-reproducible.
    backend:
        ``"process"`` (real ``multiprocessing`` workers, the default) or
        ``"inline"`` (same protocol, master process only — for tests,
        debugging and single-core machines).
    sampler, num_topics, alpha, beta, num_mh_steps, kernel, threads:
        Every shard's sampler, as :func:`repro.samplers.registry.build_sampler`
        takes them; ``alpha`` must be a scalar or ``None`` (50/K).
    iterations_per_epoch:
        Full sweeps every worker runs between two merge barriers.  1 keeps
        the external counts at most one iteration stale (the serial sampler's
        own delay); larger values trade staleness for fewer barriers.

    Examples
    --------
    >>> from repro.corpus import load_preset
    >>> from repro.training import ParallelTrainer
    >>> corpus = load_preset("nytimes_like", scale=0.05, seed=0)
    >>> with ParallelTrainer(corpus, num_workers=2, num_topics=10, seed=0,
    ...                      backend="inline") as trainer:
    ...     phi = trainer.train(3).phi()
    >>> phi.shape[0]
    10
    """

    def __init__(
        self,
        corpus: Corpus,
        num_workers: int = 2,
        *,
        seed: RngLike = None,
        backend: str = "process",
        sampler: str = "warplda",
        num_topics: int = 10,
        alpha: Optional[float] = None,
        beta: float = 0.01,
        num_mh_steps: int = 2,
        iterations_per_epoch: int = 1,
        kernel: str = "slab",
        threads: Optional[int] = None,
    ) -> None:
        sampler_keywords: Dict[str, Any] = {
            "num_topics": num_topics,
            "alpha": alpha,
            "beta": beta,
            "num_mh_steps": num_mh_steps,
            "kernel": kernel,
            "threads": threads,
        }
        validate_trainer_sampler(sampler, **sampler_keywords)
        validate_schedule(
            num_workers=num_workers, iterations_per_epoch=iterations_per_epoch, backend=backend
        )
        #: The run's :data:`CONFIG_KEYS` keywords, as the ``config`` block of
        #: ``checkpoint.json`` records them.
        self.config: Dict[str, Any] = {
            "sampler": sampler,
            **sampler_keywords,
            "iterations_per_epoch": iterations_per_epoch,
        }
        self.corpus = corpus
        self.num_workers = int(num_workers)
        self.backend = backend
        self.alpha, self.alpha_sum, self.beta, self.beta_sum = resolve_hyperparameters(
            num_topics, alpha, beta, corpus.vocabulary_size
        )
        self.num_topics = num_topics

        self.boundaries = contiguous_shards(corpus.document_lengths(), num_workers)
        shards = [
            corpus.slice(int(self.boundaries[i]), int(self.boundaries[i + 1]))
            for i in range(num_workers)
        ]
        rngs = spawn_rngs(seed, num_workers)

        self._workers: List[Any]
        if backend == "inline":
            self._workers = [
                _InlineWorker(shard, self.config, rng, index=i)
                for i, (shard, rng) in enumerate(zip(shards, rngs))
            ]
        else:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            context = multiprocessing.get_context(method)
            self._workers = [
                _ProcessWorker(context, shard, self.config, rng, index=i)
                for i, (shard, rng) in enumerate(zip(shards, rngs))
            ]
        # Barrier 0: collect the initial contributions into the global state.
        # A worker whose sampler fails to build reports here; reap the
        # surviving workers before re-raising so a failed construction never
        # leaks live processes.
        self._closed = False
        try:
            contributions = [worker.wait() for worker in self._workers]
        except BaseException:
            self.close()
            raise
        self.global_word_topic = np.sum(contributions, axis=0, dtype=np.int64)
        self.epochs_completed = 0
        #: Free-form resume provenance, merged into exported snapshot metadata
        #: (populated by Checkpoint.restore).
        self.provenance: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def run_epoch(self) -> None:
        """One synchronous epoch: broadcast, sample shards, merge at the barrier.

        When telemetry is active the whole epoch runs under an ``epoch`` span;
        each worker captures its shard's spans and metrics locally and ships
        them home with its contribution, and the master absorbs them plus
        derives the scaling diagnostics: ``parallel.worker_epoch_seconds``
        (per-shard wall-time histogram), ``parallel.barrier_wait_seconds``
        (how long each shard's result sat waiting for the slowest shard),
        and the ``parallel.shard_skew_seconds`` gauge (slowest − fastest).
        """
        self._check_open()
        obs = get_telemetry()
        if not obs.enabled:
            for worker in self._workers:
                worker.post("epoch", (self.global_word_topic, False))
            replies = [worker.wait() for worker in self._workers]
            contributions = [counts for counts, _ in replies]
        else:
            with obs.span(
                "epoch", epoch=self.epochs_completed, workers=self.num_workers
            ):
                barrier_started = time.perf_counter()
                for worker in self._workers:
                    worker.post("epoch", (self.global_word_topic, True))
                replies = [worker.wait() for worker in self._workers]
                barrier_seconds = time.perf_counter() - barrier_started
                contributions = []
                shard_seconds: List[float] = []
                for counts, payload in replies:
                    contributions.append(counts)
                    if payload is None:
                        continue
                    obs.absorb(payload)
                    seconds = payload.get("seconds")
                    if seconds is not None:
                        shard_seconds.append(float(seconds))
                        obs.observe("parallel.worker_epoch_seconds", float(seconds))
                if shard_seconds:
                    # A shard's barrier wait is the gap between its own finish
                    # and the barrier release (dominated by the slowest shard).
                    for seconds in shard_seconds:
                        obs.observe(
                            "parallel.barrier_wait_seconds",
                            max(0.0, barrier_seconds - seconds),
                        )
                    obs.gauge(
                        "parallel.shard_skew_seconds",
                        max(shard_seconds) - min(shard_seconds),
                    )
        self.global_word_topic = np.sum(contributions, axis=0, dtype=np.int64)
        self.epochs_completed += 1

    def train(
        self,
        num_epochs: int,
        tracker: Optional[ConvergenceTracker] = None,
        evaluate_every: int = 1,
        checkpoint_dir: Optional[Any] = None,
        checkpoint_every: int = 0,
    ) -> "ParallelTrainer":
        """Run ``num_epochs`` epochs, optionally tracking and checkpointing.

        Parameters
        ----------
        num_epochs:
            Number of merge barriers to run.
        tracker:
            Optional convergence tracker; the *global* log joint likelihood is
            recorded every ``evaluate_every`` epochs.
        evaluate_every:
            Evaluation stride.
        checkpoint_dir:
            If given, a resumable checkpoint is written there every
            ``checkpoint_every`` epochs and after the final epoch.
        checkpoint_every:
            Checkpoint stride; ``0`` means only after the final epoch.
        """
        if num_epochs < 0:
            raise ValueError(f"num_epochs must be non-negative, got {num_epochs}")
        if evaluate_every <= 0:
            raise ValueError(f"evaluate_every must be positive, got {evaluate_every}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be non-negative, got {checkpoint_every}"
            )
        if tracker is not None:
            tracker.start()
        for epoch in range(num_epochs):
            self.run_epoch()
            if tracker is not None and self.epochs_completed % evaluate_every == 0:
                iterations = self.epochs_completed * self.config["iterations_per_epoch"]
                tracker.record(
                    iteration=iterations,
                    log_likelihood=self.log_likelihood(),
                    tokens_processed=iterations * self.corpus.num_tokens,
                )
            due = checkpoint_every and (epoch + 1) % checkpoint_every == 0
            if checkpoint_dir is not None and (due or epoch == num_epochs - 1):
                self.save_checkpoint(checkpoint_dir)
        return self

    # ------------------------------------------------------------------ #
    # Gathered model access (mirrors the single-process samplers)
    # ------------------------------------------------------------------ #
    def assignments(self) -> np.ndarray:
        """Per-token topic assignments, gathered in corpus token order."""
        self._check_open()
        for worker in self._workers:
            worker.post("assignments")
        return np.concatenate([worker.wait() for worker in self._workers])

    def export_worker_states(self) -> List[Dict[str, Any]]:
        """Every worker's resumable sampler state, in shard order."""
        self._check_open()
        for worker in self._workers:
            worker.post("export")
        return [worker.wait() for worker in self._workers]

    def import_worker_states(self, states: Sequence[Dict[str, Any]]) -> None:
        """Restore worker states (shard order) and re-merge the global counts."""
        self._check_open()
        if len(states) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} worker states, got {len(states)}"
            )
        for worker, state in zip(self._workers, states):
            worker.post("import", state)
        for worker in self._workers:
            worker.wait()
        # The imported assignments define the contributions; re-merge.
        self.global_word_topic = self._merge_contributions()

    def _merge_contributions(self) -> np.ndarray:
        assignments = self.assignments()
        counts = np.zeros(
            (self.corpus.vocabulary_size, self.num_topics), dtype=np.int64
        )
        np.add.at(counts, (self.corpus.token_words, assignments), 1)
        return counts

    def word_topic_counts(self) -> np.ndarray:
        """The merged global ``V x K`` word-topic counts (a copy)."""
        return self.global_word_topic.copy()

    def doc_topic_counts(self) -> np.ndarray:
        """The global ``D x K`` document-topic counts (gathered)."""
        counts = np.zeros((self.corpus.num_documents, self.num_topics), dtype=np.int64)
        np.add.at(counts, (self.corpus.token_documents, self.assignments()), 1)
        return counts

    def phi(self) -> np.ndarray:
        """Topic-word distributions Φ of the merged global state (K x V)."""
        counts = self.global_word_topic.T.astype(np.float64) + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def theta(self) -> np.ndarray:
        """Document-topic proportions Θ of the gathered global state."""
        counts = self.doc_topic_counts().astype(np.float64) + self.alpha
        return counts / counts.sum(axis=1, keepdims=True)

    def log_likelihood(self) -> float:
        """Global log joint likelihood ``log p(W, Z | α, β)``."""
        return log_joint_likelihood_from_assignments(
            self.corpus.token_documents,
            self.corpus.token_words,
            self.assignments(),
            self.corpus.num_documents,
            self.corpus.vocabulary_size,
            self.num_topics,
            self.alpha,
            self.beta,
        )

    def export_snapshot(
        self, extra_metadata: Optional[Dict[str, Any]] = None
    ) -> "ModelSnapshot":
        """Freeze the merged model into a serving snapshot."""
        from repro.serving.snapshot import ModelSnapshot

        metadata = {
            "sampler": f"Parallel[{self.config['sampler']}]",
            "iterations": self.epochs_completed * self.config["iterations_per_epoch"],
            "epochs": self.epochs_completed,
            "num_workers": self.num_workers,
            "num_documents": int(self.corpus.num_documents),
            "num_tokens": int(self.corpus.num_tokens),
        }
        metadata.update(self.provenance)
        if extra_metadata:
            metadata.update(extra_metadata)
        return ModelSnapshot(
            phi=self.phi(),
            alpha=self.alpha,
            beta=self.beta,
            vocabulary=self.corpus.vocabulary,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, directory: Union[str, Path]) -> Path:
        """Write a resumable checkpoint; returns the directory written."""
        from repro.training.checkpoint import Checkpoint

        return Checkpoint.capture(self).save(directory)

    @classmethod
    def resume(
        cls,
        directory: Union[str, Path],
        corpus: Corpus,
        backend: str = "process",
    ) -> "ParallelTrainer":
        """Rebuild a trainer from a checkpoint and continue bit-exactly.

        ``corpus`` must be the corpus the checkpointed run trained on (a
        fingerprint in the checkpoint guards against mix-ups).
        """
        from repro.training.checkpoint import Checkpoint

        return Checkpoint.load(directory).restore(corpus, backend=backend)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers; the trainer is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()
        self._workers = []

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("trainer is closed")

    def __enter__(self) -> "ParallelTrainer":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelTrainer(sampler={self.config['sampler']!r}, "
            f"K={self.num_topics}, workers={self.num_workers}, "
            f"backend={self.backend!r}, epochs={self.epochs_completed})"
        )
