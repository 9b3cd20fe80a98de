"""Online LDA training over a sliding window of the document stream.

:class:`OnlineTrainer` turns the batch samplers into a continuously-updating
model.  Each ingested mini-batch is appended to a
:class:`~repro.streaming.corpus.StreamingCorpus`, and a few Gibbs sweeps are
run over a sliding window of the most recent documents using the *existing*
slab kernels (:mod:`repro.kernels`) — the streaming layer adds no new
sampling math, only the bookkeeping that makes incremental refreshes sound:

* **Warm-started window sweeps** — per-token topic assignments persist
  across batches in a stream-aligned buffer, so each update resumes the
  chain where the previous batch left it instead of re-burning in; only the
  newly arrived tokens start from random topics.  A window sweep is the same
  three calls on every sampler (:class:`repro.samplers.base.Sampler`):
  ``set_assignments(warm)``, ``set_external_counts(retired)``, ``fit``.
* **Retired counts** — when a document ages out of the window its tokens'
  final assignments are folded into a float ``V x K`` "retired" word-topic
  matrix.  Window sweeps sample against ``retired + window`` counts (the
  AD-LDA / delayed-count device the data-parallel trainer already uses:
  retired mass is installed as frozen external counts through the protocol
  every sampler shares), so old documents keep shaping Φ without being
  re-sampled.
* **Exponential decay** — the retired matrix is multiplied by ``decay`` per
  batch, so data ages out at a configurable half-life and the model tracks
  drift; ``decay=1`` keeps every document's mass forever, which makes the
  online model converge to the batch retrain on the same cumulative corpus
  (the parity the end-to-end test checks).

The trained model is published as an ordinary
:class:`~repro.serving.snapshot.ModelSnapshot`, so the whole serving stack —
registry, hot-swap server, inference engine — works on streaming models
unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Union
if TYPE_CHECKING:  # serving imports stay lazy at runtime (PR 5 guarantee)
    from repro.serving.snapshot import ModelSnapshot


import numpy as np

from repro.corpus.corpus import Corpus, DocumentLike
from repro.corpus.vocabulary import Vocabulary
from repro.samplers.base import resolve_hyperparameters, validate_positive_int
from repro.samplers.registry import build_sampler, validate_trainer_sampler
from repro.sampling.rng import RngLike, ensure_rng
from repro.streaming.corpus import StreamingCorpus
from repro.streaming.stream import MiniBatch

__all__ = ["OnlineTrainer", "OnlineUpdate", "validate_schedule"]


def validate_schedule(
    *, window_docs: int = 1024, sweeps_per_batch: int = 2, decay: float = 1.0
) -> None:
    """Raise ``ValueError`` for :class:`OnlineTrainer`'s own options.

    Its constructor and :class:`repro.api.ModelSpec` both run this one check,
    so a spec that constructs is a spec that runs.
    """
    validate_positive_int("window_docs", window_docs)
    validate_positive_int("sweeps_per_batch", sweeps_per_batch)
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")


@dataclass(frozen=True)
class OnlineUpdate:
    """What one :meth:`OnlineTrainer.ingest` call did.

    ``window_documents``/``window_tokens`` count what this update swept —
    the previous window plus the arriving batch, i.e. at most
    ``window_docs + batch`` documents; ``retired_documents`` is how many of
    them aged out (after the sweep) into the decayed external counts.
    """

    batch_index: int
    documents_added: int
    tokens_added: int
    window_documents: int
    window_tokens: int
    retired_documents: int
    vocabulary_size: int
    train_seconds: float


class OnlineTrainer:
    """Fold arriving mini-batches into a continuously-fresh topic model.

    Parameters
    ----------
    vocabulary:
        The (growing) vocabulary the stream encodes against; a fresh one is
        created when omitted.  Ignored when ``corpus`` is given.
    corpus:
        An existing *empty* :class:`StreamingCorpus` to ingest into.
    seed:
        Seed or generator driving assignment initialisation and every
        window sweep; one seed makes the whole stream reproducible.
    num_topics, alpha, beta, sampler, kernel, threads, num_mh_steps:
        Every window sweep's sampler, as
        :func:`repro.samplers.registry.build_sampler` takes them; ``alpha``
        must be a scalar or ``None`` (50/K).  ``sampler`` defaults to
        ``"cgs"``: the exact sampler mixes fastest per sweep, which matters
        when each batch only gets a few sweeps.
    window_docs:
        Sliding-window size in documents.  Documents beyond the window are
        retired into the decayed external counts.
    sweeps_per_batch:
        Gibbs sweeps over the window per ingested mini-batch.
    decay:
        Exponential factor applied to the retired counts once per batch;
        ``1.0`` disables ageing, smaller values forget old data faster.

    Examples
    --------
    >>> trainer = OnlineTrainer(num_topics=5, window_docs=100, seed=0)
    >>> vocab = trainer.corpus.vocabulary
    >>> update = trainer.ingest([vocab.encode(t.split(), on_oov="add")
    ...                          for t in ["cats purr", "dogs bark"]])
    >>> update.documents_added
    2
    >>> trainer.export_snapshot().num_topics
    5
    """

    def __init__(
        self,
        *,
        vocabulary: Optional[Vocabulary] = None,
        corpus: Optional[StreamingCorpus] = None,
        seed: RngLike = None,
        num_topics: int = 20,
        alpha: Optional[float] = None,
        beta: float = 0.01,
        sampler: str = "cgs",
        kernel: str = "slab",
        threads: Optional[int] = None,
        window_docs: int = 1024,
        sweeps_per_batch: int = 2,
        decay: float = 1.0,
        num_mh_steps: int = 2,
    ) -> None:
        #: Keywords of every window sweep's sampler (``build_sampler``'s).
        self._sampler_keywords: Dict[str, Any] = {
            "algorithm": sampler,
            "num_topics": num_topics,
            "alpha": alpha,
            "beta": beta,
            "num_mh_steps": num_mh_steps,
            "kernel": kernel,
            "threads": threads,
        }
        validate_trainer_sampler(**self._sampler_keywords)
        validate_schedule(
            window_docs=window_docs, sweeps_per_batch=sweeps_per_batch, decay=decay
        )
        if corpus is None:
            corpus = StreamingCorpus(vocabulary)
        elif corpus.num_documents:
            raise ValueError(
                "OnlineTrainer requires an empty StreamingCorpus; ingest "
                "existing documents through ingest() so they are trained on"
            )
        self.window_docs = window_docs
        self.sweeps_per_batch = sweeps_per_batch
        self.decay = decay
        self.corpus = corpus
        self.rng = ensure_rng(seed)
        self.num_topics = num_topics
        self.alpha, self.alpha_sum, self.beta, _ = resolve_hyperparameters(
            num_topics, alpha, beta, vocabulary_size=1
        )
        # Stream-aligned per-token assignments (capacity-doubling store).
        self._assignment_store = np.empty(1024, dtype=np.int64)
        # Decayed word-topic counts of documents that aged out of the window.
        self._retired = np.zeros((corpus.vocabulary_size, self.num_topics))
        # Documents [0, _retired_docs) are folded into the retired counts;
        # documents [_retired_docs, D) are the live window.
        self._retired_docs = 0
        self.batches_ingested = 0
        self.documents_ingested = 0
        self.tokens_ingested = 0
        self.train_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Internal state helpers
    # ------------------------------------------------------------------ #
    @property
    def assignments(self) -> np.ndarray:
        """Per-token topic assignments for the whole stream (live view)."""
        return self._assignment_store[: self.corpus.num_tokens]

    def _grow_assignments(self, old_tokens: int) -> None:
        total = self.corpus.num_tokens
        if total > self._assignment_store.size:
            capacity = self._assignment_store.size
            while capacity < total:
                capacity *= 2
            store = np.empty(capacity, dtype=np.int64)
            store[:old_tokens] = self._assignment_store[:old_tokens]
            self._assignment_store = store
        added = total - old_tokens
        if added:
            self._assignment_store[old_tokens:total] = self.rng.integers(
                self.num_topics, size=added
            )

    def _grow_retired(self) -> None:
        vocab_size = self.corpus.vocabulary_size
        if vocab_size > self._retired.shape[0]:
            grown = np.zeros((vocab_size, self.num_topics))
            grown[: self._retired.shape[0]] = self._retired
            self._retired = grown

    def _retire_documents(self, new_start: int) -> int:
        """Fold documents ``[_retired_docs, new_start)`` into the retired counts."""
        retired = new_start - self._retired_docs
        if retired <= 0:
            return 0
        offsets = self.corpus.doc_offsets
        start, stop = int(offsets[self._retired_docs]), int(offsets[new_start])
        np.add.at(
            self._retired,
            (self.corpus.token_words[start:stop], self.assignments[start:stop]),
            1.0,
        )
        self._retired_docs = new_start
        return retired

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        batch: Union[MiniBatch, Sequence[DocumentLike]],
    ) -> OnlineUpdate:
        """Append one mini-batch and run the window sweeps.

        ``batch`` is a :class:`~repro.streaming.stream.MiniBatch` or any
        sequence of encoded documents (word-id arrays / ``Document``).  The
        vocabulary must already contain every id (the ingestion layer grows
        it at encode time).
        """
        documents = batch.documents if isinstance(batch, MiniBatch) else list(batch)
        started = time.perf_counter()
        old_tokens = self.corpus.num_tokens
        added_tokens = self.corpus.append(documents)
        self._grow_assignments(old_tokens)
        self._grow_retired()
        if self.decay < 1.0 and self._retired.any():
            self._retired *= self.decay

        # Sweep over everything not yet retired — the previous window plus
        # the arriving batch — and only *then* retire down to the new window
        # start.  Retiring first would fold the new tokens' random initial
        # assignments into the retired counts unsampled whenever a batch is
        # larger than the window (pure noise, never corrected).
        num_docs = self.corpus.num_documents
        sweep_start = self._retired_docs
        window = self.corpus.slice(sweep_start, num_docs)
        window_token_start = int(self.corpus.doc_offsets[sweep_start])
        warm = self.assignments[window_token_start:]
        if window.num_tokens:
            self._sweep_window(window, warm)

        window_start = max(0, num_docs - self.window_docs)
        retired_now = self._retire_documents(window_start)

        elapsed = time.perf_counter() - started
        self.batches_ingested += 1
        self.documents_ingested += len(documents)
        self.tokens_ingested += added_tokens
        self.train_seconds += elapsed
        return OnlineUpdate(
            batch_index=self.batches_ingested - 1,
            documents_added=len(documents),
            tokens_added=added_tokens,
            window_documents=window.num_documents,
            window_tokens=window.num_tokens,
            retired_documents=retired_now,
            vocabulary_size=self.corpus.vocabulary_size,
            train_seconds=elapsed,
        )

    def _sweep_window(self, window: Corpus, warm: np.ndarray) -> None:
        """Run the configured sweeps over ``window``, warm-started at ``warm``.

        The retired counts enter as frozen external mass — exactly the
        epoch-frozen external counts of the data-parallel trainer, with the
        window playing the role of the local shard — and the refined
        assignments are written back into the stream-aligned buffer.
        """
        sampler = build_sampler(corpus=window, seed=self.rng, **self._sampler_keywords)
        sampler.set_assignments(warm)
        sampler.set_external_counts(np.rint(self._retired).astype(np.int64))
        sampler.fit(self.sweeps_per_batch)
        warm[:] = sampler.assignments

    # ------------------------------------------------------------------ #
    # Model access
    # ------------------------------------------------------------------ #
    def word_topic_counts(self, vocab_size: Optional[int] = None) -> np.ndarray:
        """The model's effective ``V x K`` counts: retired (decayed) + window.

        ``vocab_size`` defaults to the live vocabulary size, which may be
        *larger* than anything ingested so far — the ingestion layer grows
        the shared vocabulary at push time, before the batch reaches this
        trainer.  Words never ingested simply have zero counts.
        """
        if vocab_size is None:
            vocab_size = self.corpus.vocabulary_size
        counts = np.zeros((vocab_size, self.num_topics))
        counts[: self._retired.shape[0]] = self._retired
        offsets = self.corpus.doc_offsets
        start = int(offsets[self._retired_docs]) if self.corpus.num_documents else 0
        if self.corpus.num_tokens > start:
            np.add.at(
                counts,
                (self.corpus.token_words[start:], self.assignments[start:]),
                1.0,
            )
        return counts

    def phi(self, vocab_size: Optional[int] = None) -> np.ndarray:
        """Posterior-mean topic-word distributions Φ (``K x V``)."""
        if vocab_size is None:
            vocab_size = self.corpus.vocabulary_size
        if vocab_size == 0:
            raise ValueError("cannot compute phi before any vocabulary exists")
        counts = self.word_topic_counts(vocab_size).T + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def export_snapshot(
        self, extra_metadata: Optional[Dict[str, Any]] = None
    ) -> "ModelSnapshot":
        """Freeze the current online model into a serving snapshot.

        Safe to call while the ingestion layer keeps growing the shared
        vocabulary: the export captures the vocabulary as a fixed prefix and
        sizes Φ to match, so pushed-but-not-yet-ingested words never
        desynchronise Φ from the snapshot vocabulary.
        """
        from repro.serving.snapshot import ModelSnapshot

        if self.batches_ingested == 0 or self.corpus.num_tokens == 0:
            raise ValueError("cannot export a snapshot before ingesting any tokens")
        words = self.corpus.vocabulary.words()
        metadata: Dict[str, Any] = {
            "sampler": f"Online[{self._sampler_keywords['algorithm']}]",
            "batches_ingested": self.batches_ingested,
            "num_documents": int(self.corpus.num_documents),
            "num_tokens": int(self.corpus.num_tokens),
            "window_docs": self.window_docs,
            "decay": self.decay,
        }
        if extra_metadata:
            metadata.update(extra_metadata)
        return ModelSnapshot(
            phi=self.phi(vocab_size=len(words)),
            alpha=self.alpha,
            beta=self.beta,
            vocabulary=Vocabulary(words),
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineTrainer(sampler={self._sampler_keywords['algorithm']!r}, "
            f"K={self.num_topics}, batches={self.batches_ingested}, "
            f"D={self.corpus.num_documents}, V={self.corpus.vocabulary_size})"
        )
