"""The :class:`LDA` estimator: one front door for every workload.

``LDA`` wraps a :class:`~repro.api.spec.ModelSpec` and dispatches to the
existing layers:

=================  ====================================================
call               dispatches to
=================  ====================================================
``fit``            a serial sampler (``WarpLDA`` / the baselines) or a
                   :class:`~repro.training.parallel.ParallelTrainer`
                   (optionally checkpointing to / resuming from a
                   :class:`~repro.training.checkpoint.Checkpoint`
                   directory); on the online backend, replays the corpus
                   through ``partial_fit``
``partial_fit``    :class:`~repro.streaming.online.OnlineTrainer` behind
                   a :class:`~repro.streaming.pipeline.StreamingPipeline`
                   publishing into a :class:`~repro.streaming.registry
                   .ModelRegistry`
``transform``      :class:`~repro.serving.infer.InferenceEngine`
``serve``          :class:`~repro.serving.server.TopicServer` (following
                   the online registry for hot-swap when available)
``save``/``load``  :class:`~repro.serving.snapshot.ModelSnapshot`, with
                   the spec JSON embedded in the metadata so a saved
                   model reloads as a ready ``LDA``
=================  ====================================================

Construction is lazy: :func:`build_engine` passes the spec's values and
seed, as keywords, to :func:`repro.samplers.registry.build_sampler`,
:class:`~repro.training.parallel.ParallelTrainer` or
:class:`~repro.streaming.online.OnlineTrainer`, so a facade run is
bit-identical to direct construction from the same values and seed (the
equivalence the test suite checks).  Heavy layers (``multiprocessing``,
serving, streaming) are imported only when the spec actually reaches them.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.spec import SPEC_METADATA_KEY, ModelSpec
from repro.samplers.base import resolve_kernel, validate_positive_int
from repro.samplers.registry import SAMPLER_REGISTRY, build_sampler

if TYPE_CHECKING:  # heavy layers stay lazy at runtime (PR 5 guarantee)
    from repro.corpus.corpus import Corpus
    from repro.service.http import TopicService
    from repro.serving.infer import InferenceEngine
    from repro.serving.server import TopicServer
    from repro.serving.snapshot import ModelSnapshot
    from repro.streaming.registry import ModelRegistry
    from repro.streaming.stream import MiniBatch

__all__ = ["LDA", "build_engine", "iter_token_batches"]


def _materialize(document: Any) -> Any:
    """Make ``document`` indexable without losing elements.

    Generators/iterators must be materialised *before* any type sniffing:
    peeking with ``next(iter(...))`` would silently consume (and drop) the
    first token of a one-shot iterable.
    """
    if isinstance(document, str):
        raise TypeError(
            "a document must be a sequence of tokens, not a bare string; "
            "tokenize first (e.g. text.split())"
        )
    if hasattr(document, "__getitem__"):
        return document
    return list(document)


def _is_token_document(document: Any) -> bool:
    """True when (materialised) ``document`` is a sequence of raw tokens."""
    return len(document) > 0 and isinstance(document[0], str)


def iter_token_batches(
    corpus: "Corpus", batch_docs: int
) -> Iterator[List[List[str]]]:
    """Replay ``corpus`` as mini-batches of raw token documents.

    Word ids are decoded back to words through the corpus vocabulary — the
    form a live stream delivers — so the online layer exercises its own
    vocabulary growth.  Shared by :meth:`LDA.fit` on the online backend and
    the ``python -m repro stream`` subcommand.
    """
    validate_positive_int("batch_docs", batch_docs)
    vocabulary = corpus.vocabulary
    for start in range(0, corpus.num_documents, batch_docs):
        stop = min(start + batch_docs, corpus.num_documents)
        yield [
            [vocabulary.word(w) for w in corpus.document_words(d)]
            for d in range(start, stop)
        ]


def build_engine(spec: ModelSpec, corpus: Optional["Corpus"] = None) -> Any:
    """Construct the engine ``spec`` describes, seeded from ``spec.seed``.

    ``serial``: a sampler over ``corpus``; ``parallel``: a
    :class:`~repro.training.parallel.ParallelTrainer` over ``corpus``;
    ``online``: an :class:`~repro.streaming.online.OnlineTrainer`, which owns
    its growing corpus.  Backend options are the trainers' own keywords,
    except the facade's ``publish_every`` and ``batch_docs``.
    """
    options = dict(spec.backend_options)
    sampler_fields = ("num_topics", "alpha", "beta", "num_mh_steps", "kernel", "threads")
    keywords = {name: getattr(spec, name) for name in sampler_fields}
    if spec.backend == "online":
        from repro.streaming.online import OnlineTrainer

        for key in ("publish_every", "batch_docs"):
            options.pop(key, None)
        return OnlineTrainer(
            seed=spec.seed, sampler=spec.algorithm, **keywords, **options
        )
    if corpus is None:
        raise ValueError(f"the {spec.backend} backend needs a corpus to build on")
    if spec.backend == "parallel":
        from repro.training.parallel import ParallelTrainer

        return ParallelTrainer(
            corpus,
            options.pop("num_workers", 2),
            seed=spec.seed,
            backend=options.pop("backend", "process"),
            sampler=spec.algorithm,
            **keywords,
            **options,
        )
    return build_sampler(spec.algorithm, corpus, seed=spec.seed, **keywords)


class LDA:
    """Unified LDA estimator over a declarative :class:`ModelSpec`.

    Parameters
    ----------
    spec:
        The model description.  Omit it and pass the spec fields as keyword
        arguments instead (``LDA(num_topics=20, algorithm="warplda",
        seed=0)``) for the common case.

    Examples
    --------
    >>> from repro.api import LDA
    >>> from repro.corpus import load_preset
    >>> corpus = load_preset("nytimes_like", scale=0.05, seed=0)
    >>> model = LDA(num_topics=10, seed=0).fit(corpus, num_iterations=5)
    >>> model.transform([["the", "fresh", "document"]]).shape
    (1, 10)
    """

    def __init__(self, spec: Optional[ModelSpec] = None, **spec_kwargs: Any) -> None:
        if spec is None:
            spec = ModelSpec(**spec_kwargs)
        elif spec_kwargs:
            raise ValueError("pass either spec or keyword arguments, not both")
        self.spec = spec
        self._model: Optional[Any] = None
        self._fit_corpus: Optional[Any] = None
        self._pipeline: Optional[Any] = None
        self._registry: Optional[Any] = None
        self._snapshot: Optional[Any] = None
        self._snapshot_stale = False
        self._engine: Optional[Any] = None
        self._telemetry: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def fitted(self) -> bool:
        """True once the model has trained on (or loaded) any data."""
        return self._model is not None or self._snapshot is not None

    @property
    def model(self) -> Optional[Any]:
        """The underlying engine (sampler, trainer, or online trainer)."""
        return self._model

    @property
    def registry(self) -> Optional[Any]:
        """The online backend's model registry (``None`` elsewhere)."""
        return self._registry

    @property
    def batch_docs(self) -> int:
        """Documents per mini-batch when replaying a corpus (online backend)."""
        return self.spec.backend_options.get("batch_docs", 64)

    def use_registry(self, registry: "ModelRegistry") -> "LDA":
        """Publish online updates into ``registry`` (e.g. a persisted one).

        Must be called before the first :meth:`partial_fit`; by default the
        online backend publishes into a fresh in-memory
        :class:`~repro.streaming.registry.ModelRegistry`.
        """
        if self.spec.backend != "online":
            raise RuntimeError("use_registry applies to the online backend only")
        if self._pipeline is not None:
            raise RuntimeError(
                "the streaming pipeline is already running; attach the "
                "registry before the first partial_fit"
            )
        self._registry = registry
        return self

    @property
    def telemetry(self) -> Optional[Any]:
        """The :class:`repro.obs.Telemetry` session for ``spec.telemetry``.

        ``None`` when the spec names no telemetry path.  Created on first
        access (so merely constructing an LDA never touches the filesystem);
        the JSONL trace streams to the spec's path during training and the
        metrics digest is written next to it on :meth:`close`.
        """
        if self.spec.telemetry is None:
            return None
        if self._telemetry is None:
            from repro.obs import Telemetry

            trace = Path(self.spec.telemetry)
            self._telemetry = Telemetry(
                trace, metrics_path=trace.with_suffix(".metrics.json")
            )
        return self._telemetry

    def _activate(self) -> ContextManager[Any]:
        """Scoped telemetry activation for training calls (no-op context
        when the spec names no telemetry path)."""
        session = self.telemetry
        if session is None:
            return nullcontext()
        from repro.obs import use_telemetry

        return use_telemetry(session)

    def _require_fitted(self, what: str) -> None:
        if not self.fitted:
            raise RuntimeError(
                f"this LDA has not been fitted; call fit()/partial_fit() "
                f"(or LDA.load a saved model) before {what}"
            )

    def _mark_trained(self) -> None:
        self._snapshot_stale = True
        self._engine = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        corpus: Union["Corpus", str, Path],
        num_iterations: int = 50,
        tracker: Optional[Any] = None,
        *,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        resume: bool = False,
    ) -> "LDA":
        """Train on a frozen corpus.

        On the ``serial`` backend this runs ``num_iterations`` full sweeps of
        the spec's sampler; on ``parallel``, ``num_iterations`` merge-barrier
        epochs of the data-parallel trainer.  On the ``online`` backend the
        corpus is replayed through :meth:`partial_fit` in mini-batches of
        ``backend_options["batch_docs"]`` documents (``num_iterations`` and
        ``tracker`` do not apply), so a streaming spec still answers the
        batch call.  Repeated ``fit`` calls on the same corpus continue the
        same chain; a new corpus builds a fresh engine.

        ``corpus`` may also be the path of an on-disk corpus store
        (:mod:`repro.corpus.store`): it is opened memory-mapped and trains
        bit-identically to the equivalent in-RAM corpus, without it ever
        fully materialising.  A path is reopened on every call, so repeated
        ``fit`` calls that should continue one chain should open the store
        once and pass the :class:`~repro.corpus.store.MappedCorpus`.

        ``checkpoint_dir`` (``parallel`` backend only) writes a resumable
        :class:`~repro.training.checkpoint.Checkpoint` there every
        ``checkpoint_every`` epochs and after the last one (``0``: only
        after the last).  With ``resume=True`` the engine is rebuilt from
        that checkpoint instead of from the spec and continues bit-exactly
        — same RNG streams, same shards; the checkpoint's configuration
        wins, and :attr:`spec` is updated to describe the model that is
        actually running (``spec.seed`` no longer applies).
        """
        self._check_open()
        if checkpoint_dir is None:
            if resume:
                raise ValueError("resume=True needs a checkpoint_dir to resume from")
        elif self.spec.backend != "parallel":
            raise ValueError(
                f"checkpointing requires backend='parallel', this spec uses "
                f"{self.spec.backend!r}"
            )
        if isinstance(corpus, (str, Path)):
            from repro.corpus.store import open_store

            corpus = open_store(corpus)
        if self.spec.backend == "online":
            for batch in iter_token_batches(corpus, self.batch_docs):
                self.partial_fit(batch)
            return self
        if resume or self._model is None or self._fit_corpus is not corpus:
            if self._model is not None:
                self.close_model()
            if resume:
                self._model = self._resume(checkpoint_dir, corpus)
            else:
                self._model = build_engine(self.spec, corpus)
            self._fit_corpus = corpus
        with self._activate():
            if self.spec.backend == "parallel":
                self._model.train(
                    num_iterations,
                    tracker=tracker,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=checkpoint_every,
                )
            else:
                self._model.fit(num_iterations, tracker=tracker)
        self._mark_trained()
        return self

    def _resume(self, checkpoint_dir: Union[str, Path], corpus: "Corpus") -> Any:
        """Restore the parallel trainer from a checkpoint and adopt its keywords."""
        from repro.training.checkpoint import Checkpoint

        options = self.spec.backend_options
        trainer = Checkpoint.load(checkpoint_dir).restore(
            corpus, backend=options.get("backend", "process")
        )
        # The trainer's sampler keywords are spec fields of the same name.
        config = dict(trainer.config)
        self.spec = self.spec.with_options(
            algorithm=config.pop("sampler"),
            backend_options={
                **options,
                "num_workers": trainer.num_workers,
                "iterations_per_epoch": config.pop("iterations_per_epoch"),
            },
            **config,
        )
        return trainer

    def partial_fit(self, batch: Union["MiniBatch", Sequence[Any]]) -> Any:
        """Fold one mini-batch into the (online) model; returns the report.

        ``batch`` is a :class:`~repro.streaming.stream.MiniBatch` or a
        sequence of documents — raw token lists (encoded against the growing
        stream vocabulary) or word-id arrays already consistent with it.
        Only the ``online`` backend supports incremental updates.
        """
        self._check_open()
        if self.spec.backend != "online":
            raise RuntimeError(
                f"partial_fit requires backend='online', this spec uses "
                f"{self.spec.backend!r}; use fit() or rebuild the spec with "
                f"with_backend('online')"
            )
        if self._pipeline is None:
            from repro.streaming.pipeline import StreamingPipeline
            from repro.streaming.registry import ModelRegistry

            self._model = build_engine(self.spec)
            if self._registry is None:
                self._registry = ModelRegistry()
            self._pipeline = StreamingPipeline(
                self._model,
                self._registry,
                publish_every=self.spec.backend_options.get("publish_every", 1),
            )
        from repro.streaming.stream import MiniBatch

        if not isinstance(batch, MiniBatch):
            vocabulary = self._model.corpus.vocabulary
            documents = [_materialize(document) for document in batch]
            batch = [
                vocabulary.encode(document, on_oov="add")
                if _is_token_document(document)
                else document
                for document in documents
            ]
        with self._activate():
            report = self._pipeline.ingest(batch)
        self._mark_trained()
        return report

    # ------------------------------------------------------------------ #
    # Model access
    # ------------------------------------------------------------------ #
    def export_snapshot(self) -> "ModelSnapshot":
        """The current model as a :class:`~repro.serving.snapshot.ModelSnapshot`.

        The snapshot's metadata carries the spec dict under
        :data:`~repro.api.spec.SPEC_METADATA_KEY`, which is what makes a
        saved model reload as a ready :class:`LDA`.
        """
        self._require_fitted("exporting a snapshot")
        if self._snapshot is None or self._snapshot_stale:
            self._snapshot = self._with_spec(self._model.export_snapshot())
            self._snapshot_stale = False
        return self._snapshot

    def _with_spec(self, snapshot: "ModelSnapshot") -> "ModelSnapshot":
        """``snapshot`` carrying this estimator's spec dict as executed.

        Today's normalised dict, whatever spelling the spec was read from:
        a retired value never survives a load-and-save round trip.
        """
        # Record the spec as *executed*: a sampler without the requested
        # path degraded (slab -> scalar) when it was built, and
        # the provenance must say so rather than echo the request.
        spec_dict = self.spec.to_dict()
        spec_dict["kernel"] = resolve_kernel(
            SAMPLER_REGISTRY[self.spec.algorithm], self.spec.kernel
        )
        # Telemetry is a property of the *run*, not the model: a loaded
        # model must not silently reopen (and truncate) the training
        # run's trace file.
        spec_dict["telemetry"] = None
        if snapshot.metadata.get(SPEC_METADATA_KEY) != spec_dict:
            snapshot = snapshot.with_metadata(**{SPEC_METADATA_KEY: spec_dict})
        return snapshot

    def _get_engine(
        self,
        strategy: Optional[str] = None,
        num_iterations: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "InferenceEngine":
        from repro.serving.infer import InferenceEngine

        if strategy is None and num_iterations is None and seed is None:
            if self._engine is None:
                self._engine = InferenceEngine(self.export_snapshot())
            return self._engine
        kwargs: Dict[str, Any] = {}
        if strategy is not None:
            kwargs["strategy"] = strategy
        if num_iterations is not None:
            kwargs["num_iterations"] = num_iterations
        if seed is not None:
            kwargs["seed"] = seed
        return InferenceEngine(self.export_snapshot(), **kwargs)

    def transform(
        self,
        documents: Sequence[Any],
        strategy: Optional[str] = None,
        num_iterations: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """θ inference for unseen documents (one row per document).

        Documents are raw token lists (OOV tokens dropped by the snapshot
        vocabulary) or word-id arrays.  The default is the deterministic EM
        fold-in; pass ``strategy="mh"`` (with ``seed``) for the WarpLDA-style
        Metropolis-Hastings fold-in.
        """
        self._require_fitted("transform")
        engine = self._get_engine(strategy, num_iterations, seed)
        documents = [_materialize(document) for document in documents]
        # Route by the first *non-empty* document (empty ones carry no type
        # information, and an empty leading doc must not send a token batch
        # down the word-id path).
        probe = next((d for d in documents if len(d)), None)
        if probe is not None and _is_token_document(probe):
            return engine.infer_tokens(documents)
        return engine.infer_ids(documents)

    def top_topics(
        self, num_words: int = 10
    ) -> List[List[Tuple[str, float]]]:
        """Per topic, the ``num_words`` most probable ``(word, prob)`` pairs."""
        if num_words <= 0:
            raise ValueError(f"num_words must be positive, got {num_words}")
        self._require_fitted("top_topics")
        snapshot = self.export_snapshot()
        words = snapshot.vocabulary.words()
        phi = snapshot.phi
        num_words = min(num_words, phi.shape[1])
        topics = []
        for row in phi:
            order = row.argsort()[::-1][:num_words]
            topics.append([(words[w], float(row[w])) for w in order])
        return topics

    def perplexity(self, documents: Sequence[Any]) -> float:
        """Held-out perplexity of ``documents`` under the current model."""
        self._require_fitted("perplexity")
        return self._get_engine().held_out_perplexity(list(documents))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the model (snapshot + embedded spec) to ``path``."""
        return self.export_snapshot().save(path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LDA":
        """Reload a model written by :meth:`save` as a ready estimator.

        The spec is recovered from the snapshot metadata; the returned
        estimator serves immediately (``transform`` / ``top_topics`` /
        ``perplexity`` / ``serve``) and trains again through
        ``fit``/``partial_fit`` with the original spec (a snapshot freezes
        Φ, not the sampler chain — use :class:`repro.training.Checkpoint`
        for bit-exact training resumption).
        """
        from repro.serving.snapshot import ModelSnapshot

        return cls.from_snapshot(ModelSnapshot.load(path))

    @classmethod
    def from_snapshot(
        cls, snapshot: "ModelSnapshot", spec: Optional[ModelSpec] = None
    ) -> "LDA":
        """Wrap an existing snapshot; ``spec`` overrides the embedded one.

        The wrapped snapshot re-embeds the spec as this estimator reads it,
        so saving it again writes today's spec dict.
        """
        if spec is None:
            spec_dict = snapshot.metadata.get(SPEC_METADATA_KEY)
            if spec_dict is None:
                raise ValueError(
                    "snapshot carries no embedded ModelSpec (was it exported "
                    "outside repro.api?); pass spec= explicitly"
                )
            spec = ModelSpec.from_dict(spec_dict)
        model = cls(spec)
        model._snapshot = model._with_spec(snapshot)
        return model

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        strategy: str = "em",
        num_iterations: int = 30,
        num_mh_steps: int = 2,
        seed: Optional[int] = None,
        follow_registry: bool = True,
        http: Optional[Any] = None,
        **server_kwargs: Any,
    ) -> Union["TopicServer", "TopicService"]:
        """Stand up a :class:`~repro.serving.server.TopicServer` on this model.

        On the online backend (with ``follow_registry=True``) the server
        attaches to the pipeline's registry and hot-swaps as later
        ``partial_fit`` calls publish fresh versions; otherwise it serves a
        frozen export of the current model.  ``server_kwargs`` reach the
        :class:`~repro.serving.server.TopicServer` constructor
        (``max_batch_size``, ``cache_capacity``).

        With ``http="HOST:PORT"`` (or a bare port) the model is served over
        the network instead: a **started**
        :class:`~repro.service.http.TopicService` — an asyncio HTTP front
        end over a pool of worker processes sharing one snapshot copy — is
        returned (close it, or use it as a context manager).  In that mode
        ``server_kwargs`` reach :class:`~repro.service.http.ServiceConfig`
        (``num_workers``, ``max_pending``, ``request_timeout``, ...), and a
        registry-backed model hot-swaps across the whole pool.
        """
        self._require_fitted("serve")
        if http is not None:
            from repro.service.http import ServiceConfig as _ServiceConfig
            from repro.service.http import TopicService as _TopicService
            from repro.service.http import parse_http_address

            host, port = parse_http_address(http)
            config = _ServiceConfig(
                host=host,
                port=port,
                strategy=strategy,
                num_iterations=num_iterations,
                num_mh_steps=num_mh_steps,
                seed=seed if seed is not None else 0,
                **server_kwargs,
            )
            registry = (
                self._registry
                if follow_registry and self._registry is not None
                else None
            )
            return _TopicService(
                snapshot=self.export_snapshot(),
                registry=registry,
                config=config,
            ).start()
        from repro.serving.server import TopicServer

        following = follow_registry and self._registry is not None
        if following and self._registry.current_version is not None:
            return TopicServer.from_registry(
                self._registry,
                strategy=strategy,
                num_iterations=num_iterations,
                num_mh_steps=num_mh_steps,
                seed=seed,
                **server_kwargs,
            )
        from repro.serving.infer import InferenceEngine

        engine = InferenceEngine(
            self.export_snapshot(),
            strategy=strategy,
            num_iterations=num_iterations,
            num_mh_steps=num_mh_steps,
            seed=seed,
        )
        server = TopicServer(engine, **server_kwargs)
        if following:
            # Nothing published yet (e.g. publish_every not reached): serve
            # the current export but still follow the registry, so the
            # first publish hot-swaps in as documented.
            server.attach_registry(self._registry)
        return server

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this LDA has been closed")

    def close_model(self) -> None:
        """Release the current engine (stops parallel workers if any)."""
        if self._model is not None and hasattr(self._model, "close"):
            self._model.close()
        self._model = None
        self._fit_corpus = None
        self._pipeline = None

    def close(self) -> None:
        """Release every resource; the estimator is unusable afterwards."""
        if self._closed:
            return
        self.close_model()
        if self._telemetry is not None:
            self._telemetry.close()
            self._telemetry = None
        self._closed = True

    def __enter__(self) -> "LDA":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fitted" if self.fitted else "unfitted"
        return (
            f"LDA({self.spec.algorithm}, K={self.spec.num_topics}, "
            f"backend={self.spec.backend!r}, {state})"
        )
