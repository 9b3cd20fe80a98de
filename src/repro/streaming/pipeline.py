"""End-to-end glue: ingest → online update → publish → hot-swap serving.

:class:`StreamingPipeline` wires the streaming pieces into the loop a
production deployment runs forever:

1. a mini-batch arrives (from a :class:`~repro.streaming.stream.DocumentStream`
   or any sequence of encoded documents);
2. the :class:`~repro.streaming.online.OnlineTrainer` appends it to the
   streaming corpus and runs the window sweeps;
3. every ``publish_every`` batches the refreshed model is exported and
   published to the :class:`~repro.streaming.registry.ModelRegistry`;
4. an attached :class:`~repro.serving.server.TopicServer` is nudged to
   hot-swap immediately, which bounds the **ingest-to-servable latency** —
   the wall-clock time from a batch entering the pipeline to a server
   answering queries with a model that has seen it.  Each
   :class:`IngestReport` records that latency; the ``stream_replay``
   workload of ``benchmarks/suite/`` reports their median as
   ``servable_p50_ms``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.corpus.corpus import Document
from repro.obs import get_telemetry
from repro.samplers.base import validate_positive_int
from repro.serving.server import TopicServer
from repro.streaming.online import OnlineTrainer, OnlineUpdate
from repro.streaming.registry import ModelRegistry, VersionIdentity
from repro.streaming.stream import MiniBatch

__all__ = ["IngestReport", "StreamingPipeline"]


@dataclass(frozen=True)
class IngestReport:
    """What one pipeline step did, with its latency breakdown."""

    update: OnlineUpdate
    #: Identity of the version this step published (``None`` when it did not
    #: publish).  Deliberately not the registry entry: a report outlives the
    #: registry's retention window and must not keep that snapshot reachable.
    published: Optional[VersionIdentity]
    #: Wall-clock seconds for append + window sweeps + (if due) publish,
    #: measured from :meth:`StreamingPipeline.ingest` entry — pure pipeline
    #: work, no queueing.
    ingest_seconds: float
    #: Seconds from batch *arrival* (``MiniBatch.closed_at``; call entry for
    #: plain sequences) until an attached server was serving a model
    #: containing this batch — queueing delay deliberately included.
    #: ``None`` when the step did not publish or no server is attached.
    ingest_to_servable_seconds: Optional[float]
    #: Seconds spent in registry publish + server refresh; ``None`` when the
    #: step did not publish.
    publish_seconds: Optional[float] = None


class StreamingPipeline:
    """Drive mini-batches through train → publish → hot-swap (module docstring).

    Parameters
    ----------
    trainer:
        The online trainer owning the streaming corpus and the model.
    registry:
        Version store to publish to; a fresh in-memory registry is created
        when omitted.
    server:
        Optional topic server to keep hot; it is attached to the registry
        and refreshed synchronously after every publish.
    publish_every:
        Publish cadence in mini-batches (1 = a fresh servable model per
        batch).
    report_history:
        How many recent :class:`IngestReport`\\ s to retain on
        :attr:`reports` — a bounded window, so a pipeline that runs forever
        does not grow without bound (``ingest`` always *returns* the full
        report; retention is only for post-hoc inspection).

    Examples
    --------
    >>> trainer = OnlineTrainer(num_topics=5, seed=0)      # doctest: +SKIP
    >>> pipeline = StreamingPipeline(trainer)               # doctest: +SKIP
    >>> report = pipeline.ingest(batch)                     # doctest: +SKIP
    >>> report.published.version                            # doctest: +SKIP
    1
    """

    def __init__(
        self,
        trainer: OnlineTrainer,
        registry: Optional[ModelRegistry] = None,
        server: Optional[TopicServer] = None,
        publish_every: int = 1,
        report_history: int = 256,
    ) -> None:
        validate_positive_int("publish_every", publish_every)
        if report_history < 0:
            raise ValueError(
                f"report_history must be non-negative, got {report_history}"
            )
        self.trainer = trainer
        self.registry = registry if registry is not None else ModelRegistry()
        self.server = server
        self.publish_every = publish_every
        self.reports: Deque[IngestReport] = deque(maxlen=report_history)
        if server is not None:
            server.attach_registry(self.registry)

    # ------------------------------------------------------------------ #
    def ingest(
        self,
        batch: Union[MiniBatch, Sequence[Union[Document, np.ndarray, Sequence[int]]]],
        **publish_metadata: Any,
    ) -> IngestReport:
        """Run one full pipeline step for ``batch``; returns its report.

        For a :class:`~repro.streaming.stream.MiniBatch` the latency clock
        starts at the batch's ``closed_at`` timestamp — the moment the
        ingestion layer finished assembling it — so any queueing delay
        between the stream and this call is part of the measured
        ingest-to-servable latency.  Plain document sequences carry no
        arrival time and are clocked from call entry.
        """
        obs = get_telemetry()
        entered = time.perf_counter()
        arrival = batch.closed_at if isinstance(batch, MiniBatch) else entered
        published: Optional[VersionIdentity] = None
        servable: Optional[float] = None
        publish_seconds: Optional[float] = None
        with obs.span("ingest", batch=self.trainer.batches_ingested + 1):
            update = self.trainer.ingest(batch)
            # A publish needs a model: leading batches that carried no tokens
            # (empty documents, or everything OOV-dropped) defer it to the next
            # due batch instead of crashing the ingest loop on export.
            due = (
                self.trainer.batches_ingested % self.publish_every == 0
                and self.trainer.corpus.num_tokens > 0
            )
            if due:
                publish_started = time.perf_counter()
                with obs.span("publish", batch=update.batch_index):
                    entry = self.registry.publish(
                        self.trainer.export_snapshot(),
                        batch_index=update.batch_index,
                        **publish_metadata,
                    )
                    published = VersionIdentity(
                        entry.version, entry.published_at, entry.metadata
                    )
                    if self.server is not None:
                        self.server.refresh()
                        servable = time.perf_counter() - arrival
                publish_seconds = time.perf_counter() - publish_started
        report = IngestReport(
            update=update,
            published=published,
            ingest_seconds=time.perf_counter() - entered,
            ingest_to_servable_seconds=servable,
            publish_seconds=publish_seconds,
        )
        if obs.enabled:
            self._record(obs, report)
        # Recorded to telemetry *before* this bounded-history append so the
        # report survives observably even after it rolls off the deque.
        self.reports.append(report)
        return report

    @staticmethod
    def _record(obs: Any, report: IngestReport) -> None:
        """Fold one report into the active telemetry (metrics + one event)."""
        update = report.update
        obs.count("streaming.batches_ingested")
        obs.count("streaming.documents_ingested", update.documents_added)
        obs.count("streaming.tokens_ingested", update.tokens_added)
        obs.observe("streaming.ingest_seconds", report.ingest_seconds)
        obs.observe("streaming.train_seconds", update.train_seconds)
        if report.publish_seconds is not None:
            obs.observe("streaming.publish_seconds", report.publish_seconds)
        if report.ingest_to_servable_seconds is not None:
            obs.observe(
                "streaming.ingest_to_servable_seconds",
                report.ingest_to_servable_seconds,
            )
        obs.event(
            "ingest_report",
            batch_index=update.batch_index,
            documents_added=update.documents_added,
            tokens_added=update.tokens_added,
            window_documents=update.window_documents,
            window_tokens=update.window_tokens,
            retired_documents=update.retired_documents,
            vocabulary_size=update.vocabulary_size,
            train_seconds=update.train_seconds,
            ingest_seconds=report.ingest_seconds,
            publish_seconds=report.publish_seconds,
            ingest_to_servable_seconds=report.ingest_to_servable_seconds,
            published_version=(
                report.published.version if report.published is not None else None
            ),
        )

    def run(
        self, batches: Iterable[Union[MiniBatch, Sequence]], **publish_metadata: Any
    ) -> List[IngestReport]:
        """Ingest every batch of an iterable; returns the per-batch reports."""
        return [self.ingest(batch, **publish_metadata) for batch in batches]

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingPipeline(batches={self.trainer.batches_ingested}, "
            f"current_version={self.registry.current_version}, "
            f"publish_every={self.publish_every})"
        )
