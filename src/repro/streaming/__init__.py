"""Streaming ingestion, online training and versioned hot-swap serving.

The batch pipeline (corpus → sampler → snapshot → server) assumes a frozen
corpus; this package closes the loop for *arriving* data, the path the
paper's cheap O(1) sampler makes affordable in the first place:

* :class:`~repro.streaming.stream.DocumentStream` — mini-batch ingestion of
  raw documents, growing the shared vocabulary online
  (``encode(on_oov="add")``).
* :class:`~repro.streaming.corpus.StreamingCorpus` — a growable token-major
  corpus whose kernel slab-bucket cache is maintained incrementally: an
  append re-bands only the rows it touched and rebinds the rest to the
  merged word order.
* :class:`~repro.streaming.online.OnlineTrainer` — warm-started slab-kernel
  Gibbs sweeps over a sliding window of recent documents, with retired
  documents' counts kept as exponentially-decayed external mass.
* :class:`~repro.streaming.registry.ModelRegistry` — versioned snapshot
  store with atomic pointer swap, retention/GC and rollback.
* :class:`~repro.streaming.pipeline.StreamingPipeline` — the ingest →
  update → publish → hot-swap loop, feeding
  :meth:`repro.serving.server.TopicServer.attach_registry`.

See ``examples/streaming_demo.py`` for the end-to-end walkthrough and
the ``stream_replay`` workload of ``benchmarks/suite/`` for ingest-to-servable
latency (``servable_p50_ms``) and sustained throughput (``docs_per_s``).
"""

from repro.streaming.corpus import StreamingCorpus
from repro.streaming.online import OnlineTrainer, OnlineUpdate
from repro.streaming.pipeline import IngestReport, StreamingPipeline
from repro.streaming.registry import ModelRegistry, PublishedVersion, VersionIdentity
from repro.streaming.stream import DocumentStream, MiniBatch, StreamStats

__all__ = [
    "DocumentStream",
    "IngestReport",
    "MiniBatch",
    "ModelRegistry",
    "OnlineTrainer",
    "OnlineUpdate",
    "PublishedVersion",
    "StreamStats",
    "StreamingCorpus",
    "StreamingPipeline",
    "VersionIdentity",
]
