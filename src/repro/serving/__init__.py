"""Model serving: snapshots, batched unseen-document inference, topic server.

The training layer (:mod:`repro.samplers`, :mod:`repro.core`) produces models;
this package turns them into something deployable:

* :class:`~repro.serving.snapshot.ModelSnapshot` — an immutable, persistable
  freeze of Φ, α, β and the vocabulary (``model.export_snapshot()``).
* :class:`~repro.serving.infer.InferenceEngine` — batched θ inference for
  unseen documents, via vectorised EM fold-in or WarpLDA-style MH fold-in.
* :class:`~repro.serving.server.TopicServer` — a micro-batching front end
  with an LRU result cache and throughput/latency statistics.

See ``examples/serving_demo.py`` for the end-to-end flow and
the ``serve_cold`` / ``serve_hot`` workloads of ``benchmarks/suite/`` for the
serving benchmark.
"""

from repro.serving.infer import InferenceEngine, em_fold_in, mh_fold_in
from repro.serving.server import LRUCache, ServerStats, TopicServer
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "InferenceEngine",
    "LRUCache",
    "ModelSnapshot",
    "ServerStats",
    "TopicServer",
    "em_fold_in",
    "mh_fold_in",
]
