"""Network serving tier: HTTP front end over a shared-memory worker pool.

The subsystem turning in-process serving (:mod:`repro.serving`) into a
socket-reachable service:

* :mod:`repro.service.shm` — the **only** module allowed to create/unlink
  ``multiprocessing.shared_memory`` segments (invariant SVC001): one phi
  copy per snapshot generation, zero-copy attached by every worker;
* :mod:`repro.service.worker` — the worker-process loop (attach → serve →
  swap);
* :mod:`repro.service.pool` — :class:`WorkerPool`, the N-process pool with
  broadcast hot swap, ack-gated segment reaping and dead-worker recycling;
* :mod:`repro.service.http` — :class:`TopicService`, the stdlib-asyncio
  HTTP/1.1 front end (``/infer``, ``/top-topics``, ``/healthz``, ``/stats``,
  Prometheus ``/metrics``) with admission control and request timeouts.

Entry points: ``python -m repro serve --http HOST:PORT`` and
``LDA.serve(http=...)``.
"""

from repro.service.http import ServiceConfig, ServiceStats, TopicService, parse_http_address
from repro.service.pool import WorkerError, WorkerPool
from repro.service.shm import AttachedSnapshot, SharedSnapshot, attach, created_segments

__all__ = [
    "AttachedSnapshot",
    "ServiceConfig",
    "ServiceStats",
    "SharedSnapshot",
    "TopicService",
    "WorkerError",
    "WorkerPool",
    "attach",
    "created_segments",
    "parse_http_address",
]
