"""The worker-process loop of the serving pool: attach, serve, hot-swap.

Each worker is a plain OS process running :func:`_worker_main` (module-level,
per invariant MP001, so it pickles under any start method), speaking an
ordered message protocol over **one duplex pipe** to the pool:

* parent → worker: ``("infer", request_id, documents, enqueued_at)``,
  ``("swap", descriptor)``, ``("diag", None)``, ``("stop", None)``;
* worker → parent: ``("ready"|"swapped"|"diag", info)``, ``("result",
  request_id, payload)``, ``("error", request_id, payload)``, ``("stopped",
  info)``.

A private pipe per worker (instead of one shared task queue) is what makes
the pool kill-safe: a worker that dies mid-request corrupts nothing shared —
its assigned request is failed by the parent and every other worker's
channel is untouched.  (A shared ``multiprocessing.Queue`` would leave its
internal lock held by the corpse, wedging the whole pool.)  The parent
dispatches at most one request per worker at a time, so a ``swap`` is never
stuck behind a backlog: a request already dispatched completes against the
snapshot it started with, then the swap applies — exactly
:meth:`TopicServer.refresh`'s in-process guarantee lifted across processes.

The loop body:

* **attach** — map the shared snapshot segment named by the descriptor
  (:func:`repro.service.shm.attach`) and build a
  :class:`~repro.serving.server.TopicServer` over a zero-copy
  :class:`~repro.serving.infer.InferenceEngine` — micro-batching and the LRU
  result cache therefore work per worker exactly as in-process serving does;
* **swap** — close the current server (the parent dispatches one request per
  worker at a time, so nothing is in flight), release the old attachment,
  re-attach to the new segment and ack.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List

import numpy as np

from repro.obs import Telemetry, use_telemetry
from repro.serving.infer import InferenceEngine
from repro.serving.server import TopicServer
from repro.service.shm import AttachedSnapshot, attach

__all__ = ["_worker_main"]

#: Seconds a worker blocks on its pipe per poll (idle wake-up cadence).
_POLL_SECONDS = 0.1


def _build_server(
    attached: AttachedSnapshot, worker_index: int, options: Dict[str, Any]
) -> TopicServer:
    engine = InferenceEngine(
        attached.snapshot,
        strategy=str(options.get("strategy", "em")),
        num_iterations=int(options.get("num_iterations", 30)),
        num_mh_steps=int(options.get("num_mh_steps", 2)),
        # Distinct per-worker streams from one service seed: spawn-style
        # seed-sequence keying, never global state (RNG discipline).
        seed=np.random.default_rng(
            [int(options.get("seed", 0)), worker_index, attached.version]
        ),
    )
    return TopicServer(
        engine,
        max_batch_size=int(options.get("max_batch_size", 64)),
        cache_capacity=int(options.get("cache_capacity", 4096)),
    )


def _encode_documents(
    documents: List[Any], server: TopicServer
) -> List[np.ndarray]:
    """Normalise wire documents (token or id lists) to in-vocabulary ids.

    String tokens go through the snapshot vocabulary with OOV dropping; raw
    ids are clamped to ``[0, V)`` the same way the registry-serving path
    drops ids a swapped-in snapshot has never seen.
    """
    vocab_size = server.engine.snapshot.vocabulary_size
    encoded: List[np.ndarray] = []
    for document in documents:
        ids = server.encode(document)
        if ids.size:
            ids = ids[(ids >= 0) & (ids < vocab_size)]
        encoded.append(ids)
    return encoded


def _worker_info(
    worker_index: int, attached: AttachedSnapshot, server: TopicServer
) -> Dict[str, Any]:
    """The identity block acked on ready/swap and reported by diag.

    ``zero_copy`` is the buffer-identity proof the acceptance criteria ask
    for: the engine's phi *is* the attached shared view (``np.shares_memory``
    inside the worker), and every worker names its segment so the parent can
    assert all N name the same one.
    """
    return {
        "worker": worker_index,
        "segment": attached.segment_name,
        "version": attached.version,
        "zero_copy": bool(
            np.shares_memory(server.engine.snapshot.phi, attached.phi_view)
        ),
    }


def _worker_main(
    worker_index: int,
    descriptor: Dict[str, Any],
    options: Dict[str, Any],
    conn: Any,
) -> None:
    """Worker-process entry point (module-level for pickling, MP001)."""
    session = Telemetry()
    attached = attach(descriptor)
    server = _build_server(attached, worker_index, options)
    busy_seconds = 0.0
    requests = 0
    conn.send(("ready", _worker_info(worker_index, attached, server)))
    try:
        with use_telemetry(session):
            while True:
                if not conn.poll(_POLL_SECONDS):
                    continue
                try:
                    message = conn.recv()
                except EOFError:
                    # Parent vanished; nothing left to serve.
                    return
                kind = message[0]
                if kind == "stop":
                    conn.send(
                        (
                            "stopped",
                            {
                                "worker": worker_index,
                                "busy_seconds": busy_seconds,
                                "requests": requests,
                                "telemetry": session.export_payload(),
                            },
                        )
                    )
                    return
                if kind == "diag":
                    info = _worker_info(worker_index, attached, server)
                    info["busy_seconds"] = busy_seconds
                    info["requests"] = requests
                    conn.send(("diag", info))
                elif kind == "swap":
                    descriptor = message[1]
                    if descriptor["version"] == attached.version:
                        conn.send(
                            ("swapped", _worker_info(worker_index, attached, server))
                        )
                        continue
                    # Retire the old server before its buffer is released.
                    server.close()
                    del server
                    retiring = attached
                    attached = attach(descriptor)
                    retiring.close()
                    server = _build_server(attached, worker_index, options)
                    conn.send(
                        ("swapped", _worker_info(worker_index, attached, server))
                    )
                elif kind == "infer":
                    _, request_id, documents, enqueued_at = message
                    started = time.monotonic()
                    try:
                        theta = server.infer_batch(
                            _encode_documents(documents, server)
                        )
                    except Exception:
                        conn.send(
                            (
                                "error",
                                request_id,
                                {
                                    "worker": worker_index,
                                    "version": attached.version,
                                    "error": traceback.format_exc(),
                                },
                            )
                        )
                        continue
                    elapsed = time.monotonic() - started
                    busy_seconds += elapsed
                    requests += 1
                    conn.send(
                        (
                            "result",
                            request_id,
                            {
                                "worker": worker_index,
                                "version": attached.version,
                                "theta": theta.tolist(),
                                "seconds": elapsed,
                                "queue_seconds": max(0.0, started - enqueued_at),
                            },
                        )
                    )
    finally:
        session.close()
        attached.close()
