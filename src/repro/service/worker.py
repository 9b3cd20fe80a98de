"""The worker-process loop of the serving pool: attach, serve, hot-swap.

Each worker is a plain OS process running :func:`_worker_main` (module-level,
per invariant MP001, so it pickles under any start method), speaking an
ordered message protocol over **one duplex pipe** to the pool:

* parent → worker: ``("infer", request_id, documents, enqueued_at)``,
  ``("swap", descriptor)``, ``("diag", None)``, ``("stop", None)``;
* worker → parent: ``("ready"|"swapped"|"diag", info)``, ``("result",
  request_id, payload)``, ``("error", request_id, payload)``, ``("stopped",
  info)``.  A result payload names the ``worker``, the snapshot ``version``
  and its ``num_topics``, carries the θ ``rows`` and the task's ``seconds``
  and ``queue_seconds``.

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
  (:func:`repro.service.shm.attach`) and build a zero-copy
  :class:`~repro.serving.infer.InferenceEngine` over it;
* **infer** — encode the documents (:func:`_encode_documents`), fold them in
  through :meth:`~repro.serving.infer.InferenceEngine.infer_ids` in chunks of
  at most ``max_batch_size``, and reply with each θ row already formatted as
  its JSON text (``"rows"``), so the front end's single event-loop thread
  only joins bytes.  Workers keep no result cache: the one cache is the
  front end's (:mod:`repro.service.http`), and a cached document never
  reaches a worker;
* **swap** — drop the current engine (the parent dispatches one request per
  worker at a time, so nothing is in flight), release the old attachment,
  re-attach to the new segment and ack.
"""

from __future__ import annotations

import json
import time
import traceback
from typing import Any, Dict, List

import numpy as np

from repro.obs import Telemetry, use_telemetry
from repro.serving.infer import InferenceEngine, encode_document
from repro.serving.snapshot import ModelSnapshot
from repro.service.shm import AttachedSnapshot, attach

__all__ = ["_worker_main"]

#: Seconds a worker blocks on its pipe per poll (idle wake-up cadence).
_POLL_SECONDS = 0.1


def _build_engine(
    attached: AttachedSnapshot, worker_index: int, options: Dict[str, Any]
) -> InferenceEngine:
    return InferenceEngine(
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


def _encode_documents(
    documents: List[Any], snapshot: ModelSnapshot
) -> List[np.ndarray]:
    """Normalise wire documents (token lists, id lists or id arrays) to
    in-vocabulary int64 ids.

    String tokens go through the snapshot vocabulary with OOV dropping; raw
    ids outside ``[0, V)`` are dropped the same way, as words the snapshot
    has never seen.  The front end encodes with this rule before its cache
    lookup, and the worker applies it again against the snapshot it serves.
    """
    vocab_size = snapshot.vocabulary_size
    encoded: List[np.ndarray] = []
    for document in documents:
        ids = encode_document(document, snapshot.vocabulary)
        if ids.size:
            ids = ids[(ids >= 0) & (ids < vocab_size)]
        encoded.append(ids)
    return encoded


def _infer_rows(
    engine: InferenceEngine, documents: List[np.ndarray], max_batch_size: int
) -> List[bytes]:
    """θ of ``documents`` in micro-batches, each row as its JSON text."""
    rows: List[bytes] = []
    for start in range(0, len(documents), max_batch_size):
        theta = engine.infer_ids(documents[start : start + max_batch_size])
        rows.extend(json.dumps(row).encode() for row in theta.tolist())
    return rows


def _worker_info(
    worker_index: int, attached: AttachedSnapshot, engine: InferenceEngine
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
            np.shares_memory(engine.snapshot.phi, attached.phi_view)
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
    engine = _build_engine(attached, worker_index, options)
    max_batch_size = int(options.get("max_batch_size", 64))
    busy_seconds = 0.0
    requests = 0
    conn.send(("ready", _worker_info(worker_index, attached, engine)))
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
                    info = _worker_info(worker_index, attached, engine)
                    info["busy_seconds"] = busy_seconds
                    info["requests"] = requests
                    conn.send(("diag", info))
                elif kind == "swap":
                    descriptor = message[1]
                    if descriptor["version"] == attached.version:
                        conn.send(
                            ("swapped", _worker_info(worker_index, attached, engine))
                        )
                        continue
                    # Drop the old engine before its buffer is released.
                    del engine
                    retiring = attached
                    attached = attach(descriptor)
                    retiring.close()
                    engine = _build_engine(attached, worker_index, options)
                    conn.send(
                        ("swapped", _worker_info(worker_index, attached, engine))
                    )
                elif kind == "infer":
                    _, request_id, documents, enqueued_at = message
                    started = time.monotonic()
                    try:
                        rows = _infer_rows(
                            engine,
                            _encode_documents(documents, engine.snapshot),
                            max_batch_size,
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
                                "num_topics": engine.num_topics,
                                "rows": rows,
                                "seconds": elapsed,
                                "queue_seconds": max(0.0, started - enqueued_at),
                            },
                        )
                    )
    finally:
        session.close()
        attached.close()
