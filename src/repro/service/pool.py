"""A process pool serving one shared snapshot, with broadcast hot-swap.

:class:`WorkerPool` gives each worker a **private duplex pipe** and keeps
the request backlog in the parent.  Dispatch is one-outstanding-request per
worker: an idle worker gets the next task immediately; when all are busy the
task waits in the parent's deque.  This shape is deliberate —

* **kill-safety**: a worker that dies (OOM, segfault, operator kill) takes
  only its own pipe with it.  Its assigned request is failed by the parent
  and every other channel keeps flowing.  A shared
  ``multiprocessing.Queue`` cannot offer this: a consumer killed inside
  ``get()`` dies holding the queue's internal lock and wedges the whole
  pool;
* **ordered swaps**: because at most one task is ever in a worker's pipe, a
  ``swap`` broadcast lands right behind the in-flight request — that
  request completes on the snapshot it started with, every later one sees
  the new version (the :meth:`TopicServer.refresh` contract, held across
  processes);
* **asyncio affinity**: each pipe is a selectable fd, so the HTTP front end
  wires them straight into its event loop (``loop.add_reader``) — results
  arrive with no pump thread, no polling latency, and no locks.

Snapshot **generations** are reference-counted by worker acknowledgement: a
:meth:`swap` materialises the new version into its own shared segment
(:class:`~repro.service.shm.SharedSnapshot`) and broadcasts the descriptor;
each worker acks once it has re-attached; a retired generation's segment is
unlinked only after *every* live worker has acked a newer version, so an
in-flight request on the old snapshot always finds its pages mapped.  POSIX
keeps unlinked pages alive until the last mapping closes, making the reap
safe even against a worker mid-``attach``.

Worker death is detected by :meth:`check_workers` (the front end polls it):
a dead worker is reaped and respawned on the *current* generation, so
capacity self-heals without dropping the pool.

The pool is deliberately single-threaded: exactly one thread (or one event
loop) may drive ``submit``/``pump``/``get_result``/``poll_control`` at a
time.  The HTTP tier satisfies this by funnelling every pool call through
its event loop.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.serving.snapshot import ModelSnapshot
from repro.service.shm import SharedSnapshot
from repro.service.worker import _worker_main

__all__ = ["PoolWorker", "WorkerError", "WorkerPool"]

#: Seconds to wait for a worker's ready ack before giving up on it.
_ACK_TIMEOUT = 30.0

#: A queued request: ``(request_id, documents, enqueued_at_monotonic)``.
_Task = Tuple[int, List[Any], float]

#: A delivered answer: ``("result"|"error", request_id, payload)``.
_Result = Tuple[str, int, Dict[str, Any]]


class WorkerError(RuntimeError):
    """A worker failed to serve a request; carries the relayed traceback."""


class PoolWorker:
    """Parent-side handle on one worker process."""

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: Snapshot version this worker last acked (ready or swapped).
        self.version: Optional[int] = None
        #: Identity block from the last ready/swap ack (segment, zero_copy).
        self.info: Dict[str, Any] = {}
        #: The task currently dispatched to this worker, if any.
        self.busy: Optional[_Task] = None
        #: Set once the worker's pipe hit EOF (process gone or stopping).
        self.eof = False

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    def usable(self) -> bool:
        """Can this worker accept a dispatch right now?"""
        return not self.eof and not self.conn.closed and self.alive()


class WorkerPool:
    """N worker processes serving one shared-memory snapshot."""

    def __init__(
        self,
        snapshot: ModelSnapshot,
        num_workers: int = 2,
        options: Optional[Dict[str, Any]] = None,
        version: int = 0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self._options = dict(options or {})
        start_method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._context = multiprocessing.get_context(start_method)
        #: Live snapshot generations, oldest first; the last is current.
        self._generations: List[SharedSnapshot] = [
            SharedSnapshot.create(snapshot, version=version)
        ]
        self._workers: List[PoolWorker] = []
        self._backlog: Deque[_Task] = deque()
        self._results: Deque[_Result] = deque()
        self._control: Deque[Dict[str, Any]] = deque()
        self._closed = False
        self._recycled = 0
        try:
            for index in range(num_workers):
                self._workers.append(self._spawn(index))
            for worker in self._workers:
                self._await_ready(worker)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> PoolWorker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(index, self.current.descriptor(), self._options, child_conn),
            daemon=True,
            name=f"repro-service-worker-{index}",
        )
        if self._context.get_start_method() == "fork":
            # Move every object the parent holds into the permanent
            # generation, so no collection in the child rewrites their GC
            # headers and copies the pages it shares with the parent.
            # Without this, a worker's first full collection copies most of
            # the inherited heap, at a moment set by its share of the traffic.
            gc.freeze()
        process.start()
        child_conn.close()
        return PoolWorker(index, process, parent_conn)

    def _await_ready(self, worker: PoolWorker) -> Dict[str, Any]:
        # "ready" is always the worker's first message, so a direct recv
        # here cannot steal results or acks meant for the routed channels.
        deadline = time.monotonic() + _ACK_TIMEOUT
        while time.monotonic() < deadline:
            if worker.conn.poll(0.05):
                kind, payload = worker.conn.recv()
                if kind == "ready":
                    worker.version = int(payload["version"])
                    worker.info = dict(payload)
                    return worker.info
            elif not worker.alive():
                break
        raise RuntimeError(
            f"worker {worker.index} never acked ready (alive={worker.alive()})"
        )

    def check_workers(self) -> int:
        """Reap dead workers and respawn them on the current generation.

        A dead worker's assigned request (if any) is failed into the result
        stream first, so no caller waits forever on a corpse.  Returns how
        many were recycled this call; the lifetime count is :attr:`recycled`.
        """
        recycled = 0
        for slot, worker in enumerate(self._workers):
            if worker.alive():
                continue
            self._fail_assigned(worker, "worker died")
            worker.process.join(timeout=0)
            if not worker.conn.closed:
                worker.conn.close()
            replacement = self._spawn(worker.index)
            self._await_ready(replacement)
            self._workers[slot] = replacement
            self._dispatch_next(replacement)
            recycled += 1
        self._recycled += recycled
        return recycled

    def _fail_assigned(self, worker: PoolWorker, reason: str) -> None:
        if worker.busy is None:
            return
        request_id = worker.busy[0]
        worker.busy = None
        self._results.append(
            (
                "error",
                request_id,
                {"worker": worker.index, "error": reason},
            )
        )

    @property
    def recycled(self) -> int:
        """Lifetime count of workers respawned after death."""
        return self._recycled

    @property
    def workers(self) -> List[PoolWorker]:
        """The live worker handles (read-only view for the front end)."""
        return list(self._workers)

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def submit(self, request_id: int, documents: List[Any]) -> None:
        """Hand one request batch to an idle worker, or queue it."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        task: _Task = (request_id, documents, time.monotonic())
        for worker in self._workers:
            if worker.busy is None and worker.usable():
                self._dispatch(worker, task)
                return
        self._backlog.append(task)

    def _dispatch(self, worker: PoolWorker, task: _Task) -> None:
        try:
            worker.conn.send(("infer", task[0], task[1], task[2]))
        except (BrokenPipeError, OSError):
            worker.eof = True
            self._backlog.appendleft(task)
            return
        worker.busy = task

    def _dispatch_next(self, worker: PoolWorker) -> None:
        if worker.busy is None and self._backlog and worker.usable():
            self._dispatch(worker, self._backlog.popleft())

    def pump(self, timeout: float = 0.0) -> None:
        """Drain every readable worker pipe and re-dispatch freed workers.

        Waits up to ``timeout`` seconds for *any* pipe to become readable
        (0 = non-blocking sweep).  Also fails requests assigned to workers
        found dead, so the result stream never loses a request silently.
        """
        conns = {
            worker.conn: worker
            for worker in self._workers
            if not worker.eof and not worker.conn.closed
        }
        if conns:
            for conn in _wait_connections(list(conns), timeout=timeout):
                self._drain_worker(conns[conn])
        for worker in self._workers:
            if worker.busy is not None and not worker.alive():
                self._fail_assigned(worker, "worker died mid-request")
        self._reap_generations()

    def _drain_worker(self, worker: PoolWorker) -> None:
        while not worker.conn.closed:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            kind = message[0]
            if kind in ("result", "error"):
                worker.busy = None
                self._results.append((kind, message[1], message[2]))
                self._dispatch_next(worker)
            elif kind in ("ready", "swapped"):
                worker.version = int(message[1]["version"])
                worker.info = dict(message[1])
                self._control.append({"kind": kind, **message[1]})
            else:  # diag, stopped
                self._control.append({"kind": kind, **message[1]})

    def take_results(self) -> List[_Result]:
        """Pop every buffered ``(kind, request_id, payload)`` answer."""
        results = list(self._results)
        self._results.clear()
        return results

    def get_result(self, timeout: float = 0.2) -> Optional[_Result]:
        """One ``(kind, request_id, payload)`` result, or None on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            if self._results:
                return self._results.popleft()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.pump(timeout=min(remaining, 0.2))

    # ------------------------------------------------------------------ #
    # Hot swap + generation reaping
    # ------------------------------------------------------------------ #
    @property
    def current(self) -> SharedSnapshot:
        """The newest generation (what fresh workers attach to)."""
        return self._generations[-1]

    @property
    def live_generations(self) -> List[int]:
        """Versions whose segments are still linked (oldest first)."""
        return [generation.version for generation in self._generations]

    def swap(self, snapshot: ModelSnapshot, version: int) -> None:
        """Publish ``snapshot`` as ``version`` and broadcast it to the pool.

        Returns immediately after the broadcast: workers ack asynchronously
        (collected by :meth:`pump`/:meth:`poll_control`), and a request
        already in a worker's pipe completes on its starting snapshot —
        the broadcast lands strictly behind it.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        shared = SharedSnapshot.create(snapshot, version=version)
        self._generations.append(shared)
        descriptor = shared.descriptor()
        for worker in self._workers:
            try:
                worker.conn.send(("swap", descriptor))
            except (BrokenPipeError, OSError):
                # A dead worker misses the broadcast; check_workers respawns
                # it on the current (new) generation.
                worker.eof = True

    def poll_control(self) -> List[Dict[str, Any]]:
        """Drain the pipes and pop buffered control payloads (acks, stops).

        Request results drained alongside stay buffered for
        :meth:`take_results`/:meth:`get_result`.
        """
        self.pump(0)
        drained = list(self._control)
        self._control.clear()
        return drained

    def _reap_generations(self) -> None:
        """Unlink generations every live worker has moved past."""
        acked = [
            worker.version
            for worker in self._workers
            if worker.alive() and worker.version is not None
        ]
        if not acked:
            return
        floor = min(acked)
        while len(self._generations) > 1 and self._generations[0].version < floor:
            self._generations.pop(0).unlink()

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def worker_infos(self) -> List[Dict[str, Any]]:
        """The cached identity block of every worker (from its last ack).

        Non-blocking — safe to call from any thread since it reads
        parent-side state only.
        """
        return [dict(worker.info) for worker in self._workers]

    def diagnostics(self, timeout: float = _ACK_TIMEOUT) -> List[Dict[str, Any]]:
        """Ask every worker for a live identity block and await the replies.

        Each reply names the worker's shared segment and whether its engine
        phi shares memory with the attached buffer — the pool-wide
        one-copy assertion is ``len({d['segment']}) == 1`` and all
        ``zero_copy`` flags true.  A busy worker replies after its current
        request, so allow for that in ``timeout``.
        """
        expected = 0
        for worker in self._workers:
            try:
                worker.conn.send(("diag", None))
                expected += 1
            except (BrokenPipeError, OSError):
                worker.eof = True
        replies: List[Dict[str, Any]] = []
        deadline = time.monotonic() + timeout
        while len(replies) < expected and time.monotonic() < deadline:
            self.pump(0.05)
            kept: Deque[Dict[str, Any]] = deque()
            while self._control:
                entry = self._control.popleft()
                if entry.get("kind") == "diag":
                    entry = dict(entry)
                    entry.pop("kind", None)
                    replies.append(entry)
                else:
                    kept.append(entry)
            self._control.extendleft(reversed(kept))
        return replies

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive())

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 10.0) -> List[Dict[str, Any]]:
        """Stop the pool: drain worker acks, join, unlink every segment.

        Returns the workers' ``stopped`` payloads (telemetry + busy time) so
        the front end can fold the final per-worker metrics into its session.
        Idempotent; stragglers past ``timeout`` are terminated.
        """
        if self._closed:
            return []
        self._closed = True
        self._backlog.clear()
        expected = 0
        for worker in self._workers:
            if worker.alive() and not worker.eof and not worker.conn.closed:
                try:
                    worker.conn.send(("stop", None))
                    expected += 1
                except (BrokenPipeError, OSError):
                    worker.eof = True
        stopped: List[Dict[str, Any]] = []
        deadline = time.monotonic() + timeout
        while len(stopped) < expected and time.monotonic() < deadline:
            self.pump(0.05)
            kept: Deque[Dict[str, Any]] = deque()
            while self._control:
                entry = self._control.popleft()
                if entry.get("kind") == "stopped":
                    entry = dict(entry)
                    entry.pop("kind", None)
                    stopped.append(entry)
                else:
                    kept.append(entry)
            self._control.extendleft(reversed(kept))
            if all(worker.eof or not worker.alive() for worker in self._workers):
                break
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if not worker.conn.closed:
                worker.conn.close()
        while self._generations:
            self._generations.pop().unlink()
        return stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.num_workers}, "
            f"generations={self.live_generations}, closed={self._closed})"
        )
