"""Shared thread pool for the slab kernels: the multi-core execution tier.

The slab kernels decompose each phase into independent work units — bucket
chunks in :mod:`repro.kernels.warp`, document-block waves in
:mod:`repro.kernels.cgs` — whose writes are disjoint and whose shared reads
are phase-frozen (the paper's delayed-count device, Sec. 4.2, is exactly what
makes row-parallel execution legal).  NumPy releases the GIL on the large gathers, scatters and reductions
those units are made of, so dispatching them onto a :class:`ThreadPoolExecutor`
gives real multi-core speedup without multiprocessing copies.

Determinism contract
--------------------
Results are **bit-identical for every thread count**, including ``threads=1``
(which bypasses the pool entirely):

* The task decomposition is a pure function of the corpus and kernel
  parameters — never of the thread count.
* Each task draws from its own :class:`numpy.random.Generator`, spawned
  deterministically from the sweep RNG via :func:`spawn_task_rngs` (one
  ``SeedSequence`` derived from a single draw on the main stream, then
  ``spawn``-ed per task).  The main stream is consumed identically regardless
  of thread count, so checkpoints resume bit-exactly.
* Task results are applied in task order on the calling thread, never in
  completion order.

This module is the **only** sanctioned owner of thread-level shared state in
the kernel tier (the ``THR001`` invariant, see ``docs/invariants.md``):
kernels must route concurrency through :func:`run_tasks` instead of spawning
ad-hoc threads, so the determinism contract stays auditable in one place.

Thread count: the explicit ``threads`` argument, else 1 (serial).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.obs import get_telemetry
from repro.sampling.rng import spawn_rngs

__all__ = [
    "resolve_threads",
    "run_tasks",
    "spawn_task_rngs",
]

T = TypeVar("T")

# Executors keyed by worker count, created lazily and shared across every
# kernel call (phases run back to back; re-creating a pool per phase would
# dominate small-corpus sweeps).  One lock guards the dict — executor
# creation is rare and cheap to serialise.
_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def resolve_threads(threads: Optional[int] = None) -> int:
    """Resolve a thread-count setting to a concrete positive integer.

    ``None`` (no ``threads=`` given by the constructor, the spec or
    ``--threads``) is 1, serial.
    """
    if threads is None:
        return 1
    threads = int(threads)
    if threads <= 0:
        raise ValueError(f"threads must be positive, got {threads}")
    return threads


def spawn_task_rngs(
    rng: np.random.Generator, count: int
) -> List[np.random.Generator]:
    """Derive one independent generator per task from the sweep RNG.

    Consumes exactly **one** draw from ``rng`` regardless of ``count`` (and
    none at all when ``count`` is zero), so the main stream advances
    identically for every thread count and every task decomposition —
    the property that keeps checkpoint resume bit-exact.
    """
    if count == 0:
        return []
    return spawn_rngs(rng, count)


def _get_executor(threads: int) -> ThreadPoolExecutor:
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(threads)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-kernel-{threads}"
            )
            _EXECUTORS[threads] = executor
        return executor


def _timed_call(fn: Callable[[], T]) -> "tuple[T, float]":
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_tasks(
    tasks: Sequence[Callable[[], T]],
    threads: Optional[int] = None,
    label: str = "kernel",
) -> List[T]:
    """Execute ``tasks`` and return their results **in task order**.

    ``threads`` follows :func:`resolve_threads`; at 1 (or with at most one
    task) the tasks run inline on the calling thread with zero pool overhead
    — the serial path.  Exceptions propagate to the caller either way.

    Tasks must be independent: disjoint writes, phase-frozen shared reads,
    and any randomness drawn from a per-task generator
    (:func:`spawn_task_rngs`).  Under that contract the results — and
    therefore the model trajectory — are bit-identical for every thread
    count.

    When telemetry is enabled, records per-phase parallel-efficiency metrics
    under ``pool.<label>.*``: a task-span histogram (seconds per task), a
    pool-utilization gauge (busy time over ``wall * threads``) and a
    straggler-skew series (slowest task over mean task time).  The
    instrumentation wraps timing around each task without touching any RNG,
    so instrumented and plain runs stay bit-identical.
    """
    threads = resolve_threads(threads)
    obs = get_telemetry()
    if threads <= 1 or len(tasks) <= 1:
        if obs.enabled:
            wall_started = time.perf_counter()
            durations = []
            results = []
            for task in tasks:
                result, elapsed = _timed_call(task)
                results.append(result)
                durations.append(elapsed)
            _record_pool_metrics(
                obs, label, 1, durations, time.perf_counter() - wall_started
            )
            return results
        return [task() for task in tasks]

    executor = _get_executor(threads)
    wall_started = time.perf_counter()
    futures = [executor.submit(_timed_call, task) for task in tasks]
    # Collect in submission order: completion order is scheduler-dependent
    # and must never influence how results are applied.
    timed = [future.result() for future in futures]
    wall = time.perf_counter() - wall_started
    if obs.enabled:
        _record_pool_metrics(obs, label, threads, [t[1] for t in timed], wall)
    return [t[0] for t in timed]


def _record_pool_metrics(
    obs, label: str, threads: int, durations: List[float], wall: float
) -> None:
    """Record the parallel-efficiency metrics for one dispatched phase."""
    if not durations:
        return
    busy = sum(durations)
    for elapsed in durations:
        obs.observe(f"pool.{label}.task_seconds", elapsed)
    obs.count(f"pool.{label}.tasks", len(durations))
    if wall > 0:
        obs.gauge(f"pool.{label}.utilization", busy / (wall * threads))
    mean = busy / len(durations)
    if mean > 0:
        obs.record(f"pool.{label}.straggler_skew", max(durations) / mean)
