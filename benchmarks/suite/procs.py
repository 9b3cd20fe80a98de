"""Process and shared-memory hygiene for the benchmark suite.

Every process the runner starts, directly or indirectly, inherits one
environment variable (:data:`RUN_ENV`) holding the run's id.  The variable
survives ``fork``, ``exec`` and re-parenting, so a scan of ``/proc/*/environ``
finds every descendant of a run -- service workers and the
``multiprocessing.resource_tracker`` included -- no matter who its parent is
by then.  That scan is the proof the runner gives before it exits, and the
thing ``smoke_check.py`` repeats from outside after killing the runner.

Two mechanisms make a leak impossible rather than merely detected:

* every benchmark-owned child calls :func:`die_with_parent`, so the kernel
  SIGKILLs it the moment its parent is gone (``PR_SET_PDEATHSIG``), and
  :func:`arm_forked_children` extends the same to whatever they fork through
  ``multiprocessing`` -- the host's service workers, the traced staircase's
  ``WorkerPool`` (an ``os.register_at_fork`` hook, no edit under ``src/``).
  A SIGKILL of the runner therefore cascades down
  the whole tree; the resource tracker then sees EOF on its pipe, unlinks the
  shared-memory segments it was tracking and exits;
* the runner's own teardown SIGKILLs whatever the scan still finds.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import time
from pathlib import Path
from typing import List, Set

#: Environment variable carrying the run id to every descendant.
RUN_ENV = "WARPLDA_BENCH_RUN"

_PR_SET_PDEATHSIG = 1
_SHM_DIR = Path("/dev/shm")


def die_with_parent(parent_pid: int) -> None:
    """Ask the kernel to SIGKILL this process when its parent dies.

    ``parent_pid`` is the pid the caller expects as its parent; if that
    parent died before the request was registered the signal would never
    come, so the process exits here instead.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:
        os._exit(1)


def arm_forked_children() -> None:
    """Make every process this one forks from now on die with it.

    The death signal is cleared by ``fork``, so each forked child has to ask
    again; the at-fork hook does so before the child runs any other code.
    """
    parent_pid = os.getpid()
    os.register_at_fork(after_in_child=lambda: die_with_parent(parent_pid))


def marked_pids(run_id: str, variable: str = RUN_ENV) -> List[int]:
    """Live processes whose environment has ``variable=run_id`` (zombies excluded)."""
    marker = f"{variable}={run_id}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
        except OSError:  # gone, or not ours to read
            continue
        # A zombie's environ reads empty, so it never matches.
        if marker in environ.split(b"\0"):
            found.append(int(entry))
    return sorted(found)


def shm_segments() -> Set[str]:
    """Names of the ``psm_*`` segments (multiprocessing.shared_memory) present."""
    try:
        return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def wait_gone(run_id: str, grace: float, variable: str = RUN_ENV) -> bool:
    """Wait up to ``grace`` seconds for every marked process to be gone.

    A resource tracker learns that its last client is gone from EOF on a
    pipe, a moment *after* that client's exit has been collected, so a scan
    right after ``wait()`` would catch it on its way out.
    """
    deadline = time.monotonic() + grace
    while marked_pids(run_id, variable):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def kill_marked(run_id: str) -> int:
    """SIGKILL every marked process and wait for them to go; returns how many."""
    survivors = marked_pids(run_id)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if survivors:
        wait_gone(run_id, grace=5.0)
    return len(survivors)


def mapped_segments() -> Set[str]:
    """Names of the ``psm_*`` segments some live process has mapped."""
    mapped: Set[str] = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            maps = Path("/proc", entry, "maps").read_text()
        except OSError:  # gone, or not ours to read
            continue
        mapped.update(re.findall(r"/dev/shm/(psm_\w+)", maps))
    return mapped


def unlink_leaked_segments(before: Set[str]) -> int:
    """Remove the ``psm_*`` segments the run left behind; returns how many.

    Call it once every process of the run is gone.  A segment that appeared
    since ``before`` and that a live process still maps is then someone
    else's (a concurrent test or benchmark) and is left alone.
    """
    leaked = shm_segments() - before
    if leaked:
        leaked -= mapped_segments()
    for name in leaked:
        try:
            (_SHM_DIR / name).unlink()
        except OSError:
            pass
    return len(leaked)
