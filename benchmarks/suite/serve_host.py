"""The process that hosts ``TopicService`` for the ``serve_*`` workloads.

Started by ``serve.py`` as a plain child.  It goes through the public API
only -- ``ModelSnapshot.load``, ``TopicService(snapshot, config=...).start()``
-- prints one JSON line (port, its own pid and its workers', load and start
times), then blocks on stdin.  EOF on stdin is the request to close: the load
generator has closed its connections by then, because an open keep-alive
connection makes ``close()`` fail inside the event loop.  SIGTERM takes the
same path.  Whatever ``multiprocessing`` still lists five seconds after
``close()`` is terminated, then killed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import time

import common
import procs

common.use_repo_sources()

from repro.service import ServiceConfig, TopicService  # noqa: E402
from repro.serving.snapshot import ModelSnapshot  # noqa: E402

CLOSE_DEADLINE = 5.0


def _exit_on_sigterm(_signum: int, _frame: object) -> None:
    raise SystemExit(1)


def stop_children() -> None:
    """Terminate, then kill, worker processes that outlived ``close()``."""
    deadline = time.monotonic() + CLOSE_DEADLINE
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    for process in multiprocessing.active_children():
        process.terminate()
    for process in multiprocessing.active_children():
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--parent", type=int, required=True)
    args = parser.parse_args()
    procs.die_with_parent(args.parent)
    procs.arm_forked_children()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    started = time.perf_counter()
    snapshot = ModelSnapshot.load(args.snapshot)
    loaded = time.perf_counter()
    # The shipped defaults: two workers, EM fold-in, per-worker LRU of 4096.
    service = TopicService(snapshot, config=ServiceConfig(num_workers=2))
    try:
        service.start()
        ready = {
            "port": service.port,
            "pids": [os.getpid()]
            + [process.pid for process in multiprocessing.active_children()],
            "load_s": loaded - started,
            "start_s": time.perf_counter() - loaded,
        }
        print(json.dumps(ready), flush=True)
        sys.stdin.read()
    finally:
        closing = time.perf_counter()
        service.close()
        print(json.dumps({"close_s": time.perf_counter() - closing}), flush=True)
        stop_children()


if __name__ == "__main__":
    main()
