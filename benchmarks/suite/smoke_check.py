"""Checks the benchmark itself, at ``--smoke`` size, in under half a minute.

    python3 benchmarks/suite/smoke_check.py

* every workload, tracing off and on: exit code 0, the last line parses as
  JSON with exactly the contract's keys, the metric names are exactly those
  of ``BENCHMARK.json``, every check passed;
* after each run, after SIGTERM and SIGKILL of the runner in the middle of
  ``serve_cold``, and after SIGKILL in the middle of its traced staircase
  (which has a ``WorkerPool`` of its own), a scan of ``/proc`` finds no process
  the runner started and ``/dev/shm`` holds no new ``psm_*`` segment.

The scan looks for an environment variable this script gives the runner
(:data:`SMOKE_ENV`), which every descendant inherits, so it does not depend
on the runner having survived to report anything.

Not named ``test_*``: the tier-1 suite does not collect it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

import common
import procs

SMOKE_ENV = "WARPLDA_BENCH_SMOKE"
RUNNER = str(common.SUITE / "run.py")
#: Processes alive while serve_cold is being served: runner, workload, host,
#: two workers and the resource tracker.  While the traced staircase has its
#: own ``WorkerPool`` up: two more workers and the workload's resource tracker.
SERVING_PROCESSES = {0: 6, 1: 9}


def runner_command(workload: str, trace: int, seconds: int = 1) -> List[str]:
    return [
        sys.executable, RUNNER, "--smoke", "--workload", workload,
        "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip


def marked_env(marker: str) -> Dict[str, str]:
    return {**os.environ, SMOKE_ENV: marker}


def assert_nothing_left(marker: str, shm_before: set, what: str) -> None:
    gone = procs.wait_gone(marker, grace=10.0, variable=SMOKE_ENV)
    assert gone, f"{what}: still running: {procs.marked_pids(marker, SMOKE_ENV)}"
    leaked = procs.shm_segments() - shm_before
    assert not leaked, f"{what}: shared memory left behind: {sorted(leaked)}"


def check_run(contract: dict, workload: str, trace: int) -> None:
    what = f"{workload} --trace {trace}"
    marker = f"{os.getpid()}-{workload}-{trace}"
    shm_before = procs.shm_segments()
    done = subprocess.run(
        runner_command(workload, trace), env=marked_env(marker), capture_output=True, text=True
    )
    assert done.returncode == 0, f"{what}: exit code {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: {sorted(result)}"
    declared = contract["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared], f"{what}: metric names"
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], f"{what}: unit of {metric['name']}"
        assert isinstance(reported["value"], (int, float)), f"{what}: value of {metric['name']}"
    assert result["correct"] is True, f"{what}: a check failed\n{done.stderr}"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{what}: {result['failed']} failed"
    assert_nothing_left(marker, shm_before, what)


def check_kill(signum: int, trace: int) -> None:
    what = f"serve_cold --trace {trace} under {signal.Signals(signum).name}"
    marker = f"{os.getpid()}-kill-{signum}-{trace}"
    shm_before = procs.shm_segments()
    runner = subprocess.Popen(
        # Long enough that the signal lands while the service is up.
        runner_command("serve_cold", trace, seconds=30),
        env=marked_env(marker),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 20.0
    while len(procs.marked_pids(marker, SMOKE_ENV)) < SERVING_PROCESSES[trace]:
        assert time.monotonic() < deadline, f"{what}: the processes never came up"
        assert runner.poll() is None, f"{what}: the runner ended before the signal"
        time.sleep(0.02)
    runner.send_signal(signum)
    output, _ = runner.communicate(timeout=30.0)
    assert runner.returncode != 0, f"{what}: exit code 0"
    assert '"metrics"' not in output, f"{what}: a result was printed"
    assert_nothing_left(marker, shm_before, what)


def main() -> None:
    started = time.monotonic()
    contract = common.load_contract()
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            check_run(contract, workload, trace)
            print(f"ok  {workload} --trace {trace}")
    for signum, trace in ((signal.SIGTERM, 0), (signal.SIGKILL, 0), (signal.SIGKILL, 1)):
        check_kill(signum, trace)
        print(f"ok  nothing left after {signal.Signals(signum).name} in serve_cold --trace {trace}")
    print(f"smoke check passed in {time.monotonic() - started:.1f} s")


if __name__ == "__main__":
    main()
