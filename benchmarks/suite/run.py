"""The benchmark's one command.

    python3 benchmarks/suite/run.py --workload train_k64 --seed 1 --seconds 15 --trace 0

runs one workload once: the workload's process, teardown, the
proof that nothing is left running, every metric by name with its unit, and
on the last line the JSON result ``BENCHMARK.json`` describes.  ``--trace 1``
runs the traced variant and prints the per-layer metrics instead.

    python3 benchmarks/suite/run.py --repeat 10 [--workload NAME]

is the noise mode: N fresh runs per workload, each on another seed, then the
median, quartiles and spread of every end-to-end metric against its bound.

The runner starts each workload as a plain child (same process group, no new
session) and uses no ``multiprocessing``.  SIGTERM, SIGINT and the hard
deadline all raise :class:`Stop`, which lands in the one teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import procs

#: Seconds after which a run gives up (the contract allows 180).
HARD_DEADLINE = 150.0


STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGALRM)


class Stop(Exception):
    """A signal or the deadline asked the run to end."""


def _raise_stop(signum: int, _frame: Any) -> None:
    raise Stop(signal.Signals(signum).name)


class Run:
    """One run of one workload: children, teardown, and the no-leak proof."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        common.remove_orphaned_scratch()
        self.run_id = f"{os.getpid()}-{time.time_ns():x}"
        self.shm_before = procs.shm_segments()
        self.child: Optional[subprocess.Popen] = None
        self.left: Optional[Tuple[int, int]] = None

    def measure(self) -> Tuple[float, Dict[str, Any]]:
        """Run the workload's process to its end; returns (set-up seconds, result)."""
        command = [
            sys.executable,
            str(common.SUITE / common.WORKLOADS[self.workload]),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--seconds", str(self.seconds),
            "--trace", str(self.trace),
            "--run-id", self.run_id,
            "--parent", str(os.getpid()),
        ]  # fmt: skip
        if self.smoke:
            command.append("--smoke")
        spawned_at = time.monotonic()
        self.child = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            env={**os.environ, procs.RUN_ENV: self.run_id},
            text=True,
        )
        output, _ = self.child.communicate()
        if self.child.returncode != 0:
            raise RuntimeError(f"{self.workload} child exited with {self.child.returncode}")
        result = json.loads(output.strip().splitlines()[-1])
        return result["ready_at"] - spawned_at, result

    def teardown(self) -> Tuple[int, int]:
        """Stop everything the run started; returns (processes, segments) left.

        Idempotent: the normal path, a signal and the deadline all end here.
        """
        if self.left is not None:
            return self.left
        for signum in STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        child = self.child
        if child is not None and child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        procs.wait_gone(self.run_id, grace=3.0)
        self.left = (procs.kill_marked(self.run_id), procs.unlink_leaked_segments(self.shm_before))
        common.remove_scratch(self.run_id)
        return self.left


def run_once(
    contract: Dict[str, Any], workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Dict[str, Any]:
    """One complete run; returns the contract's result object."""
    run = Run(workload, seed, seconds, trace, smoke)
    for signum in STOP_SIGNALS:
        signal.signal(signum, _raise_stop)
    signal.setitimer(signal.ITIMER_REAL, HARD_DEADLINE)
    try:
        setup, result = run.measure()
    finally:
        while True:
            try:
                procs_left, shm_left = run.teardown()
                break
            except Stop:  # arrived before teardown could mask it: start over
                continue

    values: Dict[str, float] = dict(result["metrics"])
    if trace:
        declared = contract["per_layer"]
        values["bench.procs_left"] = procs_left
        values["bench.shm_left"] = shm_left
        # A layer that is not on this workload's path did no work in it.
        for metric in declared:
            values.setdefault(metric["name"], 0.0)
    else:
        declared = contract["end_to_end"]
        values["setup_s"] = setup
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"{workload} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    checks = dict(result["checks"], no_process_left=procs_left == 0, no_segment_left=shm_left == 0)
    for name, passed in checks.items():
        if not passed:
            print(f"check failed: {workload}: {name}", file=sys.stderr)
    return {
        "correct": all(checks.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def print_result(workload: str, result: Dict[str, Any]) -> None:
    print(f"workload {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")


def noise(contract: Dict[str, Any], workloads: List[str], args: argparse.Namespace) -> bool:
    """``--repeat``: spread of every end-to-end metric against its bound."""
    within = True
    for workload in workloads:
        samples: Dict[str, List[float]] = {}
        for offset in range(args.repeat):
            result = run_once(contract, workload, args.seed + offset, args.seconds, 0, args.smoke)
            if not result["correct"]:
                within = False
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in contract["end_to_end"]:
            values = samples[metric["name"]]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            held = spread <= metric["bound"]
            within = within and held
            print(
                f"  {metric['name']:<18} {q1:>12.6g} {mid:>12.6g} {q3:>12.6g} "
                f"{spread:>8.4f} {metric['bound']:>6} {'' if held else 'OVER'}"
            )
    return within


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=common.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="noise mode: runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (smoke_check.py)")
    args = parser.parse_args()
    common.use_repo_sources()
    contract = common.load_contract()

    try:
        if args.repeat:
            if args.repeat < 2:
                parser.error("--repeat needs at least 2 runs to have quartiles")
            workloads = [args.workload] if args.workload else list(common.WORKLOADS)
            return 0 if noise(contract, workloads, args) else 1
        if not args.workload:
            parser.error("--workload is required (or use --repeat)")
        result = run_once(contract, args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except Stop as stop:
        print(f"stopped by {stop}; everything started has been torn down", file=sys.stderr)
        return 1
    except RuntimeError as error:  # a child failed, or its metrics are not the contract's
        print(f"no result: {error}", file=sys.stderr)
        return 1
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
