"""CI perf-regression gate: compare a bench record against its baseline.

Reads the JSON record a ``--smoke`` bench run just wrote (e.g.
``BENCH_outofcore.json``), finds the committed baseline for the same
benchmark under ``benchmarks/baselines/``, and fails (exit 1) when any
throughput metric dropped by more than ``--max-drop`` (default 30%).

What counts as a throughput metric is structural, not per-bench: every
numeric leaf whose key ends in ``_per_sec`` (``tokens_per_sec``,
``docs_per_sec``), found anywhere in the record except inside the
``telemetry`` digest.  New benches get gated the day their baseline is
committed — no registry to update here.

Guard rails:

* the baseline and the current run must describe the **same workload**
  (matching ``benchmark`` name and corpus token count) — comparing across
  different smoke configs measures the config diff, not a regression, so a
  mismatch fails with instructions to regenerate the baseline;
* a metric present in the baseline but missing from the current record
  fails too: coverage silently shrinking is itself a regression.

Threshold override, loosest wins is **not** the policy — the CLI flag beats
the environment, which beats the default::

    # one-off local run
    python benchmarks/check_regression.py --current BENCH_outofcore.json --max-drop 0.5

    # CI-wide knob (e.g. a known-slow runner pool)
    REPRO_BENCH_MAX_DROP=0.5 python benchmarks/check_regression.py --current ...

Regenerate a baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke \
        --output benchmarks/baselines/outofcore.smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the committed per-benchmark baselines live, named
#: ``<benchmark>.smoke.json`` after the record's ``"benchmark"`` key.
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Environment variable overriding the default ``--max-drop`` (a fraction,
#: e.g. ``0.5`` allows a 50% drop).  An explicit ``--max-drop`` still wins.
MAX_DROP_ENV = "REPRO_BENCH_MAX_DROP"

#: Default allowed fractional throughput drop before the gate fails.
DEFAULT_MAX_DROP = 0.30

#: Numeric leaves with these key suffixes are gated.
_THROUGHPUT_SUFFIXES = ("_per_sec",)

#: Subtrees never walked: the obs digest contains `sampler.tokens_per_sec`
#: series whose per-sweep samples are far noisier than the bench's own
#: whole-run numbers.
_SKIPPED_KEYS = frozenset({"telemetry"})


def iter_throughput_metrics(
    record: object, prefix: str = ""
) -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every gated metric in ``record``."""
    if not isinstance(record, dict):
        return
    for key, value in record.items():
        if key in _SKIPPED_KEYS:
            continue
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from iter_throughput_metrics(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if any(key.endswith(suffix) for suffix in _THROUGHPUT_SUFFIXES):
                yield path, float(value)


def _load(path: Path) -> Dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"error: no such bench record: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path} must hold a JSON object")
    return data


def _workload_mismatch(baseline: Dict, current: Dict) -> str:
    """A human-readable mismatch description, or '' when comparable."""
    for path in ("benchmark", "corpus.tokens"):
        b, c = baseline, current
        for part in path.split("."):
            b = b.get(part) if isinstance(b, dict) else None
            c = c.get(part) if isinstance(c, dict) else None
        if b != c:
            return f"{path}: baseline {b!r} vs current {c!r}"
    return ""


def check(baseline: Dict, current: Dict, max_drop: float) -> int:
    """Print the comparison table; return the number of failures."""
    mismatch = _workload_mismatch(baseline, current)
    if mismatch:
        print(
            f"FAIL: baseline and current describe different workloads "
            f"({mismatch}); regenerate the baseline with the bench's "
            f"--smoke --output (see module docstring)"
        )
        return 1

    base_metrics = dict(iter_throughput_metrics(baseline))
    if not base_metrics:
        print("FAIL: baseline contains no *_per_sec metrics to gate on")
        return 1
    current_metrics = dict(iter_throughput_metrics(current))

    failures = 0
    width = max(len(name) for name in base_metrics)
    for name in sorted(base_metrics):
        base = base_metrics[name]
        if name not in current_metrics:
            print(f"{name:<{width}}  baseline {base:>14,.1f}  MISSING from current run")
            failures += 1
            continue
        now = current_metrics[name]
        drop = (base - now) / base if base > 0 else 0.0
        verdict = "FAIL" if drop > max_drop else "ok"
        if drop > max_drop:
            failures += 1
        print(
            f"{name:<{width}}  baseline {base:>14,.1f}  current {now:>14,.1f}  "
            f"{-drop:+8.1%}  {verdict}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="bench record written by the --smoke run under test",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="explicit baseline record (default: "
        "benchmarks/baselines/<benchmark>.smoke.json)",
    )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=None,
        help=f"allowed fractional throughput drop (default {DEFAULT_MAX_DROP}, "
        f"or ${MAX_DROP_ENV} when set)",
    )
    args = parser.parse_args(argv)

    max_drop = args.max_drop
    if max_drop is None:
        env = os.environ.get(MAX_DROP_ENV)
        try:
            max_drop = float(env) if env is not None else DEFAULT_MAX_DROP
        except ValueError:
            raise SystemExit(f"error: ${MAX_DROP_ENV}={env!r} is not a number")
    if not 0 <= max_drop:
        raise SystemExit(f"error: --max-drop must be non-negative, got {max_drop}")

    current = _load(args.current)
    baseline_path = args.baseline
    if baseline_path is None:
        name = current.get("benchmark")
        if not name:
            raise SystemExit(
                f"error: {args.current} has no 'benchmark' key; pass --baseline"
            )
        baseline_path = BASELINE_DIR / f"{name}.smoke.json"
    baseline = _load(baseline_path)

    print(f"baseline {baseline_path}")
    print(f"current  {args.current}   (max drop {max_drop:.0%})")
    failures = check(baseline, current, max_drop)
    if failures:
        print(
            f"\n{failures} metric(s) regressed more than {max_drop:.0%}. "
            f"If intentional, regenerate the baseline; to loosen the gate "
            f"set {MAX_DROP_ENV} or pass --max-drop."
        )
        return 1
    print("\nperf gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
