"""Shared benchmark harness: obs-recorded timing and the common report shell.

Every benchmark in this directory answers a perf question about the same
codebase, so they share three needs:

* a **recording window** — activate a buffered :class:`repro.obs.Telemetry`
  session around the measured region so the library's own instrumentation
  (sampler counters, span histograms, streaming latencies) is captured for
  free, without each bench hand-rolling its bookkeeping;
* an **environment stamp** — the ``python``/``numpy`` versions every JSON
  record carries, so a regression seen by ``check_regression.py`` can be
  attributed to a toolchain bump vs. a code change;
* a **stable report envelope** — one writer that keeps the top-level JSON
  schema of each bench unchanged (``check_regression.py`` and the committed
  baselines under ``benchmarks/baselines/`` depend on it) and folds the
  telemetry digest in under a single additive ``"telemetry"`` key.

Import as a sibling module (``import _harness``): both ``python
benchmarks/bench_*.py`` and pytest rootdir discovery put this directory on
``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.obs import Telemetry, use_telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Histograms beyond this many distinct names are summarised by count only —
#: a bench that records hundreds of spans should not bloat its JSON record.
_DIGEST_HISTOGRAM_LIMIT = 32


def environment() -> Dict[str, Any]:
    """The toolchain + host stamp embedded in every benchmark record.

    Besides the package versions, records the logical core count — so a
    throughput shift seen by ``check_regression.py`` can be attributed to
    the host or toolchain rather than a code change.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_logical": os.cpu_count(),
    }


@contextmanager
def recording() -> Iterator[Telemetry]:
    """Activate a buffered ``repro.obs`` session for one measured region.

    The session has no trace file — spans and events accumulate in memory —
    so the only cost inside the region is the library's own (gated) probe
    work.  On exit the previous active telemetry is restored, making nested
    benches and pytest runs safe.
    """
    session = Telemetry()
    try:
        with use_telemetry(session):
            yield session
    finally:
        session.close()


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def telemetry_digest(session: Telemetry) -> Dict[str, Any]:
    """A compact, JSON-ready digest of one recording session.

    Counters, gauges and series land verbatim; histograms are collapsed to
    their percentile summaries (``count``/``mean``/``p50``/``p95``/``p99``)
    and truncated past :data:`_DIGEST_HISTOGRAM_LIMIT` names, with the
    truncation recorded explicitly — a digest must never silently pretend it
    covered everything.
    """
    state = session.registry.to_dict()
    histograms = state.get("histograms", {})
    if len(histograms) > _DIGEST_HISTOGRAM_LIMIT:
        kept = dict(sorted(histograms.items())[:_DIGEST_HISTOGRAM_LIMIT])
        state["histograms"] = kept
        state["histograms_truncated"] = len(histograms) - len(kept)
    state["events"] = len(session.events)
    return state


def write_report(
    output: Path,
    benchmark: str,
    record: Dict[str, Any],
    telemetry: Optional[Telemetry] = None,
) -> Path:
    """Assemble and write one benchmark's JSON record.

    The envelope is ``{"benchmark": ..., "python": ..., "numpy": ...}``
    followed by the bench's own ``record`` keys (unchanged, so every
    existing consumer of the per-bench schema keeps working), plus a
    trailing ``"telemetry"`` digest when a recording session is supplied.
    """
    report: Dict[str, Any] = {"benchmark": benchmark, **environment(), **record}
    if telemetry is not None:
        report["telemetry"] = telemetry_digest(telemetry)
    output = Path(output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return output
