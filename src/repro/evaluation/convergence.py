"""Convergence tracking and the speedup metrics used in Fig. 5.

The paper reports, for every algorithm:

* log likelihood versus iteration and versus wall-clock time,
* the ratio of iterations (and of time) another algorithm needs relative to
  WarpLDA to reach a given log likelihood,
* token throughput per iteration.

:class:`ConvergenceTracker` captures those series during a ``fit`` run, and
:func:`iterations_to_reach` / :func:`time_to_reach` / :func:`speedup_ratio`
compute the derived ratios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = [
    "ConvergenceRecord",
    "ConvergenceTracker",
    "iterations_to_reach",
    "time_to_reach",
    "speedup_ratio",
]


@dataclass(frozen=True)
class ConvergenceRecord:
    """One measurement point of a training run."""

    iteration: int
    elapsed_seconds: float
    log_likelihood: float
    tokens_processed: int

    @property
    def throughput(self) -> float:
        """Tokens processed per second up to this point (0 if no time elapsed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.tokens_processed / self.elapsed_seconds


@dataclass
class ConvergenceTracker:
    """Collects per-iteration measurements of a sampler run.

    Samplers call :meth:`record` once per iteration (the base class does this
    automatically when a tracker is passed to ``fit``).
    """

    label: str = ""
    records: List[ConvergenceRecord] = field(default_factory=list)
    _start_time: Optional[float] = field(default=None, repr=False)

    def start(self) -> None:
        """Reset the clock; called automatically on the first record."""
        self._start_time = time.perf_counter()

    def record(
        self,
        iteration: int,
        log_likelihood: float,
        tokens_processed: int,
        elapsed_seconds: Optional[float] = None,
    ) -> ConvergenceRecord:
        """Append one measurement and return it.

        ``elapsed_seconds`` may be supplied explicitly to place a record on a
        fixed timeline; otherwise the tracker's own clock is used.
        """
        if self._start_time is None:
            self.start()
        if elapsed_seconds is None:
            elapsed_seconds = time.perf_counter() - self._start_time
        record = ConvergenceRecord(
            iteration=iteration,
            elapsed_seconds=float(elapsed_seconds),
            log_likelihood=float(log_likelihood),
            tokens_processed=int(tokens_processed),
        )
        self.records.append(record)
        return record

    # -------------------------------------------------------------- #
    @property
    def iterations(self) -> List[int]:
        return [record.iteration for record in self.records]

    @property
    def times(self) -> List[float]:
        return [record.elapsed_seconds for record in self.records]

    @property
    def log_likelihoods(self) -> List[float]:
        return [record.log_likelihood for record in self.records]

    @property
    def final_log_likelihood(self) -> float:
        if not self.records:
            raise ValueError("tracker has no records")
        return self.records[-1].log_likelihood

    def best_log_likelihood(self) -> float:
        if not self.records:
            raise ValueError("tracker has no records")
        return max(record.log_likelihood for record in self.records)

    def __len__(self) -> int:
        return len(self.records)


def iterations_to_reach(tracker: ConvergenceTracker, target: float) -> Optional[int]:
    """First iteration at which the log likelihood reaches ``target``.

    Returns ``None`` if the run never reaches it.
    """
    for record in tracker.records:
        if record.log_likelihood >= target:
            return record.iteration
    return None


def time_to_reach(tracker: ConvergenceTracker, target: float) -> Optional[float]:
    """Elapsed seconds at which the log likelihood first reaches ``target``."""
    for record in tracker.records:
        if record.log_likelihood >= target:
            return record.elapsed_seconds
    return None


def speedup_ratio(
    baseline: ConvergenceTracker,
    reference: ConvergenceTracker,
    target: float,
    metric: str = "time",
) -> Optional[float]:
    """Ratio of baseline cost over reference cost to reach ``target``.

    This is the quantity plotted in Fig. 5 columns 3 and 4 (LightLDA or F+LDA
    over WarpLDA).  ``metric`` is ``"time"`` or ``"iterations"``.  Returns
    ``None`` if either run never reaches the target.
    """
    if metric == "time":
        baseline_cost = time_to_reach(baseline, target)
        reference_cost = time_to_reach(reference, target)
    elif metric == "iterations":
        baseline_cost = iterations_to_reach(baseline, target)
        reference_cost = iterations_to_reach(reference, target)
    else:
        raise ValueError(f"metric must be 'time' or 'iterations', got {metric!r}")
    if baseline_cost is None or reference_cost is None or reference_cost == 0:
        return None
    return baseline_cost / reference_cost
