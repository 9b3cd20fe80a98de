"""Simulated cluster execution of WarpLDA (Sec. 5.3, Fig. 6).

Because WarpLDA's counts are delayed for a whole iteration, a synchronous
distributed execution computes *exactly* the same update as the
single-process sampler — the partitioning only changes who computes what and
what must be communicated.  The simulation therefore runs the real sampler
for the model state and uses a cost model for the time axis:

* per-iteration **compute** time is the measured single-process iteration time
  divided by the modelled speedup of the worker count (including the load
  imbalance of the chosen column partitioning);
* per-iteration **communication** time is the volume of entry data that must
  move between the row layout and the column layout (everything except the
  diagonal blocks), divided by the aggregate network bandwidth, reduced by the
  fraction hidden through the block-level computation/communication overlap of
  Sec. 5.3.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.warplda import WarpLDA
from repro.corpus.corpus import Corpus
from repro.distributed.partition import (
    imbalance_index,
    partition_loads,
    partition_words_greedy,
)
from repro.distributed.scaling import MACHINE_SCALING_MODEL, ScalingModel
from repro.evaluation.convergence import ConvergenceTracker
from repro.samplers.base import validate_fit_arguments
from repro.sampling.rng import RngLike

__all__ = ["ClusterConfig", "SimulatedCluster", "DistributedWarpLDA"]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the simulated cluster.

    Attributes
    ----------
    num_workers:
        Number of MPI workers (machines).
    network_bandwidth_bytes:
        Aggregate all-to-all bandwidth in bytes/second.
    overlap_fraction:
        Fraction of communication hidden behind computation by the B x B block
        pipeline of Sec. 5.3.2 (0 = fully exposed, 1 = fully hidden).
    bytes_per_entry:
        Wire size of one token's entry (assignment + M proposals).
    scaling_model:
        Compute-speedup model for the worker count.
    """

    num_workers: int
    network_bandwidth_bytes: float = 1e9
    overlap_fraction: float = 0.7
    bytes_per_entry: int = 24
    scaling_model: ScalingModel = MACHINE_SCALING_MODEL

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.network_bandwidth_bytes <= 0:
            raise ValueError("network_bandwidth_bytes must be positive")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if self.bytes_per_entry <= 0:
            raise ValueError("bytes_per_entry must be positive")


class SimulatedCluster:
    """Partitioning plus the per-iteration time model."""

    def __init__(self, corpus: Corpus, config: ClusterConfig):
        self.corpus = corpus
        self.config = config
        word_sizes = corpus.word_frequencies()
        doc_sizes = corpus.document_lengths()
        self.column_assignment = partition_words_greedy(word_sizes, config.num_workers)
        self.row_assignment = partition_words_greedy(doc_sizes, config.num_workers)
        self.column_loads = partition_loads(
            word_sizes, self.column_assignment, config.num_workers
        )
        self.row_loads = partition_loads(
            doc_sizes, self.row_assignment, config.num_workers
        )

    # ------------------------------------------------------------------ #
    @property
    def column_imbalance(self) -> float:
        """Imbalance index of the word partitioning (Fig. 4's metric)."""
        return imbalance_index(self.column_loads)

    @property
    def row_imbalance(self) -> float:
        """Imbalance index of the document partitioning."""
        return imbalance_index(self.row_loads)

    def communication_bytes_per_iteration(self) -> float:
        """Entry data crossing workers per iteration (two re-partitions)."""
        off_diagonal_fraction = (self.config.num_workers - 1) / self.config.num_workers
        per_exchange = (
            self.corpus.num_tokens * self.config.bytes_per_entry * off_diagonal_fraction
        )
        return 2.0 * per_exchange

    def iteration_time(self, single_process_seconds: float) -> float:
        """Modelled wall-clock seconds of one distributed iteration."""
        if single_process_seconds < 0:
            raise ValueError("single_process_seconds must be non-negative")
        speedup = self.config.scaling_model.speedup(self.config.num_workers)
        # Stragglers: the slowest worker holds the barrier, so compute time is
        # inflated by the partitioning imbalance.
        straggler_factor = 1.0 + max(self.column_imbalance, self.row_imbalance)
        compute = single_process_seconds / speedup * straggler_factor
        communication = (
            self.communication_bytes_per_iteration()
            / self.config.network_bandwidth_bytes
            * (1.0 - self.config.overlap_fraction)
        )
        if self.config.num_workers == 1:
            communication = 0.0
        return compute + communication

    def predicted_speedup(self, single_process_seconds: float) -> float:
        """Modelled speedup of this cluster over the single-process sampler.

        ``single_process_seconds / iteration_time(...)`` — the number the
        real data-parallel trainer (:mod:`repro.training`) can be validated
        against; ``benchmarks/bench_parallel_training.py`` prints predicted
        and measured side by side.
        """
        if single_process_seconds <= 0:
            raise ValueError("single_process_seconds must be positive")
        return single_process_seconds / self.iteration_time(single_process_seconds)

    def prediction_error(
        self, single_process_seconds: float, measured_parallel_seconds: float
    ) -> float:
        """Relative error of the modelled iteration time vs a measurement.

        Positive means the model predicted a *slower* iteration than
        measured.  This is the simulator-validation hook: a real
        :class:`~repro.training.parallel.ParallelTrainer` run supplies the
        measurement.
        """
        if measured_parallel_seconds <= 0:
            raise ValueError("measured_parallel_seconds must be positive")
        predicted = self.iteration_time(single_process_seconds)
        return (predicted - measured_parallel_seconds) / measured_parallel_seconds

    def summary(self) -> Dict[str, float]:
        """Partitioning and communication summary for reports."""
        return {
            "num_workers": float(self.config.num_workers),
            "column_imbalance": self.column_imbalance,
            "row_imbalance": self.row_imbalance,
            "comm_bytes_per_iteration": self.communication_bytes_per_iteration(),
        }


class DistributedWarpLDA:
    """WarpLDA executed under the simulated cluster's time model.

    The model state evolves exactly as the single-process :class:`WarpLDA`
    (delayed updates make the distributed execution equivalent); only the
    reported elapsed time per iteration comes from the cluster model.
    """

    name = "DistributedWarpLDA"

    def __init__(
        self,
        corpus: Corpus,
        cluster_config: ClusterConfig,
        num_topics: int = 10,
        num_mh_steps: int = 2,
        alpha: Optional[float] = None,
        beta: float = 0.01,
        seed: RngLike = None,
    ):
        self.cluster = SimulatedCluster(corpus, cluster_config)
        self.sampler = WarpLDA(
            corpus,
            num_topics=num_topics,
            num_mh_steps=num_mh_steps,
            alpha=alpha,
            beta=beta,
            seed=seed,
        )
        self.corpus = corpus
        self.num_topics = num_topics
        self.modelled_seconds = 0.0

    def fit(
        self,
        num_iterations: int,
        tracker: Optional[ConvergenceTracker] = None,
        evaluate_every: int = 1,
    ) -> "DistributedWarpLDA":
        """Run ``num_iterations`` iterations, recording modelled elapsed time."""
        validate_fit_arguments(num_iterations, evaluate_every)
        if tracker is not None:
            tracker.start()
        for _ in range(num_iterations):
            start = time.perf_counter()
            self.sampler.run_iteration()
            measured = time.perf_counter() - start
            self.modelled_seconds += self.cluster.iteration_time(measured)
            iteration = self.sampler.iterations_completed
            if tracker is not None and iteration % evaluate_every == 0:
                tracker.record(
                    iteration=iteration,
                    log_likelihood=self.sampler.log_likelihood(),
                    tokens_processed=iteration * self.corpus.num_tokens,
                    elapsed_seconds=self.modelled_seconds,
                )
        return self

    # Convenience passthroughs ------------------------------------------------
    def log_likelihood(self) -> float:
        """Log joint likelihood of the current state."""
        return self.sampler.log_likelihood()

    def phi(self) -> np.ndarray:
        """Topic-word distributions of the current state."""
        return self.sampler.phi()

    def theta(self) -> np.ndarray:
        """Document-topic proportions of the current state."""
        return self.sampler.theta()
