"""Tests for the simulated cluster and the distributed WarpLDA driver."""

import numpy as np
import pytest

from repro.core import WarpLDA
from repro.distributed import ClusterConfig, DistributedWarpLDA, SimulatedCluster
from repro.evaluation import ConvergenceTracker


class TestClusterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"num_workers": 2, "network_bandwidth_bytes": 0},
            {"num_workers": 2, "overlap_fraction": 1.5},
            {"num_workers": 2, "bytes_per_entry": 0},
        ],
    )
    def test_invalid_configuration_raises(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestSimulatedCluster:
    def test_partitioning_is_reasonably_balanced(self, medium_corpus):
        cluster = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=4))
        assert cluster.column_loads.sum() == medium_corpus.num_tokens
        assert cluster.row_loads.sum() == medium_corpus.num_tokens
        assert cluster.column_imbalance < 0.5
        assert cluster.row_imbalance < 0.5

    def test_communication_volume_scales_with_workers(self, medium_corpus):
        two = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=2))
        eight = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=8))
        assert (
            eight.communication_bytes_per_iteration()
            > two.communication_bytes_per_iteration()
        )

    def test_single_worker_has_no_communication_time(self, medium_corpus):
        cluster = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=1))
        assert cluster.iteration_time(1.0) == pytest.approx(1.0, rel=0.01)

    def test_more_workers_reduce_iteration_time(self, medium_corpus):
        config = dict(network_bandwidth_bytes=1e9, overlap_fraction=0.7)
        one = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=1, **config))
        eight = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=8, **config))
        assert eight.iteration_time(1.0) < one.iteration_time(1.0)

    def test_negative_compute_time_raises(self, medium_corpus):
        cluster = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=2))
        with pytest.raises(ValueError):
            cluster.iteration_time(-1.0)

    def test_summary_keys(self, medium_corpus):
        summary = SimulatedCluster(medium_corpus, ClusterConfig(num_workers=4)).summary()
        assert set(summary) == {
            "num_workers",
            "column_imbalance",
            "row_imbalance",
            "comm_bytes_per_iteration",
        }


class TestDistributedWarpLDA:
    def test_matches_single_process_updates(self, small_corpus):
        """Delayed updates make distributed execution equivalent: same seed,
        same trajectory as the plain sampler."""
        plain = WarpLDA(small_corpus, num_topics=5, seed=0, num_mh_steps=2).fit(3)
        distributed = DistributedWarpLDA(
            small_corpus, ClusterConfig(num_workers=4), num_topics=5, num_mh_steps=2, seed=0
        ).fit(3)
        np.testing.assert_array_equal(plain.assignments, distributed.sampler.assignments)

    def test_tracker_uses_modelled_time(self, small_corpus):
        model = DistributedWarpLDA(
            small_corpus, ClusterConfig(num_workers=8), num_topics=5, seed=0
        )
        tracker = ConvergenceTracker("dist")
        model.fit(3, tracker=tracker)
        times = tracker.times
        assert len(times) == 3
        assert all(later >= earlier for earlier, later in zip(times, times[1:]))
        assert times[-1] == pytest.approx(model.modelled_seconds)

    def test_log_likelihood_improves(self, small_corpus):
        model = DistributedWarpLDA(
            small_corpus, ClusterConfig(num_workers=2), num_topics=5, seed=0
        )
        initial = model.log_likelihood()
        model.fit(5)
        assert model.log_likelihood() > initial

    def test_phi_theta_shapes(self, small_corpus):
        model = DistributedWarpLDA(
            small_corpus, ClusterConfig(num_workers=2), num_topics=5, seed=0
        ).fit(1)
        assert model.phi().shape == (5, small_corpus.vocabulary_size)
        assert model.theta().shape == (small_corpus.num_documents, 5)

    def test_fit_validates_evaluate_every(self, small_corpus):
        model = DistributedWarpLDA(
            small_corpus, ClusterConfig(num_workers=2), num_topics=5, seed=0
        )
        with pytest.raises(ValueError, match="evaluate_every must be positive, got 0"):
            model.fit(2, tracker=ConvergenceTracker("dist"), evaluate_every=0)
