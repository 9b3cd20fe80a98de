"""The threaded kernel tier: pool primitives and bit-exact determinism.

The contract under test (``repro.kernels.pool`` module docstring, README
"Determinism contract"): the sampled trajectory of every slab kernel is
**bit-identical for every thread count** — the task decomposition never
depends on the worker count, per-task RNG streams are spawned from a single
main-stream draw, and results are applied in task order.  These tests pin
that matrix for both slab kernels (warp, cgs), from the constructor
argument down to the exported snapshot bytes.
"""

import numpy as np
import pytest

from repro.core.warplda import WarpLDA
from repro.kernels import pool
from repro.kernels.cgs import blocked_gibbs_sweep
from repro.samplers import CollapsedGibbsSampler

THREAD_MATRIX = (1, 2, 4)

SLAB_SAMPLERS = [
    pytest.param(
        lambda corpus, threads: WarpLDA(
            corpus, num_topics=5, seed=3, threads=threads
        ),
        id="warplda",
    ),
    pytest.param(
        lambda corpus, threads: CollapsedGibbsSampler(
            corpus, num_topics=5, seed=3, threads=threads
        ),
        id="cgs",
    ),
]


# --------------------------------------------------------------------- #
# Pool primitives
# --------------------------------------------------------------------- #
class TestResolveThreads:
    def test_default_is_serial(self):
        assert pool.resolve_threads(None) == 1
        assert pool.resolve_threads(2) == 2

    @pytest.mark.parametrize("bad", [0, -2])
    def test_non_positive_raises(self, bad):
        with pytest.raises(ValueError, match="positive"):
            pool.resolve_threads(bad)


class TestSpawnTaskRngs:
    def test_zero_tasks_consume_nothing(self):
        rng = np.random.default_rng(5)
        assert pool.spawn_task_rngs(rng, 0) == []
        untouched = np.random.default_rng(5)
        assert rng.integers(1 << 31) == untouched.integers(1 << 31)

    def test_one_draw_regardless_of_count(self):
        # The main stream must advance identically for every decomposition,
        # or checkpoint resume would depend on the chunking.
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        pool.spawn_task_rngs(rng_a, 3)
        pool.spawn_task_rngs(rng_b, 7)
        assert rng_a.integers(1 << 31) == rng_b.integers(1 << 31)

    def test_streams_are_deterministic(self):
        first = pool.spawn_task_rngs(np.random.default_rng(5), 4)
        second = pool.spawn_task_rngs(np.random.default_rng(5), 4)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.random(8), b.random(8))


class TestRunTasks:
    @pytest.mark.parametrize("threads", THREAD_MATRIX)
    def test_results_in_task_order(self, threads):
        tasks = [(lambda i=i: i * i) for i in range(17)]
        assert pool.run_tasks(tasks, threads=threads) == [
            i * i for i in range(17)
        ]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_exceptions_propagate(self, threads):
        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            pool.run_tasks([lambda: 1, boom, lambda: 3], threads=threads)

    def test_empty_task_list(self):
        assert pool.run_tasks([], threads=4) == []


# --------------------------------------------------------------------- #
# The determinism matrix
# --------------------------------------------------------------------- #
class TestThreadCountDeterminism:
    @pytest.mark.parametrize("build", SLAB_SAMPLERS)
    def test_assignments_identical_across_thread_counts(
        self, small_corpus, build
    ):
        runs = {
            threads: build(small_corpus, threads).fit(4)
            for threads in THREAD_MATRIX
        }
        baseline = runs[1]
        for threads, model in runs.items():
            np.testing.assert_array_equal(
                model.assignments,
                baseline.assignments,
                err_msg=f"threads={threads} diverged from threads=1",
            )

    @pytest.mark.parametrize("build", SLAB_SAMPLERS)
    def test_snapshot_bytes_identical_across_thread_counts(
        self, small_corpus, build, tmp_path
    ):
        blobs = {}
        for threads in THREAD_MATRIX:
            model = build(small_corpus, threads).fit(3)
            path = model.export_snapshot().save(tmp_path / f"t{threads}.npz")
            blobs[threads] = path.read_bytes()
        assert blobs[2] == blobs[1]
        assert blobs[4] == blobs[1]

    def test_cgs_multi_wave_sweep_is_thread_invariant(self, small_corpus):
        # A tiny block budget forces many blocks, so the wave size exceeds 1
        # and blocks genuinely run concurrently within a wave.
        states = {}
        for threads in THREAD_MATRIX:
            sampler = CollapsedGibbsSampler(
                small_corpus, num_topics=5, seed=3, kernel="scalar"
            )
            rng = np.random.default_rng(17)
            for _ in range(3):
                blocked_gibbs_sweep(
                    sampler.state,
                    sampler.alpha,
                    sampler.beta,
                    sampler.beta_sum,
                    rng,
                    max_block_tokens=16,
                    threads=threads,
                )
            assert sampler.state.check_consistency()
            states[threads] = sampler.state.assignments.copy()
        np.testing.assert_array_equal(states[2], states[1])
        np.testing.assert_array_equal(states[4], states[1])


# --------------------------------------------------------------------- #
# Shared-buffer safety across concurrent buckets (regression)
# --------------------------------------------------------------------- #
class TestSharedBufferSafety:
    def test_stale_topic_counts_view_is_read_only(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=3)
        stale = model._stale_topic_counts()
        with pytest.raises(ValueError, match="read-only"):
            stale[0] = 1.0

    @staticmethod
    def _run_with_external(corpus, build, threads, mutate=False):
        model = build(corpus, threads)
        external = np.full(
            (corpus.vocabulary_size, model.num_topics), 2, dtype=np.int64
        )
        model.set_external_counts(external)
        if mutate:
            external[:] = 99
        model.fit(3)
        model.clear_external_counts()
        return model.assignments.copy(), model.word_topic_counts()

    def test_external_counts_are_frozen_copies(self, small_corpus):
        # The installed counts are copies: mutating the caller's array must
        # not alias into concurrently running bucket tasks (nor, for the
        # count-matrix samplers, into the exact subtraction on clear).
        for param in SLAB_SAMPLERS:
            plain = self._run_with_external(small_corpus, param.values[0], 2)
            mutated = self._run_with_external(
                small_corpus, param.values[0], 2, mutate=True
            )
            for expected, got in zip(plain, mutated):
                np.testing.assert_array_equal(got, expected, err_msg=param.id)

    def test_external_counts_do_not_perturb_determinism(self, small_corpus):
        for param in SLAB_SAMPLERS:
            baseline = self._run_with_external(small_corpus, param.values[0], 1)
            for threads in (2, 4):
                run = self._run_with_external(small_corpus, param.values[0], threads)
                for expected, got in zip(baseline, run):
                    np.testing.assert_array_equal(
                        got, expected, err_msg=f"{param.id} threads={threads}"
                    )
