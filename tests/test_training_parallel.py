"""Tests for the data-parallel trainer (repro.training.parallel)."""

import numpy as np
import pytest

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.distributed import imbalance_index
from repro.evaluation import ConvergenceTracker
from repro.training import (
    SAMPLER_REGISTRY,
    Checkpoint,
    ParallelTrainer,
    contiguous_shards,
)


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_documents=40, vocabulary_size=80, mean_document_length=25, num_topics=5
    )
    return generate_lda_corpus(spec, seed=0)


def global_counts_from_assignments(corpus, assignments, num_topics):
    counts = np.zeros((corpus.vocabulary_size, num_topics), dtype=np.int64)
    np.add.at(counts, (corpus.token_words, assignments), 1)
    return counts


# --------------------------------------------------------------------- #
# Keywords
# --------------------------------------------------------------------- #
class TestTrainerKeywords:
    def test_unknown_sampler_rejected(self, corpus):
        with pytest.raises(ValueError, match="unknown sampler"):
            ParallelTrainer(corpus, backend="inline", sampler="nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_topics": 0},
            {"alpha": -1.0},
            {"beta": 0.0},
            {"num_mh_steps": 0},
            {"iterations_per_epoch": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, corpus, kwargs):
        with pytest.raises(ValueError):
            ParallelTrainer(corpus, backend="inline", **kwargs)


# --------------------------------------------------------------------- #
# Trainer basics (inline backend: deterministic, no processes)
# --------------------------------------------------------------------- #
class TestParallelTrainerInline:
    def test_invalid_arguments(self, corpus):
        with pytest.raises(ValueError, match="num_workers"):
            ParallelTrainer(corpus, num_workers=0, backend="inline")
        with pytest.raises(ValueError, match="backend"):
            ParallelTrainer(corpus, num_workers=2, backend="threads")

    def test_merged_counts_match_gathered_assignments(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=3, num_topics=6, seed=0, backend="inline"
        ) as trainer:
            trainer.train(2)
            expected = global_counts_from_assignments(
                corpus, trainer.assignments(), trainer.num_topics
            )
            assert np.array_equal(trainer.word_topic_counts(), expected)
            assert trainer.word_topic_counts().sum() == corpus.num_tokens

    def test_phi_theta_are_distributions(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=1, backend="inline"
        ) as trainer:
            trainer.train(1)
            assert np.allclose(trainer.phi().sum(axis=1), 1.0)
            assert np.allclose(trainer.theta().sum(axis=1), 1.0)
            assert trainer.phi().shape == (4, corpus.vocabulary_size)
            assert trainer.theta().shape == (corpus.num_documents, 4)

    def test_likelihood_improves_over_training(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=2, backend="inline"
        ) as trainer:
            initial = trainer.log_likelihood()
            trainer.train(8)
            assert trainer.log_likelihood() > initial

    def test_single_worker_runs(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=1, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            trainer.train(2)
            assert trainer.epochs_completed == 2

    @pytest.mark.parametrize("sampler", sorted(SAMPLER_REGISTRY))
    def test_every_registered_sampler_trains(self, corpus, sampler):
        with ParallelTrainer(
            corpus,
            num_workers=2,
            sampler=sampler,
            num_topics=4,
            seed=3,
            backend="inline",
        ) as trainer:
            trainer.train(1)
            expected = global_counts_from_assignments(
                corpus, trainer.assignments(), trainer.num_topics
            )
            assert np.array_equal(trainer.word_topic_counts(), expected)

    def test_iterations_per_epoch(self, corpus):
        with ParallelTrainer(
            corpus,
            num_workers=2,
            num_topics=4,
            iterations_per_epoch=3,
            seed=0,
            backend="inline",
        ) as trainer:
            trainer.train(2)
            states = trainer.export_worker_states()
            assert all(state["iterations_completed"] == 6 for state in states)

    def test_export_snapshot_metadata(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            trainer.train(2)
            snapshot = trainer.export_snapshot()
            assert snapshot.metadata["sampler"] == "Parallel[warplda]"
            assert snapshot.metadata["num_workers"] == 2
            assert snapshot.metadata["epochs"] == 2

    def test_closed_trainer_rejects_use(self, corpus):
        trainer = ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=0, backend="inline"
        )
        trainer.close()
        trainer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            trainer.run_epoch()

    def test_more_workers_than_documents_rejected(self, corpus):
        with pytest.raises(ValueError, match="contiguous shards"):
            ParallelTrainer(
                corpus,
                num_workers=corpus.num_documents + 1,
                num_topics=4,
                backend="inline",
            )


# --------------------------------------------------------------------- #
# The train loop: measured timeline, argument checks, checkpoint stride
# --------------------------------------------------------------------- #
class TestTrainLoop:
    @pytest.mark.parametrize("evaluate_every", [1, 2])
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_tracker_records_measured_timeline(self, corpus, backend, evaluate_every):
        """The Fig. 6 / Fig. 9 time axis: one point per evaluated epoch, on
        the wall clock, ending at the trainer's own global likelihood."""
        tracker = ConvergenceTracker("parallel")
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=0, backend=backend
        ) as trainer:
            trainer.train(4, tracker=tracker, evaluate_every=evaluate_every)
            final = trainer.log_likelihood()
        assert tracker.iterations == list(range(evaluate_every, 5, evaluate_every))
        times = tracker.times
        assert times[0] > 0
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert tracker.log_likelihoods[-1] == final
        assert [point.tokens_processed for point in tracker.records] == [
            iterations * corpus.num_tokens for iterations in tracker.iterations
        ]

    def test_tracker_counts_inner_sweeps(self, corpus):
        tracker = ConvergenceTracker("parallel")
        with ParallelTrainer(
            corpus,
            num_workers=2,
            num_topics=4,
            iterations_per_epoch=3,
            seed=0,
            backend="inline",
        ) as trainer:
            trainer.train(2, tracker=tracker)
        assert tracker.iterations == [3, 6]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num_epochs": -1}, "num_epochs must be non-negative, got -1"),
            ({"evaluate_every": 0}, "evaluate_every must be positive, got 0"),
            ({"evaluate_every": -2}, "evaluate_every must be positive, got -2"),
            ({"checkpoint_every": -1}, "checkpoint_every must be non-negative, got -1"),
        ],
    )
    def test_invalid_train_arguments_rejected_before_any_epoch(
        self, corpus, kwargs, message
    ):
        tracker = ConvergenceTracker("parallel")
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            before = trainer.assignments()
            with pytest.raises(ValueError, match=message):
                trainer.train(**{"num_epochs": 2, "tracker": tracker, **kwargs})
            assert trainer.epochs_completed == 0
            assert np.array_equal(trainer.assignments(), before)
        assert len(tracker) == 0

    def test_zero_epochs_changes_nothing(self, corpus, tmp_path):
        tracker = ConvergenceTracker("parallel")
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            before = trainer.assignments()
            trainer.train(0, tracker=tracker, checkpoint_dir=tmp_path / "ckpt")
            assert trainer.epochs_completed == 0
            assert np.array_equal(trainer.assignments(), before)
        assert len(tracker) == 0
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("checkpoint_every", [0, 2])
    def test_final_epoch_is_always_checkpointed(self, corpus, tmp_path, checkpoint_every):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            trainer.train(
                3, checkpoint_dir=tmp_path / "ckpt", checkpoint_every=checkpoint_every
            )
            final = trainer.assignments()
        checkpoint = Checkpoint.load(tmp_path / "ckpt")
        assert checkpoint.epochs_completed == 3
        with checkpoint.restore(corpus, backend="inline") as restored:
            assert np.array_equal(restored.assignments(), final)


# --------------------------------------------------------------------- #
# Document sharding
# --------------------------------------------------------------------- #
class TestSharding:
    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_shards_are_the_contiguous_cut(self, corpus, num_workers):
        with ParallelTrainer(
            corpus, num_workers=num_workers, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            assert np.array_equal(
                trainer.boundaries,
                contiguous_shards(corpus.document_lengths(), num_workers),
            )
            trainer.train(1)
            assignments = trainer.assignments()
            assert assignments.shape == (corpus.num_tokens,)
            states = trainer.export_worker_states()
            assert len(states) == num_workers
            lengths = corpus.document_lengths()
            for index, state in enumerate(states):
                start, stop = trainer.boundaries[index : index + 2]
                assert state["assignments"].size == lengths[start:stop].sum()

    def test_shards_are_token_balanced(self, medium_corpus):
        with ParallelTrainer(
            medium_corpus, num_workers=4, num_topics=4, seed=0, backend="inline"
        ) as trainer:
            states = trainer.export_worker_states()
        loads = np.array([state["assignments"].size for state in states])
        assert loads.sum() == medium_corpus.num_tokens
        assert imbalance_index(loads) < 0.5


# --------------------------------------------------------------------- #
# Process backend (real multiprocessing workers)
# --------------------------------------------------------------------- #
class TestParallelTrainerProcess:
    def test_process_matches_inline_bit_exactly(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=7, backend="inline"
        ) as inline:
            inline.train(3)
            inline_assignments = inline.assignments()
            inline_wt = inline.word_topic_counts()
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=7, backend="process"
        ) as process:
            process.train(3)
            assert np.array_equal(process.assignments(), inline_assignments)
            assert np.array_equal(process.word_topic_counts(), inline_wt)

    def test_worker_error_propagates(self, corpus):
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=0, backend="process"
        ) as trainer:
            bad = [dict(state) for state in trainer.export_worker_states()]
            bad[0]["assignments"] = bad[0]["assignments"][:-1]
            with pytest.raises(RuntimeError, match="training worker failed"):
                trainer.import_worker_states(bad)
