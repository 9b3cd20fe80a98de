"""Tests for the data-parallel trainer (repro.training.parallel)."""

import numpy as np
import pytest

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.training import SAMPLER_REGISTRY, ParallelTrainer, TrainerConfig


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
# Configuration
# --------------------------------------------------------------------- #
class TestTrainerConfig:
    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            TrainerConfig(sampler="nope")

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
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    def test_dict_round_trip(self):
        config = TrainerConfig(sampler="cgs", num_topics=7, beta=0.02)
        assert TrainerConfig.from_dict(config.to_dict()) == config


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
