"""Tests for training checkpoints (repro.training.checkpoint)."""

import json

import numpy as np
import pytest

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.serving import InferenceEngine, ModelSnapshot
from repro.training import Checkpoint, ParallelTrainer
from repro.training.checkpoint import corpus_fingerprint
from repro.training.parallel import CONFIG_KEYS


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_documents=30, vocabulary_size=60, mean_document_length=20, num_topics=4
    )
    return generate_lda_corpus(spec, seed=1)


@pytest.fixture()
def trained(corpus):
    with ParallelTrainer(
        corpus, num_workers=2, num_topics=5, seed=11, backend="inline"
    ) as trainer:
        trainer.train(3)
        yield trainer


class TestCheckpointRoundTrip:
    def test_save_load_preserves_everything(self, trained, corpus, tmp_path):
        checkpoint = Checkpoint.capture(trained)
        checkpoint.save(tmp_path / "ckpt")
        loaded = Checkpoint.load(tmp_path / "ckpt")

        assert loaded.snapshot == checkpoint.snapshot
        assert loaded.config == trained.config
        assert tuple(trained.config) == CONFIG_KEYS
        assert loaded.num_workers == trained.num_workers
        assert loaded.epochs_completed == 3
        assert np.array_equal(loaded.boundaries, trained.boundaries)
        for original, restored in zip(checkpoint.worker_states, loaded.worker_states):
            assert np.array_equal(original["assignments"], restored["assignments"])
            assert np.array_equal(original["proposals"], restored["proposals"])
            assert original["rng_state"] == restored["rng_state"]

    def test_checkpoint_snapshot_is_directly_servable(self, trained, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        snapshot = ModelSnapshot.load(tmp_path / "ckpt" / "snapshot.npz")
        theta = InferenceEngine(snapshot).infer_ids([np.array([0, 1, 2])])
        assert theta.shape == (1, 5)
        assert snapshot.metadata["checkpoint_epoch"] == 3

    def test_json_sidecar_is_plain_json(self, trained, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        meta = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())
        assert meta["format_version"] == 1
        assert meta["config"]["sampler"] == "warplda"
        assert len(meta["rng_states"]) == 2

    def test_unsupported_version_rejected(self, trained, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        meta_path = tmp_path / "ckpt" / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            Checkpoint.load(tmp_path / "ckpt")

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Checkpoint.load(tmp_path / "nothing")

    def test_overwriting_save_is_clean_and_loadable(self, corpus, tmp_path):
        # Saving over an existing checkpoint must swap atomically: the new
        # state replaces the old and no staging/backup residue remains.
        target = tmp_path / "ckpt"
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=11, backend="inline"
        ) as trainer:
            trainer.train(1, checkpoint_dir=target)
            trainer.train(1, checkpoint_dir=target)
        assert Checkpoint.load(target).epochs_completed == 2
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ckpt"]
        assert leftovers == []

    def test_load_falls_back_to_backup_after_torn_save(self, trained, tmp_path):
        # Simulate a save killed between its two renames: the target is gone
        # but the previous checkpoint survives as <dir>.bak — load must find
        # it instead of failing.
        target = tmp_path / "ckpt"
        trained.save_checkpoint(target)
        target.rename(tmp_path / "ckpt.bak")
        checkpoint = Checkpoint.load(target)
        assert checkpoint.epochs_completed == 3

    def test_failed_restore_does_not_leak_workers(self, trained, corpus, tmp_path):
        import multiprocessing

        trained.save_checkpoint(tmp_path / "ckpt")
        checkpoint = Checkpoint.load(tmp_path / "ckpt")
        checkpoint.worker_states[0]["assignments"] = (
            checkpoint.worker_states[0]["assignments"][:-1]
        )
        before = len(multiprocessing.active_children())
        with pytest.raises(RuntimeError):
            checkpoint.restore(corpus, backend="process")
        assert len(multiprocessing.active_children()) <= before


def _rewrite_meta(directory, edit):
    path = directory / "checkpoint.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


class TestMalformedCheckpoint:
    """A malformed ``checkpoint.json`` or ``state.npz`` fails load with ValueError."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["config"].update(num_shards=4), r"unknown config keys \['num_shards'\]"),
            (lambda m: m.update(config=[1, 2]), "no valid 'config'"),
            (lambda m: m.pop("num_workers"), "no valid 'num_workers'"),
            (lambda m: m["rng_states"].pop(), "lists 1 rng_states for 2 workers"),
            (
                lambda m: m["iterations_completed"].pop(),
                "lists 1 iterations_completed for 2 workers",
            ),
        ],
        ids=[
            "unknown-config-key",
            "config-not-object",
            "missing-num-workers",
            "short-rng-states",
            "short-iterations",
        ],
    )
    def test_malformed_metadata(self, trained, tmp_path, edit, message):
        trained.save_checkpoint(tmp_path / "ckpt")
        _rewrite_meta(tmp_path / "ckpt", edit)
        with pytest.raises(ValueError, match=message):
            Checkpoint.load(tmp_path / "ckpt")

    def test_state_missing_worker_arrays(self, trained, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "state.npz"
        with np.load(state_path) as arrays:
            kept = {name: arrays[name] for name in arrays.files if not name.endswith("_1")}
        np.savez(state_path, **kept)
        with pytest.raises(ValueError, match="assignments_1"):
            Checkpoint.load(tmp_path / "ckpt")


class TestResume:
    def test_resume_is_bit_exact(self, corpus, tmp_path):
        # Straight run: 5 epochs.
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=11, backend="inline"
        ) as straight:
            straight.train(5)
            expected_phi = straight.phi()
            expected_theta = straight.theta()
            expected_assignments = straight.assignments()

        # Interrupted run: 3 epochs, checkpoint, resume, 2 more.
        with ParallelTrainer(
            corpus, num_workers=2, num_topics=5, seed=11, backend="inline"
        ) as first:
            first.train(3, checkpoint_dir=tmp_path / "ckpt")
        with ParallelTrainer.resume(
            tmp_path / "ckpt", corpus, backend="inline"
        ) as resumed:
            assert resumed.epochs_completed == 3
            resumed.train(2)
            assert np.array_equal(resumed.assignments(), expected_assignments)
            assert np.array_equal(resumed.phi(), expected_phi)
            assert np.array_equal(resumed.theta(), expected_theta)

    def test_resume_records_provenance(self, trained, corpus, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        with ParallelTrainer.resume(
            tmp_path / "ckpt", corpus, backend="inline"
        ) as resumed:
            metadata = resumed.export_snapshot().metadata
            assert metadata["resumed_from"].endswith("ckpt")
            assert metadata["resumed_at_epoch"] == 3

    def test_wrong_corpus_rejected(self, trained, tmp_path):
        trained.save_checkpoint(tmp_path / "ckpt")
        other = generate_lda_corpus(
            SyntheticCorpusSpec(
                num_documents=30,
                vocabulary_size=60,
                mean_document_length=20,
                num_topics=4,
            ),
            seed=999,
        )
        with pytest.raises(ValueError, match="does not match"):
            ParallelTrainer.resume(tmp_path / "ckpt", other, backend="inline")

    def test_fingerprint_distinguishes_corpora(self, corpus):
        other = generate_lda_corpus(
            SyntheticCorpusSpec(num_documents=31, vocabulary_size=60), seed=1
        )
        assert corpus_fingerprint(corpus) != corpus_fingerprint(other)
        assert corpus_fingerprint(corpus) == corpus_fingerprint(corpus)
