"""Tests for ModelSnapshot: validation, immutability, persistence."""

import numpy as np
import pytest

from repro import WarpLDA
from repro.corpus import Vocabulary
from repro.samplers import CollapsedGibbsSampler
from repro.serving import ModelSnapshot


def make_snapshot(num_topics=3, vocab_size=5, alpha=0.5, beta=0.01, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    phi = rng.random((num_topics, vocab_size))
    phi /= phi.sum(axis=1, keepdims=True)
    vocabulary = Vocabulary([f"w{i}" for i in range(vocab_size)])
    return ModelSnapshot(phi, alpha, beta, vocabulary, metadata={"sampler": "test"})


class TestValidation:
    def test_scalar_alpha_broadcasts(self):
        snapshot = make_snapshot(alpha=0.25)
        np.testing.assert_array_equal(snapshot.alpha, np.full(3, 0.25))
        assert snapshot.alpha_sum == pytest.approx(0.75)

    def test_rejects_unnormalised_phi(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="sum to one"):
            ModelSnapshot(np.ones((2, 2)), 0.1, 0.01, vocab)

    def test_rejects_vocabulary_size_mismatch(self):
        vocab = Vocabulary(["a", "b", "c"])
        phi = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="vocabulary"):
            ModelSnapshot(phi, 0.1, 0.01, vocab)

    def test_rejects_bad_hyperparameters(self):
        vocab = Vocabulary(["a", "b"])
        phi = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            ModelSnapshot(phi, -0.1, 0.01, vocab)
        with pytest.raises(ValueError):
            ModelSnapshot(phi, 0.1, 0.0, vocab)
        with pytest.raises(ValueError):
            ModelSnapshot(phi, np.array([0.1, 0.2, 0.3]), 0.01, vocab)


class TestImmutability:
    def test_arrays_are_read_only(self):
        snapshot = make_snapshot()
        with pytest.raises(ValueError):
            snapshot.phi[0, 0] = 1.0
        with pytest.raises(ValueError):
            snapshot.alpha[0] = 1.0

    def test_vocabulary_is_frozen_copy(self):
        vocab = Vocabulary(["a", "b"])
        snapshot = ModelSnapshot(np.full((2, 2), 0.5), 0.1, 0.01, vocab)
        assert snapshot.vocabulary.frozen
        # Growing the original does not affect the snapshot.
        vocab.add("c")
        assert snapshot.vocabulary.size == 2

    def test_source_array_mutation_does_not_leak(self):
        phi = np.full((2, 2), 0.5)
        snapshot = ModelSnapshot(phi, 0.1, 0.01, Vocabulary(["a", "b"]))
        phi[0, 0] = 99.0
        assert snapshot.phi[0, 0] == 0.5


class TestPersistence:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        snapshot = make_snapshot(num_topics=4, vocab_size=7, alpha=np.array([0.1, 0.2, 0.3, 0.4]))
        path = snapshot.save(tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.with_suffix(".npz.json").exists()
        restored = ModelSnapshot.load(path)
        assert restored == snapshot
        assert np.array_equal(restored.phi, snapshot.phi)
        assert np.array_equal(restored.alpha, snapshot.alpha)
        assert restored.beta == snapshot.beta
        assert restored.vocabulary == snapshot.vocabulary
        assert restored.metadata == snapshot.metadata

    def test_load_without_suffix(self, tmp_path):
        snapshot = make_snapshot()
        snapshot.save(tmp_path / "model")
        assert ModelSnapshot.load(tmp_path / "model") == snapshot

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelSnapshot.load(tmp_path / "nope.npz")
        snapshot = make_snapshot()
        path = snapshot.save(tmp_path / "model")
        path.with_suffix(".npz.json").unlink()
        with pytest.raises(FileNotFoundError, match="sidecar"):
            ModelSnapshot.load(path)

    def test_unsupported_format_version_rejected(self, tmp_path):
        import json

        snapshot = make_snapshot()
        path = snapshot.save(tmp_path / "model")
        sidecar = path.with_suffix(".npz.json")
        data = json.loads(sidecar.read_text())
        data["format_version"] = 999
        sidecar.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            ModelSnapshot.load(path)


class TestExportSnapshot:
    def test_warplda_export(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=0).fit(3)
        snapshot = model.export_snapshot()
        np.testing.assert_array_equal(snapshot.phi, model.phi())
        np.testing.assert_array_equal(snapshot.alpha, model.alpha)
        assert snapshot.beta == model.beta
        assert snapshot.vocabulary == small_corpus.vocabulary
        assert snapshot.metadata["sampler"] == "WarpLDA"
        assert snapshot.metadata["iterations"] == 3
        assert snapshot.metadata["num_mh_steps"] == model.num_mh_steps

    def test_base_sampler_export(self, small_corpus):
        model = CollapsedGibbsSampler(small_corpus, num_topics=5, seed=0).fit(2)
        snapshot = model.export_snapshot()
        np.testing.assert_array_equal(snapshot.phi, model.phi())
        assert snapshot.metadata["sampler"] == model.name
        assert snapshot.metadata["num_documents"] == small_corpus.num_documents

    def test_export_roundtrips_through_disk(self, small_corpus, tmp_path):
        model = WarpLDA(small_corpus, num_topics=4, seed=1).fit(2)
        snapshot = model.export_snapshot()
        restored = ModelSnapshot.load(snapshot.save(tmp_path / "warp"))
        assert restored == snapshot


class TestWordMajorLayout:
    """Φ is one C-contiguous ``V x K`` buffer; ``.phi`` is its ``K x V`` view."""

    @staticmethod
    def make_phi(order):
        phi = np.random.default_rng(0).random((4, 7), dtype=np.float64)
        phi /= phi.sum(axis=1, keepdims=True)
        return np.asarray(phi, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_constructor_copies_into_word_major(self, order):
        phi = self.make_phi(order)
        snapshot = ModelSnapshot(phi, 0.1, 0.01, Vocabulary([f"w{i}" for i in range(7)]))
        assert snapshot.phi.T.flags.c_contiguous
        assert not np.shares_memory(snapshot.phi, phi)
        np.testing.assert_array_equal(snapshot.phi, phi)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_save_load_and_with_metadata_stay_word_major(self, order, tmp_path):
        snapshot = ModelSnapshot(
            self.make_phi(order), 0.1, 0.01, Vocabulary([f"w{i}" for i in range(7)])
        )
        path = snapshot.save(tmp_path / "model")
        with np.load(path) as arrays:
            assert arrays["phi"].flags.f_contiguous  # written word-major
        restored = ModelSnapshot.load(path)
        assert restored.phi.T.flags.c_contiguous
        assert restored == snapshot
        tagged = restored.with_metadata(origin="test")
        assert tagged.phi is restored.phi  # shared, not re-laid-out
        assert tagged.phi.T.flags.c_contiguous

    def test_trained_phi_is_already_word_major(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=4, seed=1).fit(1)
        assert model.phi().T.flags.c_contiguous
        assert model.export_snapshot().phi.T.flags.c_contiguous
