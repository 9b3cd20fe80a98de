"""Tests for the shared-memory snapshot lifecycle (`repro.service.shm`)."""

import json

import numpy as np
import pytest

from repro.corpus.vocabulary import Vocabulary
from repro.serving.snapshot import ModelSnapshot
from repro.service.shm import SharedSnapshot, attach, created_segments


def make_snapshot(seed=0, num_topics=4, vocab_size=30):
    rng = np.random.default_rng(seed)
    phi = rng.random((num_topics, vocab_size))
    phi /= phi.sum(axis=1, keepdims=True)
    vocabulary = Vocabulary([f"w{i}" for i in range(vocab_size)])
    return ModelSnapshot(phi, 0.1, 0.01, vocabulary, {"sampler": "fixture"})


@pytest.fixture
def snapshot():
    return make_snapshot()


class TestSharedSnapshot:
    def test_round_trip_preserves_everything(self, snapshot):
        shared = SharedSnapshot.create(snapshot, version=3)
        try:
            attached = attach(shared.descriptor())
            try:
                adopted = attached.snapshot
                np.testing.assert_array_equal(adopted.phi, snapshot.phi)
                np.testing.assert_array_equal(adopted.alpha, snapshot.alpha)
                assert adopted.beta == snapshot.beta
                assert adopted.vocabulary == snapshot.vocabulary
                assert adopted.metadata == snapshot.metadata
                assert attached.version == 3
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_attached_snapshot_is_zero_copy_and_read_only(self, snapshot):
        shared = SharedSnapshot.create(snapshot, version=0)
        try:
            attached = attach(shared.descriptor())
            try:
                adopted = attached.snapshot
                # The adopted phi IS the shared buffer, not a private copy.
                assert np.shares_memory(adopted.phi, attached.phi_view)
                assert not adopted.phi.flags.writeable
                assert not adopted.alpha.flags.writeable
                with pytest.raises(ValueError):
                    adopted.phi[0, 0] = 0.5
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_attached_phi_is_word_major(self, snapshot):
        shared = SharedSnapshot.create(snapshot, version=0)
        try:
            attached = attach(shared.descriptor())
            try:
                adopted = attached.snapshot
                assert adopted.phi.T.flags.c_contiguous
                assert adopted.phi is attached.phi_view
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_descriptor_is_json_serializable(self, snapshot):
        shared = SharedSnapshot.create(snapshot, version=1)
        try:
            descriptor = json.loads(json.dumps(shared.descriptor()))
            attached = attach(descriptor)
            try:
                np.testing.assert_array_equal(attached.snapshot.phi, snapshot.phi)
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_created_segments_accounting(self, snapshot):
        before = created_segments()
        shared = SharedSnapshot.create(snapshot)
        assert shared.segment_name in created_segments()
        shared.unlink()
        assert created_segments() == before

    def test_unlink_is_idempotent(self, snapshot):
        shared = SharedSnapshot.create(snapshot)
        shared.unlink()
        shared.unlink()  # second release is a no-op, not an error

    def test_attach_after_unlink_fails(self, snapshot):
        shared = SharedSnapshot.create(snapshot)
        descriptor = shared.descriptor()
        shared.unlink()
        with pytest.raises(FileNotFoundError):
            attach(descriptor)

    def test_attached_close_is_idempotent(self, snapshot):
        shared = SharedSnapshot.create(snapshot)
        try:
            attached = attach(shared.descriptor())
            attached.close()
            attached.close()
            with pytest.raises(RuntimeError, match="closed"):
                attached.snapshot
        finally:
            shared.unlink()


class TestAdopt:
    def test_adopt_requires_read_only_arrays(self, snapshot):
        phi = np.array(snapshot.phi)  # writeable copy
        alpha = np.array(snapshot.alpha)
        alpha.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            ModelSnapshot.adopt(
                phi, alpha, snapshot.beta, snapshot.vocabulary
            )

    def test_adopt_requires_matching_shapes(self, snapshot):
        phi = np.array(snapshot.phi)
        phi.flags.writeable = False
        alpha = np.zeros(snapshot.num_topics + 1)
        alpha.flags.writeable = False
        with pytest.raises(ValueError):
            ModelSnapshot.adopt(phi, alpha, snapshot.beta, snapshot.vocabulary)

    def test_adopt_rejects_topic_major_phi(self, snapshot):
        phi = np.ascontiguousarray(snapshot.phi)  # K x V rows contiguous
        phi.flags.writeable = False
        with pytest.raises(ValueError, match="word-major"):
            ModelSnapshot.adopt(phi, snapshot.alpha, snapshot.beta, snapshot.vocabulary)

    def test_adopt_does_not_copy(self, snapshot):
        phi = np.array(snapshot.phi)
        phi.flags.writeable = False
        alpha = np.array(snapshot.alpha)
        alpha.flags.writeable = False
        adopted = ModelSnapshot.adopt(
            phi, alpha, snapshot.beta, snapshot.vocabulary, {"origin": "test"}
        )
        assert adopted.phi is phi
        assert adopted.alpha is alpha
        assert adopted.metadata == {"origin": "test"}
        # Behaves exactly like a constructed snapshot.
        assert adopted == ModelSnapshot(
            phi, alpha, snapshot.beta, snapshot.vocabulary
        )
