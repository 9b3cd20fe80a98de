"""Tests for the batched inference engine (EM and MH fold-in)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WarpLDA
from repro.corpus import Vocabulary
from repro.serving import InferenceEngine, ModelSnapshot, em_fold_in, mh_fold_in
from repro.serving import infer as infer_module
from repro.serving.infer import perplexity_from_theta


def reference_em_fold_in(documents, phi, alpha, num_iterations=30):
    """The pre-vectorisation per-document EM loop, kept as ground truth."""
    num_topics = phi.shape[0]
    theta = np.tile(alpha / alpha.sum(), (len(documents), 1))
    for doc_index, words in enumerate(documents):
        words = np.asarray(words, dtype=np.int64)
        if words.size == 0:
            continue
        word_probs = phi[:, words]
        proportions = np.full(num_topics, 1.0 / num_topics)
        for _ in range(num_iterations):
            responsibilities = word_probs * proportions[:, None]
            normaliser = responsibilities.sum(axis=0)
            normaliser[normaliser == 0] = 1e-300
            responsibilities /= normaliser
            proportions = responsibilities.sum(axis=1) + alpha
            proportions /= proportions.sum()
        theta[doc_index] = proportions
    return theta


@pytest.fixture
def snapshot(tiny_corpus):
    vocab = tiny_corpus.vocabulary
    phi = np.full((2, vocab.size), 1e-6)
    for word in ["ios", "android", "iphone"]:
        phi[0, vocab[word]] = 1.0
    for word in ["apple", "orange", "fruit"]:
        phi[1, vocab[word]] = 1.0
    phi /= phi.sum(axis=1, keepdims=True)
    return ModelSnapshot(phi, 0.1, 0.01, vocab)


@pytest.fixture
def trained_snapshot(small_corpus):
    return WarpLDA(small_corpus, num_topics=5, seed=0).fit(5).export_snapshot()


class TestEmFoldIn:
    def test_matches_per_document_reference(self, trained_snapshot, rng):
        phi = trained_snapshot.phi
        alpha = trained_snapshot.alpha
        # Mixed lengths (including duplicates of a length) exercise bucketing.
        documents = [
            rng.integers(phi.shape[1], size=length)
            for length in [3, 17, 3, 64, 1, 29, 64, 5]
        ]
        batched = em_fold_in(documents, phi, alpha, num_iterations=25)
        reference = reference_em_fold_in(documents, phi, alpha, num_iterations=25)
        np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-12)

    def test_asymmetric_alpha(self, trained_snapshot, rng):
        phi = trained_snapshot.phi
        alpha = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        documents = [rng.integers(phi.shape[1], size=12) for _ in range(4)]
        batched = em_fold_in(documents, phi, alpha)
        reference = reference_em_fold_in(documents, phi, alpha)
        np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-12)

    def test_empty_document_gets_prior_mean(self, trained_snapshot):
        alpha = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        theta = em_fold_in([np.array([], dtype=np.int64)], trained_snapshot.phi, alpha)
        np.testing.assert_allclose(theta[0], alpha / alpha.sum())

    def test_rejects_bad_arguments(self, trained_snapshot):
        with pytest.raises(ValueError):
            em_fold_in([], np.ones(3), trained_snapshot.alpha)
        with pytest.raises(ValueError):
            em_fold_in([], trained_snapshot.phi, trained_snapshot.alpha, num_iterations=0)
        with pytest.raises(ValueError):
            em_fold_in([], trained_snapshot.phi, np.array([0.1, 0.1]))


class TestMhFoldIn:
    def test_identifies_obvious_topic(self, snapshot, tiny_corpus):
        documents = [tiny_corpus.document_words(3)]  # pure fruit vocabulary
        theta = mh_fold_in(
            documents, snapshot.phi, snapshot.alpha, num_sweeps=50, rng=0
        )
        assert theta[0, 1] > 0.8

    def test_deterministic_given_seed(self, trained_snapshot, rng):
        documents = [rng.integers(trained_snapshot.vocabulary_size, size=20)]
        first = mh_fold_in(documents, trained_snapshot.phi, trained_snapshot.alpha, rng=7)
        second = mh_fold_in(documents, trained_snapshot.phi, trained_snapshot.alpha, rng=7)
        np.testing.assert_array_equal(first, second)

    def test_empty_batch_and_empty_documents(self, trained_snapshot):
        alpha = trained_snapshot.alpha
        theta = mh_fold_in(
            [np.array([], dtype=np.int64)], trained_snapshot.phi, alpha, rng=0
        )
        np.testing.assert_allclose(theta[0], alpha / alpha.sum())

    def test_rows_are_normalised(self, trained_snapshot, rng):
        documents = [rng.integers(trained_snapshot.vocabulary_size, size=n) for n in [5, 0, 40]]
        theta = mh_fold_in(documents, trained_snapshot.phi, trained_snapshot.alpha, rng=3)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    @pytest.mark.parametrize("alpha", [0.1, np.array([0.05, 0.1, 0.2, 0.4, 0.8])])
    def test_gathered_log_matches_whole_matrix_log(
        self, trained_snapshot, rng, alpha, monkeypatch
    ):
        # log φ is taken only at the gathered (topic, word) pairs; θ must be
        # bit-identical to taking log(max(Φ, 1e-300)) over the whole matrix
        # first.  Zeroed entries exercise the clamp.
        phi = np.array(trained_snapshot.phi)
        phi[:, ::7] = 0.0
        documents = [rng.integers(phi.shape[1], size=n) for n in [5, 0, 40, 17]]
        gathered = mh_fold_in(documents, phi, alpha, rng=3)
        monkeypatch.setattr(
            infer_module,
            "_log_phi_at",
            lambda phi, topics, words: np.log(np.maximum(phi, 1e-300))[topics, words],
        )
        whole_matrix = mh_fold_in(documents, phi, alpha, rng=3)
        np.testing.assert_array_equal(gathered, whole_matrix)


class TestInferenceEngine:
    def test_em_agrees_with_kernel(self, trained_snapshot, rng):
        engine = InferenceEngine(trained_snapshot, num_iterations=20)
        documents = [rng.integers(trained_snapshot.vocabulary_size, size=10) for _ in range(3)]
        np.testing.assert_array_equal(
            engine.infer_ids(documents),
            em_fold_in(documents, trained_snapshot.phi, trained_snapshot.alpha, 20),
        )

    def test_mh_strategy_identifies_obvious_topic(self, snapshot, tiny_corpus):
        engine = InferenceEngine(snapshot, strategy="mh", num_iterations=50, seed=0)
        theta = engine.infer_ids([tiny_corpus.document_words(3)])
        assert theta[0, 1] > 0.8

    def test_infer_tokens_drops_oov(self, snapshot):
        engine = InferenceEngine(snapshot)
        encoded, dropped = engine.encode([["apple", "unknown-word", "fruit"]])
        assert dropped == 1
        assert encoded[0].size == 2
        theta = engine.infer_tokens([["apple", "unknown-word", "fruit"]])
        assert theta[0, 1] > 0.8

    def test_all_oov_document_gets_prior_mean(self, snapshot):
        engine = InferenceEngine(snapshot)
        theta = engine.infer_tokens([["zzz", "qqq"]])
        np.testing.assert_allclose(theta[0], snapshot.alpha / snapshot.alpha_sum)

    def test_empty_input_batch(self, snapshot):
        engine = InferenceEngine(snapshot)
        assert engine.infer_ids([]).shape == (0, snapshot.num_topics)

    def test_out_of_range_ids_rejected(self, snapshot):
        engine = InferenceEngine(snapshot)
        with pytest.raises(ValueError, match="word ids"):
            engine.infer_ids([[snapshot.vocabulary_size]])

    def test_invalid_configuration_rejected(self, snapshot):
        with pytest.raises(ValueError):
            InferenceEngine(snapshot, strategy="gibbs")
        with pytest.raises(ValueError):
            InferenceEngine(snapshot, num_iterations=0)
        with pytest.raises(ValueError):
            InferenceEngine(snapshot, num_mh_steps=0)


FOLD_IN_PATHS = {
    "em_fold_in": lambda docs, phi, alpha: em_fold_in(docs, phi, alpha),
    "mh_fold_in": lambda docs, phi, alpha: mh_fold_in(docs, phi, alpha, rng=0),
    "perplexity_from_theta": lambda docs, phi, alpha: perplexity_from_theta(
        docs, np.full((len(docs), phi.shape[0]), 1.0 / phi.shape[0]), phi
    ),
}


@pytest.mark.parametrize("bad_id", ["negative", "vocab_size"])
@pytest.mark.parametrize("path", sorted(FOLD_IN_PATHS))
def test_out_of_range_word_ids_rejected_by_every_path(trained_snapshot, path, bad_id):
    # Fancy indexing would wrap -1 to word V - 1 and raise a bare IndexError
    # for V; every path checks the range first.
    vocab_size = trained_snapshot.vocabulary_size
    word = -1 if bad_id == "negative" else vocab_size
    documents = [np.array([0, 1]), np.array([0, word])]
    with pytest.raises(ValueError, match=rf"word ids must be in \[0, {vocab_size}\)"):
        FOLD_IN_PATHS[path](documents, trained_snapshot.phi, trained_snapshot.alpha)


class TestPhiLayoutIndependence:
    """θ and perplexity do not depend on Φ's memory order, only on its values."""

    @given(
        seed=st.integers(0, 2**31),
        num_topics=st.integers(1, 6),
        vocab_size=st.integers(1, 40),
        lengths=st.lists(st.integers(0, 30), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_c_and_f_order_phi_give_identical_results(
        self, seed, num_topics, vocab_size, lengths
    ):
        rng = np.random.default_rng(seed)
        phi = rng.random((num_topics, vocab_size)) ** 3
        phi /= phi.sum(axis=1, keepdims=True)
        c_order = np.ascontiguousarray(phi)
        f_order = np.asfortranarray(phi)
        alpha = rng.uniform(0.05, 1.0, size=num_topics)
        documents = [rng.integers(vocab_size, size=n) for n in lengths]

        em_c = em_fold_in(documents, c_order, alpha, num_iterations=10)
        em_f = em_fold_in(documents, f_order, alpha, num_iterations=10)
        np.testing.assert_array_equal(em_c, em_f)
        np.testing.assert_array_equal(
            mh_fold_in(documents, c_order, alpha, num_sweeps=5, rng=seed),
            mh_fold_in(documents, f_order, alpha, num_sweeps=5, rng=seed),
        )
        if any(lengths):
            assert perplexity_from_theta(documents, em_c, c_order) == (
                perplexity_from_theta(documents, em_c, f_order)
            )
