"""The LDA facade: dispatch, model access, persistence and serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import LDA, SPEC_METADATA_KEY, ModelSpec
from repro.serving.snapshot import ModelSnapshot


@pytest.fixture
def fitted(small_corpus):
    return LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=3)


class TestConstruction:
    def test_kwargs_build_a_spec(self):
        model = LDA(num_topics=7, algorithm="cgs", seed=1)
        assert model.spec == ModelSpec(num_topics=7, algorithm="cgs", seed=1)

    def test_spec_and_kwargs_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            LDA(ModelSpec(), num_topics=5)

    def test_unfitted_access_raises(self):
        model = LDA(num_topics=5)
        with pytest.raises(RuntimeError, match="not been fitted"):
            model.transform([["a"]])
        with pytest.raises(RuntimeError, match="not been fitted"):
            model.top_topics()
        assert not model.fitted

    def test_string_document_rejected(self, fitted):
        with pytest.raises(TypeError, match="bare string"):
            fitted.transform(["not tokenized"])


class TestDispatch:
    def test_serial_fit_continues_on_refit(self, small_corpus):
        model = LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=2)
        engine = model.model
        model.fit(small_corpus, num_iterations=2)
        assert model.model is engine
        assert engine.iterations_completed == 4

    def test_new_corpus_rebuilds(self, small_corpus, tiny_corpus):
        model = LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=1)
        first = model.model
        model.fit(tiny_corpus, num_iterations=1)
        assert model.model is not first

    def test_partial_fit_requires_online(self, fitted):
        with pytest.raises(RuntimeError, match="backend='online'"):
            fitted.partial_fit([["a", "b"]])

    def test_online_fit_replays_corpus(self, small_corpus):
        spec = ModelSpec(
            num_topics=5,
            algorithm="cgs",
            seed=0,
            backend="online",
            backend_options={"window_docs": 16, "batch_docs": 8},
        )
        model = LDA(spec).fit(small_corpus)
        assert model.model.documents_ingested == small_corpus.num_documents
        assert model.registry.current_version is not None

    def test_parallel_fit_and_close(self, small_corpus):
        spec = ModelSpec(
            num_topics=5,
            algorithm="cgs",
            seed=0,
            backend="parallel",
            backend_options={"num_workers": 2, "backend": "inline"},
        )
        with LDA(spec) as model:
            model.fit(small_corpus, num_iterations=2)
            assert model.model.epochs_completed == 2
        with pytest.raises(RuntimeError, match="closed"):
            model.fit(small_corpus, num_iterations=1)

    def test_resume_adopts_the_checkpoint_and_continues_bit_exactly(
        self, small_corpus, tmp_path
    ):
        options = {"num_workers": 2, "backend": "inline"}
        trained = ModelSpec(
            num_topics=5, algorithm="cgs", seed=3, backend="parallel", backend_options=options
        )
        with LDA(trained) as straight:
            straight.fit(small_corpus, num_iterations=3)
            expected = straight.model.assignments()
        with LDA(trained) as first:
            first.fit(small_corpus, num_iterations=2, checkpoint_dir=tmp_path / "ckpt")
        # The resuming spec asks for another model; the checkpoint's wins.
        other = ModelSpec(num_topics=9, backend="parallel", backend_options=options)
        with LDA(other) as resumed:
            resumed.fit(
                small_corpus, num_iterations=1, checkpoint_dir=tmp_path / "ckpt", resume=True
            )
            assert resumed.spec.algorithm == "cgs" and resumed.spec.num_topics == 5
            assert resumed.model.epochs_completed == 3
            np.testing.assert_array_equal(resumed.model.assignments(), expected)

    def test_checkpointing_is_parallel_only(self, small_corpus, tmp_path):
        with pytest.raises(ValueError, match="backend='parallel'"):
            LDA(num_topics=5).fit(small_corpus, 1, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            LDA(num_topics=5).fit(small_corpus, 1, resume=True)


class TestModelAccess:
    def test_transform_tokens_and_ids(self, fitted, small_corpus):
        theta_ids = fitted.transform([small_corpus.document_words(0)])
        assert theta_ids.shape == (1, 5)
        np.testing.assert_allclose(theta_ids.sum(axis=1), 1.0)
        vocabulary = small_corpus.vocabulary
        tokens = [vocabulary.word(w) for w in small_corpus.document_words(0)]
        np.testing.assert_array_equal(fitted.transform([tokens]), theta_ids)

    def test_transform_caches_default_engine(self, fitted):
        fitted.transform([["w1"]])
        engine = fitted._get_engine()
        fitted.transform([["w2"]])
        assert fitted._get_engine() is engine

    def test_top_topics_shape_and_order(self, fitted):
        topics = fitted.top_topics(num_words=4)
        assert len(topics) == 5
        for topic in topics:
            probs = [p for _, p in topic]
            assert probs == sorted(probs, reverse=True)
            assert len(topic) == 4
        with pytest.raises(ValueError, match="num_words"):
            fitted.top_topics(0)

    def test_perplexity_positive(self, fitted, small_corpus):
        docs = [small_corpus.document_words(d) for d in range(5)]
        assert fitted.perplexity(docs) > 1.0

    def test_snapshot_carries_spec(self, fitted):
        snapshot = fitted.export_snapshot()
        assert snapshot.metadata[SPEC_METADATA_KEY] == fitted.spec.to_dict()

    def test_transform_routes_tokens_despite_empty_first_document(self, fitted):
        theta = fitted.transform([[], ["w1", "w2"]])
        assert theta.shape == (2, 5)
        np.testing.assert_array_equal(
            theta[1], fitted.transform([["w1", "w2"]])[0]
        )

    def test_snapshot_records_effective_kernel(self, small_corpus):
        # SparseLDA has no slab path: the run falls back to scalar and the
        # embedded provenance must say so, not echo the requested default.
        model = LDA(num_topics=4, algorithm="sparselda", seed=0)
        assert model.spec.kernel == "slab"
        model.fit(small_corpus, num_iterations=1)
        embedded = model.export_snapshot().metadata[SPEC_METADATA_KEY]
        assert embedded["kernel"] == "scalar"

    @pytest.mark.parametrize(
        "algorithm, ran",
        [
            ("cgs", "scalar"),
            ("aliaslda", "scalar"),
            ("lightlda", "scalar"),
            ("sparselda", "scalar"),
            ("fpluslda", "scalar"),
        ],
    )
    def test_snapshot_names_the_kernel_that_ran(
        self, small_corpus, algorithm, ran
    ):
        # A baseline without a slab path degrades to scalar when it is
        # built, and the provenance names what ran.
        model = LDA(num_topics=4, algorithm=algorithm, kernel="slab", seed=0)
        model.fit(small_corpus, num_iterations=1)
        assert model.model.kernel == ran
        embedded = model.export_snapshot().metadata[SPEC_METADATA_KEY]
        assert embedded["kernel"] == ran


class TestPersistence:
    def test_save_load_round_trip(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.npz")
        loaded = LDA.load(path)
        assert loaded.spec == fitted.spec
        assert loaded.fitted
        assert loaded.export_snapshot() == fitted.export_snapshot()

    def test_loaded_model_serves_and_trains_again(self, fitted, small_corpus, tmp_path):
        loaded = LDA.load(fitted.save(tmp_path / "model.npz"))
        assert loaded.transform([["w1", "w2"]]).shape == (1, 5)
        # A snapshot freezes phi, not the chain: fit() trains again with the
        # recovered spec and refreshes the served model.
        loaded.fit(small_corpus, num_iterations=2)
        assert loaded.model.iterations_completed == 2
        assert loaded.export_snapshot().metadata[SPEC_METADATA_KEY] == (
            loaded.spec.to_dict()
        )

    def test_foreign_snapshot_needs_explicit_spec(self, small_corpus, tmp_path):
        from repro.core.warplda import WarpLDA

        snapshot = WarpLDA(small_corpus, num_topics=5, seed=0).fit(2).export_snapshot()
        with pytest.raises(ValueError, match="no embedded ModelSpec"):
            LDA.from_snapshot(snapshot)
        model = LDA.from_snapshot(snapshot, spec=ModelSpec(num_topics=5))
        assert model.transform([["w1"]]).shape == (1, 5)

    def test_load_missing_spec_message(self, small_corpus, tmp_path):
        from repro.core.warplda import WarpLDA

        path = (
            WarpLDA(small_corpus, num_topics=4, seed=0)
            .fit(1)
            .export_snapshot()
            .save(tmp_path / "foreign.npz")
        )
        with pytest.raises(ValueError, match="spec="):
            LDA.load(path)


class TestServing:
    def test_serve_frozen_snapshot(self, fitted):
        server = fitted.serve(cache_capacity=8)
        theta = server.infer_batch([["w1", "w2", "w3"]])
        assert theta.shape == (1, 5)
        assert server.served_version is None

    def test_online_serve_follows_registry(self):
        docs = [["ios", "android"], ["apple", "fruit"], ["ios", "apple"]] * 4
        spec = ModelSpec(
            num_topics=3,
            algorithm="cgs",
            seed=0,
            backend="online",
            backend_options={"window_docs": 8},
        )
        model = LDA(spec)
        model.partial_fit(docs[:6])
        server = model.serve()
        assert server.served_version == model.registry.current_version
        before = server.served_version
        model.partial_fit(docs[6:])
        server.refresh()
        assert server.served_version == model.registry.current_version > before

    def test_use_registry(self, tmp_path):
        from repro.streaming.registry import ModelRegistry

        spec = ModelSpec(
            num_topics=3, algorithm="cgs", seed=0, backend="online",
            backend_options={"window_docs": 8},
        )
        registry = ModelRegistry(directory=tmp_path / "reg")
        model = LDA(spec).use_registry(registry)
        model.partial_fit([["a", "b"], ["b", "c"]])
        assert registry.current_version == 1
        assert (tmp_path / "reg" / "CURRENT").exists()
        with pytest.raises(RuntimeError, match="already running"):
            model.use_registry(ModelRegistry())

    def test_use_registry_serial_rejected(self, fitted):
        with pytest.raises(RuntimeError, match="online backend only"):
            fitted.use_registry(object())

    def test_serve_before_first_publish_still_follows_registry(self):
        docs = [["a", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]
        spec = ModelSpec(
            num_topics=2,
            algorithm="cgs",
            seed=0,
            backend="online",
            backend_options={"window_docs": 8, "publish_every": 3},
        )
        model = LDA(spec)
        model.partial_fit(docs[:2])  # batch 1 of 3: nothing published yet
        assert model.registry.current_version is None
        server = model.serve()
        assert server.served_version is None  # serving the interim export
        model.partial_fit(docs[2:])
        model.partial_fit(docs[:2])  # batch 3: publish fires
        server.refresh()
        assert server.served_version == model.registry.current_version == 1


class TestIteratorDocuments:
    def test_transform_accepts_one_shot_iterables(self, fitted):
        tokens = ["w1", "w2", "w3"]
        expected = fitted.transform([tokens])
        np.testing.assert_array_equal(fitted.transform([iter(tokens)]), expected)
        np.testing.assert_array_equal(
            fitted.transform([map(str, tokens)]), expected
        )

    def test_partial_fit_does_not_drop_first_token(self):
        spec = ModelSpec(
            num_topics=2, algorithm="cgs", seed=0, backend="online",
            backend_options={"window_docs": 8},
        )
        model = LDA(spec)
        model.partial_fit([iter(["alpha", "beta", "gamma"])])
        assert model.model.tokens_ingested == 3
        assert model.model.corpus.vocabulary.size == 3
