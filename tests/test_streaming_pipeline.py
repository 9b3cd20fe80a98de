"""StreamingPipeline + TopicServer hot-swap: the full ingest→serve loop."""

import gc
import weakref

import numpy as np
import pytest

from repro.corpus import SyntheticCorpusSpec, Vocabulary, generate_lda_corpus
from repro.serving import InferenceEngine, ModelSnapshot, TopicServer
from repro.streaming import (
    DocumentStream,
    ModelRegistry,
    OnlineTrainer,
    StreamingPipeline,
)


def make_snapshot(tag: int, vocab=None, num_topics: int = 4) -> ModelSnapshot:
    vocab = vocab if vocab is not None else Vocabulary(["a", "b", "c", "d"])
    rng = np.random.default_rng(tag)
    phi = rng.random((num_topics, vocab.size)) + 0.1
    phi /= phi.sum(axis=1, keepdims=True)
    return ModelSnapshot(phi=phi, alpha=0.5, beta=0.01, vocabulary=vocab)


def tokens_of(corpus, doc_index):
    return [corpus.vocabulary.word(w) for w in corpus.document_words(doc_index)]


@pytest.fixture(scope="module")
def small_corpus():
    spec = SyntheticCorpusSpec(
        num_documents=60, vocabulary_size=120, mean_document_length=25, num_topics=4
    )
    return generate_lda_corpus(spec, seed=0)


class TestHotSwap:
    def test_server_follows_publishes_and_serves_both_versions(self):
        registry = ModelRegistry()
        registry.publish(make_snapshot(1))
        server = TopicServer.from_registry(registry)
        assert server.served_version == 1

        theta_v1 = server.infer_batch([np.array([0, 1])])
        registry.publish(make_snapshot(2))
        theta_v2 = server.infer_batch([np.array([0, 1])])
        stats = server.stats()
        assert server.served_version == 2
        assert stats.hot_swaps == 1  # adopting v1 at construction is not a swap
        assert stats.served_version == 2
        # Different Φ ⇒ different folded-in θ: both versions really served.
        assert not np.allclose(theta_v1, theta_v2)

    def test_swap_clears_stale_cache(self):
        registry = ModelRegistry()
        registry.publish(make_snapshot(1))
        server = TopicServer.from_registry(registry)
        doc = np.array([0, 1, 2])
        server.infer_batch([doc])
        assert len(server.cache) == 1
        registry.publish(make_snapshot(2))
        server.refresh()
        assert len(server.cache) == 0
        theta = server.infer_batch([doc])
        assert server.stats().cache_hits == 0
        np.testing.assert_allclose(theta[0].sum(), 1.0)

    def test_rollback_to_smaller_vocabulary_keeps_serving(self):
        """Ids unknown to the rolled-back snapshot are dropped as OOV."""
        small = Vocabulary(["a", "b"])
        big = Vocabulary(["a", "b", "c", "d", "e", "f"])
        registry = ModelRegistry()
        registry.publish(make_snapshot(1, vocab=small))
        registry.publish(make_snapshot(2, vocab=big))
        server = TopicServer.from_registry(registry)
        assert server.served_version == 2
        # Request encoded against v2's vocabulary (ids 4, 5)...
        registry.rollback()  # ...then v1 (V=2) swaps in before dispatch.
        theta = server.infer_batch([np.array([0, 4, 5]), np.array([4, 5])])
        assert server.served_version == 1
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        # The all-unknown document degrades to the prior mean, not an error.
        np.testing.assert_allclose(theta[1], np.full(4, 0.25))

    def test_mid_call_swap_to_different_topic_count_finishes_on_old_engine(self):
        """A K-changing publish mid-call must not break the in-flight θ."""
        registry = ModelRegistry()
        registry.publish(make_snapshot(1, num_topics=4))
        server = TopicServer.from_registry(registry, max_batch_size=1)

        original_refresh = server.refresh
        published = {"done": False}

        def refresh_and_publish_once():
            swapped = original_refresh()
            if not published["done"]:
                published["done"] = True
                registry.publish(make_snapshot(2, num_topics=8))
            return swapped

        server.refresh = refresh_and_publish_once
        # Two distinct documents -> two micro-batches (max_batch_size=1);
        # the K=8 publish lands between them.
        theta = server.infer_batch([np.array([0]), np.array([1])])
        assert theta.shape == (2, 4)  # the call finishes at its starting K
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        server.refresh = original_refresh
        # The next call serves the new model at its own K.
        assert server.infer_batch([np.array([0])]).shape == (1, 8)
        assert server.served_version == 2

    def test_rollback_swaps_backwards(self):
        registry = ModelRegistry()
        registry.publish(make_snapshot(1))
        registry.publish(make_snapshot(2))
        server = TopicServer.from_registry(registry)
        assert server.served_version == 2
        registry.rollback()
        server.infer_batch([np.array([0])])
        assert server.served_version == 1

    def test_attach_before_first_publish_keeps_constructor_engine(self):
        registry = ModelRegistry()
        snapshot = make_snapshot(7)
        server = TopicServer(InferenceEngine(snapshot))
        server.attach_registry(registry)
        assert server.served_version is None
        server.infer_batch([np.array([0])])  # serves the constructor engine
        registry.publish(make_snapshot(8))
        server.infer_batch([np.array([0])])
        assert server.served_version == 1

    def test_detach_stops_following(self):
        registry = ModelRegistry()
        registry.publish(make_snapshot(1))
        server = TopicServer.from_registry(registry)
        server.detach_registry()
        registry.publish(make_snapshot(2))
        server.infer_batch([np.array([0])])
        assert server.served_version == 1

    def test_from_registry_requires_a_publish(self):
        with pytest.raises(ValueError, match="no published version"):
            TopicServer.from_registry(ModelRegistry())

    def test_queries_answered_without_error_during_swaps(self, small_corpus):
        """Acceptance: the server keeps answering across a hot swap."""
        trainer = OnlineTrainer(num_topics=4, sweeps_per_batch=2, seed=0)
        registry = ModelRegistry()
        pipeline = StreamingPipeline(trainer, registry, publish_every=1)
        queries = [tokens_of(small_corpus, d) for d in range(10)]

        stream = DocumentStream(trainer.corpus.vocabulary, batch_docs=15)
        server = None
        for batch in stream.batches(
            tokens_of(small_corpus, d) for d in range(small_corpus.num_documents)
        ):
            pipeline.ingest(batch)
            if server is None:
                server = TopicServer.from_registry(registry)
                pipeline.server = server
            theta = server.infer_batch(queries)
            assert theta.shape == (len(queries), 4)
            np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        # One swap per publish after the version the server was born on.
        assert server.stats().hot_swaps == trainer.batches_ingested - 1
        assert server.served_version == registry.current_version


class TestPipeline:
    def test_publish_cadence(self, small_corpus):
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        pipeline = StreamingPipeline(trainer, publish_every=2)
        stream = DocumentStream(trainer.corpus.vocabulary, batch_docs=10)
        reports = pipeline.run(
            stream.batches(
                tokens_of(small_corpus, d) for d in range(small_corpus.num_documents)
            )
        )
        published = [r.published for r in reports]
        assert [p is not None for p in published] == [False, True] * 3
        assert pipeline.registry.current_version == 3
        assert all(
            p.metadata["batch_index"] == i
            for i, p in enumerate(published)
            if p is not None
        )

    def test_servable_latency_recorded_with_server(self, small_corpus):
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        registry = ModelRegistry()
        registry.publish(make_snapshot(0, vocab=Vocabulary(["seed"])))
        server = TopicServer.from_registry(registry)
        pipeline = StreamingPipeline(trainer, registry, server=server)
        vocab = trainer.corpus.vocabulary
        report = pipeline.ingest(
            [vocab.encode(tokens_of(small_corpus, d), on_oov="add") for d in range(5)]
        )
        assert report.published is not None
        assert report.ingest_to_servable_seconds is not None
        assert 0 < report.ingest_to_servable_seconds <= report.ingest_seconds
        assert server.served_version == report.published.version

    def test_held_reports_keep_no_collected_snapshot_alive(self, small_corpus):
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        registry = ModelRegistry(retain=2)
        pipeline = StreamingPipeline(trainer, registry)
        vocab = trainer.corpus.vocabulary
        batches = [
            [vocab.encode(tokens_of(small_corpus, d), on_oov="add") for d in docs]
            for docs in (range(0, 5), range(5, 10), range(10, 15))
        ]
        reports = [pipeline.ingest(batches[0])]
        first = weakref.ref(registry.get(1).snapshot.phi)
        reports += [pipeline.ingest(batch) for batch in batches[1:]]
        gc.collect()
        assert registry.versions() == [2, 3]
        assert first() is None
        # The reports still say what each step published.
        assert [r.published.version for r in reports] == [1, 2, 3]
        assert [r.published.metadata["registry_version"] for r in reports] == [1, 2, 3]
        assert reports[0].published.published_at <= reports[2].published.published_at

    def test_invalid_publish_every(self):
        with pytest.raises(ValueError, match="publish_every"):
            StreamingPipeline(OnlineTrainer(num_topics=2), publish_every=0)

    def test_tokenless_leading_batches_defer_the_publish(self):
        """All-empty/all-OOV batches must not crash a due publish."""
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        pipeline = StreamingPipeline(trainer, publish_every=1)
        empty = np.empty(0, dtype=np.int64)
        report = pipeline.ingest([empty, empty])
        assert report.published is None
        assert pipeline.registry.current_version is None
        # The first batch that carries tokens publishes as usual.
        vocab = trainer.corpus.vocabulary
        report = pipeline.ingest([vocab.encode(["a", "b"], on_oov="add")])
        assert report.published.version == 1


class TestServerStatsSatellites:
    """Satellite: eviction count, cache size, zero-request percentiles."""

    def test_stats_expose_cache_size_and_evictions(self):
        snapshot = make_snapshot(1)
        server = TopicServer(InferenceEngine(snapshot), cache_capacity=2)
        for word in range(4):
            server.infer_batch([np.array([word % snapshot.vocabulary_size])])
        stats = server.stats()
        assert stats.cache_size == 2
        assert stats.cache_evictions == 2
        assert "2 evictions" in stats.summary()

    def test_zero_request_percentiles_are_safe(self):
        server = TopicServer(InferenceEngine(make_snapshot(1)))
        stats = server.stats()
        assert stats.requests == 0
        assert stats.latency_percentiles() == {
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }
        # The full summary must render without dividing by zero, and a
        # plain (registry-less) server keeps its original report shape.
        assert "requests" in stats.summary()
        assert "model version" not in stats.summary()

    def test_lru_eviction_counter_and_order(self):
        from repro.serving.server import LRUCache, bow_key

        cache = LRUCache(2)
        cache.put(("a",), np.array([1.0]))
        cache.put(("b",), np.array([2.0]))
        cache.get(("a",))  # "a" becomes most recent
        cache.put(("c",), np.array([3.0]))  # evicts "b"
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.evictions == 1
        cache.clear()  # clearing is not an eviction
        assert cache.evictions == 1
        assert len(cache) == 0

    def test_bow_key_of_empty_document(self):
        from repro.serving.server import bow_key

        assert bow_key(np.array([], dtype=np.int64)) == b""
        # Sorted distinct ids [1, 3], then their counts [1, 2], as int64.
        assert bow_key(np.array([3, 1, 3])) == np.array(
            [1, 3, 1, 2], dtype=np.int64
        ).tobytes()
