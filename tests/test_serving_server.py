"""Tests for the micro-batching topic server: cache, queue, stats."""

import numpy as np
import pytest

from repro import WarpLDA
from repro.serving import InferenceEngine, LRUCache, ServerStats, TopicServer
from repro.serving.server import LATENCY_WINDOW, bow_key


@pytest.fixture
def engine(small_corpus):
    snapshot = WarpLDA(small_corpus, num_topics=5, seed=0).fit(5).export_snapshot()
    return InferenceEngine(snapshot, num_iterations=15)


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put(("a",), np.array([1.0]))
        cache.put(("b",), np.array([2.0]))
        assert cache.get(("a",)) is not None  # refresh "a"
        cache.put(("c",), np.array([3.0]))  # evicts "b"
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert len(cache) == 2

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put(("a",), np.array([1.0]))
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_bow_key_is_order_insensitive(self):
        assert bow_key(np.array([3, 1, 3, 2])) == bow_key(np.array([1, 2, 3, 3]))
        assert bow_key(np.array([1, 1])) != bow_key(np.array([1]))


class TestInferBatch:
    def test_matches_standalone_engine(self, engine, small_corpus):
        server = TopicServer(engine, max_batch_size=4)
        documents = [small_corpus.document_words(i) for i in range(10)]
        expected = engine.infer_ids(documents)
        np.testing.assert_allclose(server.infer_batch(documents), expected)

    def test_repeat_requests_hit_cache(self, engine, small_corpus):
        server = TopicServer(engine)
        documents = [small_corpus.document_words(i) for i in range(5)]
        first = server.infer_batch(documents)
        assert server.stats().cache_hits == 0
        second = server.infer_batch(documents)
        np.testing.assert_array_equal(first, second)
        stats = server.stats()
        assert stats.cache_hits == 5
        assert stats.requests == 10
        assert stats.documents_inferred == 5  # second pass did no inference
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_permuted_document_hits_cache(self, engine, small_corpus):
        server = TopicServer(engine)
        words = small_corpus.document_words(0)
        server.infer_batch([words])
        permuted = np.array(words[::-1])
        server.infer_batch([permuted])
        assert server.stats().cache_hits == 1

    def test_duplicates_within_one_batch_infer_once(self, engine, small_corpus):
        server = TopicServer(engine)
        words = small_corpus.document_words(0)
        theta = server.infer_batch([words, words, words])
        np.testing.assert_array_equal(theta[0], theta[1])
        np.testing.assert_array_equal(theta[0], theta[2])
        stats = server.stats()
        assert stats.documents_inferred == 1
        assert stats.cache_hits == 2

    def test_eviction_under_small_capacity(self, engine, small_corpus):
        server = TopicServer(engine, cache_capacity=2)
        documents = [small_corpus.document_words(i) for i in range(4)]
        server.infer_batch(documents)
        assert len(server.cache) == 2
        # Oldest entries were evicted, so re-serving them infers again.
        server.infer_batch([documents[0]])
        assert server.stats().cache_hits == 0

    def test_micro_batch_splitting(self, engine, small_corpus):
        server = TopicServer(engine, max_batch_size=3)
        documents = [small_corpus.document_words(i) for i in range(10)]
        server.infer_batch(documents)
        assert server.stats().batches == 4  # ceil(10 / 3)

    def test_empty_batch(self, engine):
        server = TopicServer(engine)
        assert server.infer_batch([]).shape == (0, engine.num_topics)
        assert server.stats().requests == 0

    def test_token_documents_and_empty_documents(self, engine, small_corpus):
        server = TopicServer(engine)
        vocab = small_corpus.vocabulary
        tokens = [vocab.word(int(w)) for w in small_corpus.document_words(0)]
        theta = server.infer_batch([tokens, []])
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        prior_mean = engine.snapshot.alpha / engine.snapshot.alpha_sum
        np.testing.assert_allclose(theta[1], prior_mean)


class TestEncode:
    def test_tokens_ids_and_arrays_normalise_to_id_arrays(self, engine, small_corpus):
        server = TopicServer(engine)
        ids = small_corpus.document_words(0)
        tokens = [small_corpus.vocabulary.word(int(w)) for w in ids]
        np.testing.assert_array_equal(server.encode(tokens + ["<never-seen>"]), ids)
        np.testing.assert_array_equal(server.encode(ids.tolist()), ids)
        np.testing.assert_array_equal(server.encode(ids), ids)
        assert server.encode([]).size == 0


class TestStats:
    def test_latency_percentiles_and_throughput(self, engine, small_corpus):
        server = TopicServer(engine)
        server.infer_batch([small_corpus.document_words(i) for i in range(6)])
        stats = server.stats()
        pct = stats.latency_percentiles()
        assert pct["p50_ms"] > 0
        assert pct["p50_ms"] <= pct["p95_ms"] <= pct["p99_ms"]
        assert stats.throughput_docs_per_s > 0
        assert stats.throughput_tokens_per_s > 0
        assert "requests" in stats.summary()

    def test_reset_stats_keeps_cache(self, engine, small_corpus):
        server = TopicServer(engine)
        server.infer_batch([small_corpus.document_words(0)])
        server.reset_stats()
        assert server.stats().requests == 0
        server.infer_batch([small_corpus.document_words(0)])
        assert server.stats().cache_hits == 1

    def test_latency_window_is_bounded(self):
        stats = ServerStats()
        stats.latencies.extend(float(i) for i in range(LATENCY_WINDOW + 10))
        assert len(stats.latencies) == LATENCY_WINDOW
        assert stats.latencies[0] == 10.0  # oldest records dropped

    def test_latency_percentiles_no_samples(self):
        assert ServerStats().latency_percentiles() == {
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_latency_percentiles_single_sample_is_exact(self):
        stats = ServerStats()
        stats.latencies.append(0.002)
        pct = stats.latency_percentiles()
        assert pct["p50_ms"] == pct["p95_ms"] == pct["p99_ms"] == 2.0

    def test_latency_percentiles_two_samples_pinned(self):
        # The repro.obs histogram rule: 0.002 lands in the (2^-9, 2^-8]
        # bucket, so p50 (rank 1) interpolates to that bucket's upper edge
        # 2^-8 s; p99 (rank 1.98) overshoots and clamps to the larger
        # sample.  Neither is np.percentile's midpoint average, and both
        # stay inside the observed [2 ms, 4 ms].
        stats = ServerStats()
        stats.latencies.extend([0.002, 0.004])
        pct = stats.latency_percentiles()
        assert pct["p50_ms"] == 1e3 * 2.0**-8
        assert pct["p99_ms"] == 4.0
        assert 2.0 <= pct["p50_ms"] <= pct["p95_ms"] <= pct["p99_ms"] <= 4.0

    def test_latency_percentiles_cover_only_the_window(self):
        # Slow early requests roll off the bounded window; percentiles are
        # computed over the surviving LATENCY_WINDOW samples only.
        stats = ServerStats()
        stats.latencies.extend([100.0] * 5)
        stats.latencies.extend([0.001] * LATENCY_WINDOW)
        pct = stats.latency_percentiles()
        assert pct["p99_ms"] == 1.0  # the 100 s outliers are gone

    def test_invalid_batch_size_rejected(self, engine):
        with pytest.raises(ValueError):
            TopicServer(engine, max_batch_size=0)


class TestClose:
    def test_close_is_idempotent(self, engine):
        server = TopicServer(engine)
        assert not server.closed
        server.close()
        server.close()
        assert server.closed

    def test_closed_server_rejects_requests(self, engine, small_corpus):
        server = TopicServer(engine)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.infer_batch([small_corpus.document_words(0)])

    def test_context_manager_closes(self, engine, small_corpus):
        with TopicServer(engine) as server:
            server.infer_batch([small_corpus.document_words(0)])
        assert server.closed
