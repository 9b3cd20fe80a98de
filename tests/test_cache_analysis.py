"""Tests for the Table 2 / Table 4 analysis drivers."""

import numpy as np
import pytest

from repro.cache import access_pattern_table, estimate_topic_sparsity, l3_miss_rate_experiment
from repro.cache.analysis import working_set_bytes


class TestTopicSparsity:
    def test_bounds(self, small_corpus):
        mean_kd, mean_kw = estimate_topic_sparsity(small_corpus, num_topics=6, seed=0)
        assert 1.0 <= mean_kd <= 6.0
        assert 1.0 <= mean_kw <= 6.0

    def test_single_topic_assignments(self, small_corpus):
        assignments = np.zeros(small_corpus.num_tokens, dtype=np.int64)
        mean_kd, mean_kw = estimate_topic_sparsity(small_corpus, 6, assignments)
        assert mean_kd == 1.0
        assert mean_kw == 1.0


class TestWorkingSet:
    def test_sizes(self, small_corpus):
        sizes = working_set_bytes(small_corpus, num_topics=10)
        assert sizes["doc_topic_matrix"] == small_corpus.num_documents * 10 * 8
        assert sizes["word_topic_matrix"] == small_corpus.vocabulary_size * 10 * 8
        assert sizes["topic_vector"] == 80


class TestTable2:
    def test_rows_cover_all_algorithms(self, small_corpus):
        rows = access_pattern_table(small_corpus, num_topics=6, seed=0)
        names = [row.algorithm for row in rows]
        assert names == ["CGS", "SparseLDA", "AliasLDA", "F+LDA", "LightLDA", "WarpLDA"]

    def test_warplda_random_memory_is_smallest(self, small_corpus):
        rows = {row.algorithm: row for row in access_pattern_table(small_corpus, 6, seed=0)}
        warplda = rows["WarpLDA"].random_memory_per_doc_bytes
        for name in ("SparseLDA", "AliasLDA", "F+LDA", "LightLDA"):
            assert warplda < rows[name].random_memory_per_doc_bytes
        assert rows["WarpLDA"].random_memory_per_doc == "O(K)"

    def test_fplus_uses_doc_matrix(self, small_corpus):
        rows = {row.algorithm: row for row in access_pattern_table(small_corpus, 6, seed=0)}
        assert rows["F+LDA"].random_memory_per_doc == "O(DK)"
        assert rows["F+LDA"].visiting_order == "word"


class TestTable4:
    def test_warplda_has_the_lowest_miss_rate(self, small_corpus):
        results = l3_miss_rate_experiment(
            small_corpus, num_topics=16, max_tokens=600, seed=0
        )
        assert set(results) == {"LightLDA", "F+LDA", "WarpLDA"}
        warplda = results["WarpLDA"]["l3_miss_rate"]
        assert warplda <= results["LightLDA"]["l3_miss_rate"]
        assert warplda <= results["F+LDA"]["l3_miss_rate"]
        # WarpLDA's working set fits in cache: essentially no memory traffic.
        assert warplda < 0.05

    def test_warplda_has_the_lowest_latency(self, small_corpus):
        results = l3_miss_rate_experiment(
            small_corpus, num_topics=16, max_tokens=600, seed=0
        )
        assert (
            results["WarpLDA"]["avg_latency_cycles"]
            < results["LightLDA"]["avg_latency_cycles"]
        )

    def test_unknown_algorithm_raises(self, small_corpus):
        with pytest.raises(KeyError):
            l3_miss_rate_experiment(small_corpus, 8, algorithms=["NoSuchLDA"])

    def test_explicit_cache_scale(self, small_corpus):
        results = l3_miss_rate_experiment(
            small_corpus, num_topics=8, cache_scale=0.001, max_tokens=300, seed=0
        )
        for values in results.values():
            assert 0.0 <= values["l3_miss_rate"] <= 1.0


class TestSeedMigration:
    def test_l3_default_seed_is_still_zero(self, small_corpus):
        explicit = l3_miss_rate_experiment(
            small_corpus, num_topics=8, max_tokens=300, seed=0
        )
        default = l3_miss_rate_experiment(small_corpus, num_topics=8, max_tokens=300)
        assert default == explicit
