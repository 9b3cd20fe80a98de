"""End-to-end integration tests across the whole library."""

import numpy as np
import pytest

from repro.core import WarpLDA
from repro.corpus import (
    CorpusStatistics,
    SyntheticCorpusSpec,
    generate_lda_corpus,
    load_preset,
    read_uci_bow,
    write_uci_bow,
)
from repro.evaluation import (
    ConvergenceTracker,
    held_out_perplexity,
    speedup_ratio,
    top_words,
)
from repro.samplers import LightLDASampler


class TestTrainEvaluatePipeline:
    def test_warplda_recovers_planted_structure(self):
        """Train on an LDA-generated corpus and check the model is much better
        than chance on held-out documents."""
        spec = SyntheticCorpusSpec(
            num_documents=80, vocabulary_size=100, mean_document_length=60, num_topics=5,
        )
        corpus = generate_lda_corpus(spec, seed=3)
        train, held_out = corpus.split(0.8, seed=3)

        model = WarpLDA(train, num_topics=5, seed=0, num_mh_steps=2).fit(40)
        perplexity = held_out_perplexity(held_out, model.phi(), alpha=float(model.alpha[0]))
        # Chance level is the vocabulary size (uniform model).
        assert perplexity < 0.7 * corpus.vocabulary_size

        words = top_words(model.phi(), corpus.vocabulary, num_words=5)
        assert len(words) == 5
        assert all(len(topic_words) == 5 for topic_words in words)

    def test_uci_roundtrip_then_train(self, small_corpus, tmp_path):
        docword = tmp_path / "docword.test.txt"
        vocab = tmp_path / "vocab.test.txt"
        write_uci_bow(small_corpus, docword, vocab)
        reloaded = read_uci_bow(docword, vocab)
        model = WarpLDA(reloaded, num_topics=5, seed=1).fit(5)
        assert np.isfinite(model.log_likelihood())

    def test_preset_statistics_shape(self):
        corpus = load_preset("nytimes_like", scale=0.05, seed=1)
        stats = CorpusStatistics.from_corpus(corpus)
        row = stats.as_table_row()
        assert row["T/D"] == pytest.approx(332, rel=0.2)


class TestWarpLdaVersusLightLda:
    def test_warplda_converges_no_worse_per_unit_work(self, medium_corpus):
        """A miniature Fig. 5: run both samplers for a fixed iteration budget
        and check WarpLDA reaches at least the same likelihood ballpark."""
        warp_tracker = ConvergenceTracker("WarpLDA")
        light_tracker = ConvergenceTracker("LightLDA")
        WarpLDA(medium_corpus, num_topics=8, seed=0, num_mh_steps=2).fit(
            20, tracker=warp_tracker
        )
        LightLDASampler(medium_corpus, num_topics=8, seed=0, num_mh_steps=2).fit(
            10, tracker=light_tracker
        )
        assert warp_tracker.final_log_likelihood >= light_tracker.final_log_likelihood - abs(
            light_tracker.final_log_likelihood
        ) * 0.02

        # The speedup-ratio helper is usable on the two runs.
        target = min(
            warp_tracker.final_log_likelihood, light_tracker.final_log_likelihood
        )
        ratio = speedup_ratio(light_tracker, warp_tracker, target=target, metric="time")
        assert ratio is None or ratio > 0
