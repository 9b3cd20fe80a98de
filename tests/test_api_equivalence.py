"""Facade vs. direct construction: seed-for-seed equivalence.

The acceptance bar of the API redesign: every workflow expressible through
the old front doors — batch sampler, parallel trainer, streaming pipeline,
snapshot serving — must produce *identical* results when driven through
``repro.api.LDA`` with the same spec and seed: identical topic assignments,
identical snapshot bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import LDA, ModelSpec
from repro.core.warplda import WarpLDA
from repro.samplers.registry import SAMPLER_REGISTRY
from repro.serving.infer import InferenceEngine
from repro.streaming.online import OnlineTrainer
from repro.training.parallel import ParallelTrainer


def _npz_bytes(snapshot, tmp_path, name):
    path = snapshot.save(tmp_path / name)
    return path.read_bytes()


class TestSerialEquivalence:
    def test_warplda_assignments_and_snapshot_bytes(self, small_corpus, tmp_path):
        spec = ModelSpec(num_topics=6, num_mh_steps=2, seed=42)
        facade = LDA(spec).fit(small_corpus, num_iterations=4)
        direct = WarpLDA(small_corpus, num_topics=6, num_mh_steps=2, seed=42).fit(4)
        np.testing.assert_array_equal(facade.model.assignments, direct.assignments)
        assert facade.export_snapshot() == direct.export_snapshot()
        assert _npz_bytes(facade.export_snapshot(), tmp_path, "facade") == _npz_bytes(
            direct.export_snapshot(), tmp_path, "direct"
        )

    def test_warplda_config_spelling_matches(self, small_corpus):
        spec = ModelSpec(num_topics=6, kernel="scalar", seed=9)
        facade = LDA(spec).fit(small_corpus, num_iterations=3)
        direct = WarpLDA(small_corpus, num_topics=6, kernel="scalar", seed=9).fit(3)
        np.testing.assert_array_equal(facade.model.assignments, direct.assignments)

    @pytest.mark.parametrize(
        "algorithm", ["cgs", "sparselda", "aliaslda", "fpluslda", "lightlda"]
    )
    def test_every_baseline_matches(self, small_corpus, algorithm):
        spec = ModelSpec(num_topics=4, algorithm=algorithm, seed=11)
        facade = LDA(spec).fit(small_corpus, num_iterations=2)
        sampler_cls = SAMPLER_REGISTRY[algorithm]
        kwargs = {"num_mh_steps": 2} if algorithm == "lightlda" else {}
        direct = sampler_cls(small_corpus, num_topics=4, seed=11, **kwargs).fit(2)
        np.testing.assert_array_equal(
            facade.model.state.assignments, direct.state.assignments
        )


class TestParallelEquivalence:
    def test_inline_trainer_matches(self, small_corpus, tmp_path):
        spec = ModelSpec(
            num_topics=5,
            algorithm="warplda",
            seed=7,
            backend="parallel",
            backend_options={"num_workers": 2, "backend": "inline"},
        )
        with LDA(spec) as facade:
            facade.fit(small_corpus, num_iterations=3)
            facade_assignments = facade.model.assignments()
            facade_bytes = _npz_bytes(facade.export_snapshot(), tmp_path, "facade")
        with ParallelTrainer(
            small_corpus, 2, seed=7, backend="inline", sampler="warplda", num_topics=5
        ) as direct:
            direct.train(3)
            np.testing.assert_array_equal(facade_assignments, direct.assignments())
            assert facade_bytes == _npz_bytes(
                direct.export_snapshot(), tmp_path, "direct"
            )


class TestOnlineEquivalence:
    DOCS = [
        ["ios", "android", "apple"],
        ["apple", "orange", "fruit"],
        ["ios", "iphone", "android"],
        ["fruit", "orange", "apple"],
        ["android", "iphone", "ios"],
        ["orange", "fruit", "pie"],
    ] * 3

    def test_streaming_pipeline_matches(self, tmp_path):
        spec = ModelSpec(
            num_topics=4,
            algorithm="cgs",
            seed=5,
            backend="online",
            backend_options={"window_docs": 8, "sweeps_per_batch": 2},
        )
        facade = LDA(spec)
        facade.partial_fit(self.DOCS[:9])
        facade.partial_fit(self.DOCS[9:])

        direct = OnlineTrainer(
            num_topics=4, sampler="cgs", window_docs=8, sweeps_per_batch=2, seed=5
        )
        vocabulary = direct.corpus.vocabulary
        direct.ingest([vocabulary.encode(d, on_oov="add") for d in self.DOCS[:9]])
        direct.ingest([vocabulary.encode(d, on_oov="add") for d in self.DOCS[9:]])

        np.testing.assert_array_equal(facade.model.assignments, direct.assignments)
        np.testing.assert_array_equal(facade.model.phi(), direct.phi())
        assert _npz_bytes(facade.export_snapshot(), tmp_path, "facade") == _npz_bytes(
            direct.export_snapshot(), tmp_path, "direct"
        )


class TestServingEquivalence:
    def test_transform_matches_inference_engine(self, small_corpus):
        facade = LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=3)
        engine = InferenceEngine(
            WarpLDA(small_corpus, num_topics=5, seed=0).fit(3).export_snapshot()
        )
        docs = [small_corpus.document_words(d) for d in range(4)]
        np.testing.assert_array_equal(facade.transform(docs), engine.infer_ids(docs))
        np.testing.assert_array_equal(
            facade.perplexity(docs), engine.held_out_perplexity(docs)
        )

    def test_mh_transform_matches_with_seed(self, small_corpus):
        facade = LDA(num_topics=5, seed=0).fit(small_corpus, num_iterations=3)
        snapshot = WarpLDA(small_corpus, num_topics=5, seed=0).fit(3).export_snapshot()
        engine = InferenceEngine(snapshot, strategy="mh", seed=123)
        docs = [small_corpus.document_words(d) for d in range(3)]
        np.testing.assert_array_equal(
            facade.transform(docs, strategy="mh", seed=123), engine.infer_ids(docs)
        )
