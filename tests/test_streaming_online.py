"""OnlineTrainer: state invariants, decay, vocabulary growth, batch parity."""

import copy

import numpy as np
import pytest

from repro.core.warplda import WarpLDA
from repro.corpus import Corpus, SyntheticCorpusSpec, Vocabulary, generate_lda_corpus
from repro.samplers.registry import build_sampler
from repro.serving import InferenceEngine
from repro.streaming import (
    DocumentStream,
    OnlineTrainer,
    StreamingCorpus,
)


def tokens_of(corpus, doc_index):
    return [corpus.vocabulary.word(w) for w in corpus.document_words(doc_index)]


@pytest.fixture(scope="module")
def synthetic_split():
    spec = SyntheticCorpusSpec(
        num_documents=150,
        vocabulary_size=300,
        mean_document_length=40,
        num_topics=5,
        topic_word_concentration=0.05,
    )
    full = generate_lda_corpus(spec, seed=0)
    return full.split(0.8, seed=1)


def replay(trainer, corpus, batch_docs=25):
    stream = DocumentStream(trainer.corpus.vocabulary, batch_docs=batch_docs)
    updates = []
    for batch in stream.batches(
        tokens_of(corpus, d) for d in range(corpus.num_documents)
    ):
        updates.append(trainer.ingest(batch))
    return updates


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="decay"):
            OnlineTrainer(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            OnlineTrainer(decay=1.5)
        with pytest.raises(ValueError, match="window_docs"):
            OnlineTrainer(window_docs=0)
        with pytest.raises(ValueError, match="sweeps_per_batch"):
            OnlineTrainer(sweeps_per_batch=0)
        with pytest.raises(ValueError, match="unknown sampler"):
            OnlineTrainer(sampler="nope")

    def test_requires_empty_streaming_corpus(self):
        corpus = StreamingCorpus()
        corpus.vocabulary.add("a")
        corpus.append([np.array([0])])
        with pytest.raises(ValueError, match="empty StreamingCorpus"):
            OnlineTrainer(num_topics=2, corpus=corpus)


class TestStateInvariants:
    def test_counts_cover_every_token_without_decay(self, synthetic_split):
        train, _ = synthetic_split
        trainer = OnlineTrainer(
            num_topics=5, window_docs=30, sweeps_per_batch=2, seed=0
        )
        replay(trainer, train, batch_docs=20)
        # retired + window counts must sum to exactly one count per token.
        counts = trainer.word_topic_counts()
        assert counts.sum() == pytest.approx(trainer.corpus.num_tokens)
        by_word = counts.sum(axis=1)
        expected = np.bincount(
            trainer.corpus.token_words, minlength=trainer.corpus.vocabulary_size
        )
        np.testing.assert_allclose(by_word, expected)

    def test_assignments_stay_in_range(self, synthetic_split):
        train, _ = synthetic_split
        trainer = OnlineTrainer(
            num_topics=4, window_docs=25, sweeps_per_batch=1, seed=0
        )
        replay(trainer, train, batch_docs=30)
        assignments = trainer.assignments
        assert assignments.size == trainer.corpus.num_tokens
        assert assignments.min() >= 0 and assignments.max() < 4

    def test_window_and_retirement_bookkeeping(self, synthetic_split):
        train, _ = synthetic_split
        trainer = OnlineTrainer(
            num_topics=3, window_docs=40, sweeps_per_batch=1, seed=0
        )
        updates = replay(trainer, train, batch_docs=25)
        assert sum(u.documents_added for u in updates) == train.num_documents
        # A sweep covers the previous live window plus the arriving batch.
        assert all(u.window_documents <= 40 + 25 for u in updates)
        retired_total = sum(u.retired_documents for u in updates)
        assert retired_total == trainer._retired_docs
        # After the final retire the live window is back within bounds.
        assert train.num_documents - trainer._retired_docs <= 40

    def test_batch_larger_than_window_is_swept_before_retiring(self):
        """A batch wider than the window must not retire unsampled tokens."""
        trainer = OnlineTrainer(
            num_topics=3, window_docs=2, sweeps_per_batch=1, seed=0
        )
        vocab = trainer.corpus.vocabulary
        docs = [vocab.encode([f"w{d}", "shared"], on_oov="add") for d in range(10)]
        update = trainer.ingest(docs)
        # Every arriving document was swept (not just the trailing window)...
        assert update.window_documents == 10
        # ...and only then were the out-of-window ones retired.
        assert update.retired_documents == 8
        counts = trainer.word_topic_counts()
        assert counts.sum() == pytest.approx(trainer.corpus.num_tokens)

    def test_window_sweeps_build_no_buckets_on_the_stream(self):
        trainer = OnlineTrainer(
            num_topics=2, sampler="warplda", window_docs=3,
            sweeps_per_batch=1, seed=0,
        )
        vocab = trainer.corpus.vocabulary
        doc = lambda i: vocab.encode([f"w{i}", "x", "x"], on_oov="add")
        # Every sweep runs over a slice snapshot, which carries its own
        # bands; the stream itself never holds any.
        for batch in ([doc(0), doc(1)], [doc(2), doc(3)], [doc(4)]):
            trainer.ingest(batch)
            assert "_slab_bucket_cache" not in trainer.corpus.__dict__

    def test_decay_shrinks_retired_mass(self):
        trainer = OnlineTrainer(
            num_topics=2, window_docs=1, sweeps_per_batch=1, decay=0.5, seed=0
        )
        vocab = trainer.corpus.vocabulary
        doc = lambda: vocab.encode(["a", "b", "a"], on_oov="add")
        trainer.ingest([doc()])
        trainer.ingest([doc()])  # retires doc 0 at full weight
        mass_after_first_retire = trainer._retired.sum()
        assert mass_after_first_retire == pytest.approx(3.0)
        trainer.ingest([doc()])  # decays retired by 0.5, retires doc 1
        assert trainer._retired.sum() == pytest.approx(3.0 * 0.5 + 3.0)

    def test_vocabulary_growth_grows_model(self):
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        vocab = trainer.corpus.vocabulary
        trainer.ingest([vocab.encode(["a", "b"], on_oov="add")])
        assert trainer.phi().shape == (3, 2)
        trainer.ingest([vocab.encode(["c", "d", "e"], on_oov="add")])
        assert trainer.phi().shape == (3, 5)
        snapshot = trainer.export_snapshot()
        assert snapshot.vocabulary_size == 5
        assert snapshot.metadata["sampler"] == "Online[warplda]"

    def test_export_consistent_while_vocabulary_grows_ahead(self):
        """Pushed-but-not-ingested words must not desynchronise the export."""
        trainer = OnlineTrainer(num_topics=3, sweeps_per_batch=1, seed=0)
        vocab = trainer.corpus.vocabulary
        trainer.ingest([vocab.encode(["a", "b"], on_oov="add")])
        # The ingestion layer grows the vocabulary before the batch closes.
        pending = vocab.encode(["c", "d", "e"], on_oov="add")
        snapshot = trainer.export_snapshot()
        assert snapshot.vocabulary_size == 5
        assert snapshot.phi.shape == (3, 5)
        # Never-ingested words carry only the beta prior (uniform columns).
        np.testing.assert_allclose(
            snapshot.phi[:, 2:].sum(axis=0), snapshot.phi[:, 2:].sum(axis=0)[0]
        )
        trainer.ingest([pending])  # and the deferred batch ingests cleanly
        assert trainer.export_snapshot().vocabulary_size == 5

    def test_export_before_ingest_fails(self):
        trainer = OnlineTrainer(num_topics=2)
        with pytest.raises(ValueError, match="before ingesting"):
            trainer.export_snapshot()

    def test_deterministic_given_seed(self, synthetic_split):
        train, _ = synthetic_split
        phis = []
        for _ in range(2):
            trainer = OnlineTrainer(
                num_topics=4, window_docs=50, sweeps_per_batch=2, seed=123
            )
            replay(trainer, train, batch_docs=40)
            phis.append(trainer.phi())
        np.testing.assert_array_equal(phis[0], phis[1])


@pytest.mark.parametrize("sampler", ["cgs", "warplda"])
def test_all_registered_window_samplers_run(synthetic_split, sampler):
    train, _ = synthetic_split
    trainer = OnlineTrainer(
        num_topics=4,
        sampler=sampler,
        window_docs=40,
        sweeps_per_batch=2,
        seed=0,
    )
    replay(trainer, train.slice(0, 60), batch_docs=20)
    counts = trainer.word_topic_counts()
    assert counts.sum() == pytest.approx(trainer.corpus.num_tokens)
    snapshot = trainer.export_snapshot()
    assert snapshot.num_topics == 4


class TestEndToEndParity:
    def test_online_perplexity_within_5pct_of_batch_retrain(self, synthetic_split):
        """Acceptance: online model ≈ full batch retrain on the same corpus.

        With ``decay=1`` and a window covering the whole stream, the online
        trainer is an incremental version of the batch sampler; its held-out
        perplexity must land within 5% of a converged batch retrain on the
        same cumulative corpus.
        """
        train, held = synthetic_split
        trainer = OnlineTrainer(
            num_topics=5, window_docs=10_000, sweeps_per_batch=8, seed=0
        )
        replay(trainer, train, batch_docs=25)

        held_docs = [tokens_of(held, d) for d in range(held.num_documents)]
        online_engine = InferenceEngine(trainer.export_snapshot(), seed=0)
        online_ppl = online_engine.held_out_perplexity(held_docs)

        batch_sampler = WarpLDA(trainer.corpus, 5, seed=0).fit(100)
        batch_engine = InferenceEngine(batch_sampler.export_snapshot(), seed=0)
        batch_ppl = batch_engine.held_out_perplexity(held_docs)

        assert abs(online_ppl - batch_ppl) / batch_ppl < 0.05


def test_warplda_window_sweep_is_a_pure_function_of_the_window(synthetic_split):
    """A window sweep equals the same sampler run over a plain Corpus of the
    window's documents, from the same warm assignments, external counts and
    RNG state — whatever appends built the stream."""
    train, _ = synthetic_split
    trainer = OnlineTrainer(
        num_topics=4, sampler="warplda", window_docs=60,
        sweeps_per_batch=2, seed=3,
    )
    sweep = trainer._sweep_window
    replays = []

    def recording_sweep(window, warm):
        # A plain corpus over the window's documents and the vocabulary as
        # it stood at sweep time (the stream's keeps growing).
        vocab = window.vocabulary
        plain = Corpus(
            list(window.documents),
            Vocabulary(vocab.word(w) for w in range(vocab.size)),
        )
        retired = trainer._retired.copy()
        rng = copy.deepcopy(trainer.rng)
        start = warm.copy()
        sweep(window, warm)
        replays.append((plain, start, retired, rng, warm.copy()))

    trainer._sweep_window = recording_sweep
    replay(trainer, train.slice(0, 100), batch_docs=20)
    assert len(replays) == 5
    assert replays[-1][0].num_documents < trainer.corpus.num_documents
    for plain, warm, retired, rng, swept in replays:
        sampler = build_sampler(corpus=plain, seed=rng, **trainer._sampler_keywords)
        sampler.set_assignments(warm)
        sampler.set_external_counts(np.rint(retired).astype(np.int64))
        sampler.fit(trainer.sweeps_per_batch)
        np.testing.assert_array_equal(sampler.assignments, swept)
