"""One document-view contract for every corpus type and its slices.

A corpus keeps its tokens once, in the flat CSR arrays; ``documents``,
``corpus[d]`` and iteration are views over them.  The same checks run over
an in-RAM :class:`Corpus`, a store-backed :class:`MappedCorpus`, a
:class:`StreamingCorpus`, and a ``slice()`` of each.
"""

import pickle

import numpy as np
import pytest

from repro.corpus import Corpus, Document, Vocabulary
from repro.corpus.store import StoreWriter, open_store
from repro.streaming import StreamingCorpus

VOCAB = [f"w{i}" for i in range(6)]
DOCS = [[0, 1, 1], [], [5, 2], [3], [4, 4, 0, 2]]


def build_ram(documents, vocabulary, tmp_path):
    return Corpus(documents, vocabulary)


def build_mapped(documents, vocabulary, tmp_path):
    with StoreWriter(tmp_path / "store") as writer:
        for doc in documents:
            writer.append_document(doc)
        writer.finalize(vocabulary)
    return open_store(tmp_path / "store")


def build_streaming(documents, vocabulary, tmp_path):
    streaming = StreamingCorpus(vocabulary)
    streaming.append(documents[:2])
    streaming.append(documents[2:])
    return streaming


BUILDERS = {"ram": build_ram, "mapped": build_mapped, "streaming": build_streaming}


@pytest.fixture(
    params=[(kind, sliced) for kind in BUILDERS for sliced in (False, True)],
    ids=lambda param: param[0] + ("-slice" if param[1] else ""),
)
def case(request, tmp_path):
    """``(corpus, expected word-id lists)`` for one corpus type / slice."""
    kind, sliced = request.param
    documents = [np.array(doc, dtype=np.int64) for doc in DOCS]
    corpus = BUILDERS[kind](documents, Vocabulary(VOCAB), tmp_path)
    if sliced:
        return corpus.slice(1, 5), DOCS[1:5]
    return corpus, DOCS


def words(doc):
    assert isinstance(doc, Document)
    return doc.word_ids.tolist()


class TestDocumentViews:
    def test_len_and_indexing(self, case):
        corpus, expected = case
        assert len(corpus) == len(corpus.documents) == len(expected)
        assert corpus.num_documents == len(expected)
        for d, want in enumerate(expected):
            assert words(corpus[d]) == want
            assert words(corpus.documents[d]) == want
        assert words(corpus[-1]) == expected[-1]
        assert words(corpus.documents[-1]) == expected[-1]
        with pytest.raises(IndexError):
            corpus[len(expected)]

    def test_step_one_slicing(self, case):
        corpus, expected = case
        middle = corpus.documents[1:3]
        assert [words(doc) for doc in middle] == expected[1:3]
        assert len(corpus.documents[3:1]) == 0
        with pytest.raises(ValueError, match="step-1"):
            corpus.documents[::2]

    def test_iteration(self, case):
        corpus, expected = case
        assert [words(doc) for doc in corpus] == expected
        assert [words(doc) for doc in corpus.documents] == expected

    def test_views_share_the_flat_tokens(self, case):
        corpus, expected = case
        d = next(i for i, want in enumerate(expected) if want)
        view = corpus[d].word_ids
        assert not view.flags.writeable
        assert np.shares_memory(view, np.asarray(corpus.token_words))
        assert "_documents" not in vars(corpus)

    def test_subset(self, case):
        corpus, expected = case
        subset = corpus.subset([2, 0, -1])
        assert type(subset) is Corpus
        assert subset.vocabulary is corpus.vocabulary
        assert [words(doc) for doc in subset] == [
            expected[2], expected[0], expected[-1]
        ]
        reference = Corpus(
            [Document(np.array(expected[i], dtype=np.int64)) for i in (2, 0, -1)],
            Vocabulary(VOCAB),
        )
        for attr in ("token_words", "doc_offsets", "token_documents",
                     "word_order", "word_offsets"):
            np.testing.assert_array_equal(
                getattr(subset, attr), getattr(reference, attr), err_msg=attr
            )
        with pytest.raises(IndexError):
            corpus.subset([len(expected)])

    def test_slice_pickle_roundtrip(self, case):
        corpus, expected = case
        view = corpus.slice(1, len(expected))
        restored = pickle.loads(pickle.dumps(view))
        assert [words(doc) for doc in restored] == expected[1:]
        for attr in ("token_words", "doc_offsets", "word_order", "word_offsets"):
            np.testing.assert_array_equal(
                getattr(restored, attr), getattr(view, attr), err_msg=attr
            )


@pytest.mark.parametrize(
    "build",
    [build_ram, build_mapped, build_streaming],
    ids=["Corpus", "MappedCorpus", "StreamingCorpus.append"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([0, -1]), "non-negative"),
        (np.array([[0, 1]]), "1-D"),
        (np.array([0, 6]), "out of range"),
    ],
    ids=["negative", "2-D", "out-of-vocabulary"],
)
def test_every_constructor_rejects_bad_word_ids(build, bad, message, tmp_path):
    documents = [np.array([1, 2]), bad]
    with pytest.raises(ValueError, match=message):
        build(documents, Vocabulary(VOCAB), tmp_path)
