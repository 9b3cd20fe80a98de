"""Tests for Document and Corpus."""

import numpy as np
import pytest

from repro.corpus import Corpus, Document, Vocabulary


class TestDocument:
    def test_basic_properties(self):
        doc = Document(np.array([0, 1, 1, 2]))
        assert doc.length == 4
        assert len(doc) == 4
        assert list(doc) == [0, 1, 1, 2]
        assert doc.bag_of_words() == {0: 1, 1: 2, 2: 1}

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Document(np.array([0, -1]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Document(np.array([[0, 1]]))


class TestCorpusConstruction:
    def test_requires_documents(self):
        with pytest.raises(ValueError):
            Corpus([], Vocabulary(["a"]))

    def test_requires_tokens(self):
        with pytest.raises(ValueError):
            Corpus([Document(np.array([], dtype=np.int64))], Vocabulary(["a"]))

    def test_word_id_out_of_vocabulary_raises(self):
        with pytest.raises(ValueError):
            Corpus([Document(np.array([3]))], Vocabulary(["a"]))

    def test_from_token_lists_with_strings(self):
        corpus = Corpus.from_token_lists([["a", "b"], ["b", "c", "c"]])
        assert corpus.num_documents == 2
        assert corpus.num_tokens == 5
        assert corpus.vocabulary_size == 3

    def test_from_token_lists_with_ids(self):
        corpus = Corpus.from_token_lists([[0, 1], [2, 2]])
        assert corpus.vocabulary_size == 3
        assert corpus.num_tokens == 4

    def test_from_bags(self):
        vocab = Vocabulary(["a", "b", "c"])
        corpus = Corpus.from_bags([{0: 2, 2: 1}, {1: 3}], vocab)
        assert corpus.num_tokens == 6
        np.testing.assert_array_equal(corpus.document_lengths(), [3, 3])

    def test_from_texts(self):
        corpus = Corpus.from_texts(["Apples and oranges!", "Oranges, apples."])
        assert corpus.num_documents == 2
        assert "apples" in corpus.vocabulary


class TestTokenViews:
    def test_counts_are_consistent(self, tiny_corpus):
        assert tiny_corpus.num_documents == 4
        assert tiny_corpus.num_tokens == 22
        assert tiny_corpus.vocabulary_size == 6
        assert tiny_corpus.document_lengths().sum() == tiny_corpus.num_tokens
        assert tiny_corpus.word_frequencies().sum() == tiny_corpus.num_tokens

    def test_document_views_align(self, tiny_corpus):
        for doc_index in range(tiny_corpus.num_documents):
            indices = tiny_corpus.document_token_indices(doc_index)
            np.testing.assert_array_equal(
                tiny_corpus.token_words[indices], tiny_corpus.document_words(doc_index)
            )
            assert np.all(tiny_corpus.token_documents[indices] == doc_index)

    def test_word_views_cover_all_tokens_once(self, tiny_corpus):
        seen = np.concatenate(
            [
                tiny_corpus.word_token_indices(word)
                for word in range(tiny_corpus.vocabulary_size)
            ]
        )
        assert sorted(seen.tolist()) == list(range(tiny_corpus.num_tokens))

    def test_word_view_tokens_have_that_word(self, tiny_corpus):
        for word in range(tiny_corpus.vocabulary_size):
            indices = tiny_corpus.word_token_indices(word)
            assert np.all(tiny_corpus.token_words[indices] == word)

    def test_word_view_sorted_by_document(self, tiny_corpus):
        # The CSC layout keeps each column's entries sorted by row (document).
        for word in range(tiny_corpus.vocabulary_size):
            docs = tiny_corpus.token_documents[tiny_corpus.word_token_indices(word)]
            assert np.all(np.diff(docs) >= 0)

    @pytest.mark.parametrize("vocab_size", [6, 255, 256, 65535, 65536, 65537])
    def test_word_order_is_the_int64_stable_argsort(self, vocab_size):
        # The word-major permutation is sorted through a narrow unsigned view
        # of the word ids; it must be the int64 one at every width boundary.
        rng = np.random.default_rng(vocab_size)
        vocabulary = Vocabulary(f"w{i}" for i in range(vocab_size))
        documents = [
            Document(np.append(rng.integers(vocab_size, size=200), [0, vocab_size - 1]))
            for _ in range(5)
        ]
        corpus = Corpus(documents, vocabulary)
        for view in (corpus, corpus.slice(1, 4)):
            assert view.token_words.dtype == np.int64
            expected = np.argsort(view.token_words, kind="stable")
            assert view.word_order.dtype == expected.dtype
            np.testing.assert_array_equal(view.word_order, expected)

    def test_term_document_counts(self, tiny_corpus):
        matrix = tiny_corpus.term_document_counts()
        assert matrix.shape == (4, 6)
        assert matrix.sum() == tiny_corpus.num_tokens
        apple = tiny_corpus.vocabulary["apple"]
        assert matrix[0, apple] == 2

    def test_out_of_range_indices_raise(self, tiny_corpus):
        with pytest.raises(IndexError):
            tiny_corpus.document_token_indices(100)
        with pytest.raises(IndexError):
            tiny_corpus.word_token_indices(100)
        with pytest.raises(IndexError):
            tiny_corpus[100]


class TestSubsetAndSplit:
    def test_subset(self, tiny_corpus):
        subset = tiny_corpus.subset([0, 2])
        assert subset.num_documents == 2
        assert subset.vocabulary is tiny_corpus.vocabulary

    def test_subset_empty_raises(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.subset([])

    def test_split_partitions_documents(self, small_corpus):
        train, held_out = small_corpus.split(0.8, seed=0)
        assert train.num_documents + held_out.num_documents == small_corpus.num_documents
        assert held_out.num_documents >= 1

    def test_split_invalid_fraction(self, small_corpus):
        with pytest.raises(ValueError):
            small_corpus.split(1.5)
