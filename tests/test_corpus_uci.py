"""Tests for the UCI bag-of-words reader/writer."""

import gzip

import numpy as np
import pytest

from repro.corpus import Corpus, Vocabulary, read_uci_bow, write_uci_bow
from repro.corpus.uci import read_uci_vocab, write_uci_vocab


@pytest.fixture
def corpus():
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    return Corpus.from_bags([{0: 2, 1: 1}, {2: 3}, {0: 1, 2: 1}], vocab)


class TestRoundTrip:
    def test_docword_and_vocab_roundtrip(self, corpus, tmp_path):
        docword = tmp_path / "docword.test.txt"
        vocab_file = tmp_path / "vocab.test.txt"
        write_uci_bow(corpus, docword, vocab_file)
        loaded = read_uci_bow(docword, vocab_file)
        assert loaded.num_documents == corpus.num_documents
        assert loaded.num_tokens == corpus.num_tokens
        assert loaded.vocabulary == corpus.vocabulary
        np.testing.assert_array_equal(
            loaded.term_document_counts(), corpus.term_document_counts()
        )

    def test_gzipped_roundtrip(self, corpus, tmp_path):
        docword = tmp_path / "docword.test.txt.gz"
        write_uci_bow(corpus, docword)
        loaded = read_uci_bow(docword)
        assert loaded.num_tokens == corpus.num_tokens

    def test_vocab_roundtrip(self, tmp_path):
        vocab = Vocabulary(["one", "two", "three"])
        path = tmp_path / "vocab.txt"
        write_uci_vocab(vocab, path)
        assert read_uci_vocab(path) == vocab

    def test_without_vocab_uses_synthetic_names(self, corpus, tmp_path):
        docword = tmp_path / "docword.txt"
        write_uci_bow(corpus, docword)
        loaded = read_uci_bow(docword)
        assert loaded.vocabulary.words() == ["w0", "w1", "w2"]

    def test_max_documents(self, corpus, tmp_path):
        docword = tmp_path / "docword.txt"
        write_uci_bow(corpus, docword)
        loaded = read_uci_bow(docword, max_documents=2)
        assert loaded.num_documents == 2


class TestMalformedInput:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("not a number\n2\n3\n")
        with pytest.raises(ValueError, match="malformed UCI header"):
            read_uci_bow(path)

    def test_bad_entry_line(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("1\n1\n1\n1 1\n")
        with pytest.raises(ValueError, match="expected 'doc word count'"):
            read_uci_bow(path)

    def test_out_of_range_document(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("1\n2\n1\n5 1 1\n")
        with pytest.raises(ValueError, match="document id"):
            read_uci_bow(path)

    def test_out_of_range_word(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("1\n2\n1\n1 9 1\n")
        with pytest.raises(ValueError, match="word id"):
            read_uci_bow(path)

    def test_non_positive_count(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("1\n2\n1\n1 1 0\n")
        with pytest.raises(ValueError, match="count must be positive"):
            read_uci_bow(path)

    def test_vocab_smaller_than_header(self, corpus, tmp_path):
        docword = tmp_path / "docword.txt"
        vocab_file = tmp_path / "vocab.txt"
        write_uci_bow(corpus, docword)
        vocab_file.write_text("only\n")
        with pytest.raises(ValueError, match="vocab file"):
            read_uci_bow(docword, vocab_file)


class TestChunkedParsing:
    """The parser is chunked (constant memory); chunking must be invisible."""

    @pytest.fixture
    def big_corpus(self):
        from repro.corpus import SyntheticCorpusSpec, generate_zipf_corpus

        spec = SyntheticCorpusSpec(
            num_documents=60, vocabulary_size=50, mean_document_length=18
        )
        return generate_zipf_corpus(spec, seed=2)

    def test_multi_chunk_identical_to_single_chunk(self, big_corpus, tmp_path):
        docword = tmp_path / "docword.txt"
        vocab_file = tmp_path / "vocab.txt"
        write_uci_bow(big_corpus, docword, vocab_file)
        one_chunk = read_uci_bow(docword, vocab_file)
        # 37 entries per chunk forces many refills, including mid-document
        # splits; the result must be indistinguishable.
        many_chunks = read_uci_bow(docword, vocab_file, chunk_entries=37)
        np.testing.assert_array_equal(
            many_chunks.token_words, one_chunk.token_words
        )
        np.testing.assert_array_equal(
            many_chunks.doc_offsets, one_chunk.doc_offsets
        )
        np.testing.assert_array_equal(
            many_chunks.word_order, one_chunk.word_order
        )
        assert many_chunks.vocabulary == one_chunk.vocabulary

    def test_chunked_max_documents(self, big_corpus, tmp_path):
        docword = tmp_path / "docword.txt"
        write_uci_bow(big_corpus, docword)
        loaded = read_uci_bow(docword, max_documents=10, chunk_entries=7)
        reference = read_uci_bow(docword, max_documents=10)
        np.testing.assert_array_equal(
            loaded.token_words, reference.token_words
        )

    def test_error_in_late_chunk_still_raises(self, tmp_path):
        lines = ["4", "3", "5", "1 1 1", "2 2 1", "3 3 1", "4 1 1", "4 9 1"]
        path = tmp_path / "docword.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="word id"):
            read_uci_bow(path, chunk_entries=2)


class TestUciToStore:
    """Streaming UCI -> store conversion, never holding the full corpus."""

    @pytest.fixture
    def big_corpus(self):
        from repro.corpus import SyntheticCorpusSpec, generate_zipf_corpus

        spec = SyntheticCorpusSpec(
            num_documents=60, vocabulary_size=50, mean_document_length=18
        )
        return generate_zipf_corpus(spec, seed=2)

    def test_store_matches_read_uci_bow(self, big_corpus, tmp_path):
        from repro.corpus import open_store, uci_to_store

        docword = tmp_path / "docword.txt"
        vocab_file = tmp_path / "vocab.txt"
        write_uci_bow(big_corpus, docword, vocab_file)
        reference = read_uci_bow(docword, vocab_file)
        store_dir = uci_to_store(
            docword, tmp_path / "store", vocab_file, chunk_entries=37
        )
        corpus = open_store(store_dir)
        np.testing.assert_array_equal(
            corpus.token_words, reference.token_words
        )
        np.testing.assert_array_equal(
            corpus.doc_offsets, reference.doc_offsets
        )
        np.testing.assert_array_equal(corpus.word_order, reference.word_order)
        assert corpus.vocabulary == reference.vocabulary
        assert not (store_dir / "buckets").exists()  # the arrays are the store

    def test_gap_documents_preserved(self, tmp_path):
        from repro.corpus import open_store, uci_to_store

        # Document 2 has no entries: the store must keep it empty, exactly
        # like the in-RAM parser.
        path = tmp_path / "docword.txt"
        path.write_text("3\n2\n3\n1 1 1\n3 1 1\n3 2 2\n")
        store_dir = uci_to_store(path, tmp_path / "store", chunk_entries=1)
        corpus = open_store(store_dir)
        reference = read_uci_bow(path)
        assert corpus.num_documents == reference.num_documents == 3
        np.testing.assert_array_equal(
            corpus.doc_offsets, reference.doc_offsets
        )

    def test_unsorted_entries_rejected(self, tmp_path):
        from repro.corpus import uci_to_store

        path = tmp_path / "docword.txt"
        path.write_text("2\n2\n2\n2 1 1\n1 1 1\n")
        with pytest.raises(ValueError, match="ascending document id"):
            uci_to_store(path, tmp_path / "store")

    def test_max_documents(self, big_corpus, tmp_path):
        from repro.corpus import open_store, uci_to_store

        docword = tmp_path / "docword.txt"
        write_uci_bow(big_corpus, docword)
        store_dir = uci_to_store(docword, tmp_path / "store", max_documents=10)
        corpus = open_store(store_dir)
        reference = read_uci_bow(docword, max_documents=10)
        assert corpus.num_documents == reference.num_documents
        np.testing.assert_array_equal(
            corpus.token_words, reference.token_words
        )
