"""Tests for the Vocabulary mapping."""

import pytest

from repro.corpus import Vocabulary


class TestAdd:
    def test_ids_are_dense_and_ordered(self):
        vocab = Vocabulary()
        assert vocab.add("apple") == 0
        assert vocab.add("orange") == 1
        assert vocab.add("apple") == 0
        assert vocab.size == 2

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            Vocabulary().add("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            Vocabulary().add(3)

    def test_constructor_from_iterable(self):
        vocab = Vocabulary(["a", "b", "a"])
        assert vocab.size == 2
        assert vocab.words() == ["a", "b"]


class TestLookup:
    def test_word_and_getitem(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab["y"] == 1
        assert vocab.word(0) == "x"
        assert vocab.get("missing") is None
        assert vocab.get("missing", -1) == -1

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            Vocabulary()["missing"]

    def test_word_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Vocabulary(["a"]).word(5)

    def test_contains_len_iter(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab
        assert "z" not in vocab
        assert len(vocab) == 2
        assert list(vocab) == ["a", "b"]


class TestFreeze:
    def test_frozen_rejects_new_words(self):
        vocab = Vocabulary(["a"]).freeze()
        assert vocab.frozen
        assert vocab.add("a") == 0
        with pytest.raises(KeyError):
            vocab.add("b")

    def test_frozen_copy_is_a_fixed_prefix(self):
        vocab = Vocabulary(["a", "b", "c"])
        copy = vocab.frozen_copy()
        vocab.add("d")
        assert copy.frozen and not vocab.frozen
        assert copy == Vocabulary(["a", "b", "c"])
        assert [copy[word] for word in "abc"] == [0, 1, 2]
        assert "d" not in copy
        with pytest.raises(KeyError):
            copy.add("d")


class TestEquality:
    def test_equal_vocabularies(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])

    def test_from_words_roundtrip(self):
        words = ["alpha", "beta", "gamma"]
        assert Vocabulary.from_words(words).words() == words


class TestEncode:
    def test_drops_oov_by_default(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids = vocab.encode(["a", "zzz", "c", "b", "yyy"])
        assert ids.tolist() == [0, 2, 1]

    def test_error_mode_raises_on_oov(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.encode(["b", "a"], on_oov="error").tolist() == [1, 0]
        with pytest.raises(KeyError):
            vocab.encode(["a", "zzz"], on_oov="error")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"]).encode(["a"], on_oov="ignore")

    def test_empty_and_all_oov_documents(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode([]).size == 0
        assert vocab.encode(["x", "y"]).size == 0


class TestSerialization:
    def test_roundtrip_preserves_order_and_frozen_flag(self):
        vocab = Vocabulary(["gamma", "alpha", "beta"]).freeze()
        restored = Vocabulary.from_serializable(vocab.to_serializable())
        assert restored == vocab
        assert restored.frozen

    def test_unfrozen_roundtrip(self):
        vocab = Vocabulary(["a", "b"])
        restored = Vocabulary.from_serializable(vocab.to_serializable())
        assert restored == vocab
        assert not restored.frozen

    def test_missing_words_key_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.from_serializable({"frozen": True})
