"""Bidirectional word ↔ id mapping."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["Vocabulary"]


class Vocabulary:
    """A growable, bidirectional mapping between words and integer ids.

    Ids are dense and assigned in insertion order, which is what every count
    matrix in the library indexes by.

    Examples
    --------
    >>> vocab = Vocabulary()
    >>> vocab.add("apple")
    0
    >>> vocab.add("orange")
    1
    >>> vocab["apple"]
    0
    >>> vocab.word(1)
    'orange'
    """

    __slots__ = ("_word_to_id", "_id_to_word", "_frozen")

    def __init__(self, words: Optional[Iterable[str]] = None):
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []
        self._frozen = False
        if words is not None:
            for word in words:
                self.add(word)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of distinct words ``V``."""
        return len(self._id_to_word)

    @property
    def frozen(self) -> bool:
        """Whether :meth:`add` for unseen words is disabled."""
        return self._frozen

    def freeze(self) -> "Vocabulary":
        """Disallow adding new words; lookups of unknown words then raise."""
        self._frozen = True
        return self

    def frozen_copy(self) -> "Vocabulary":
        """A frozen copy of the words held now, built without re-validation.

        The words were checked when they were added, so the copy takes the
        word list as is and builds its index in one pass.  Words added to
        this vocabulary later do not reach the copy: it is a fixed prefix.
        """
        words = self._id_to_word[:]
        copy = Vocabulary.__new__(Vocabulary)
        copy._id_to_word = words
        copy._word_to_id = dict(zip(words, range(len(words))))
        copy._frozen = True
        return copy

    # ------------------------------------------------------------------ #
    def add(self, word: str) -> int:
        """Return the id of ``word``, adding it if unseen (unless frozen)."""
        if not isinstance(word, str):
            raise TypeError(f"word must be a string, got {type(word).__name__}")
        if not word:
            raise ValueError("word must be non-empty")
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        if self._frozen:
            raise KeyError(
                f"vocabulary is frozen: cannot add new word {word!r} "
                f"(size stays {self.size}; encode unseen text with "
                f"on_oov='drop' instead)"
            )
        new_id = len(self._id_to_word)
        self._word_to_id[word] = new_id
        self._id_to_word.append(word)
        return new_id

    def word(self, word_id: int) -> str:
        """Return the word with the given id."""
        if not 0 <= word_id < len(self._id_to_word):
            raise IndexError(f"word id {word_id} out of range [0, {self.size})")
        return self._id_to_word[word_id]

    def words(self) -> List[str]:
        """Return all words in id order (a copy)."""
        return list(self._id_to_word)

    def get(self, word: str, default: Optional[int] = None) -> Optional[int]:
        """Return the id of ``word`` or ``default`` if absent."""
        return self._word_to_id.get(word, default)

    def encode(self, tokens: Iterable[str], on_oov: str = "drop") -> np.ndarray:
        """Map ``tokens`` to word ids, handling out-of-vocabulary tokens.

        Parameters
        ----------
        tokens:
            Tokens of one document, in order.
        on_oov:
            ``"drop"`` (default) silently skips unknown tokens — the standard
            behaviour when folding unseen documents into a frozen model —
            while ``"error"`` raises :class:`KeyError` on the first one and
            ``"add"`` grows the vocabulary with every unseen token (streaming
            ingestion).  ``"add"`` requires an unfrozen vocabulary and fails
            fast otherwise, even when every token happens to be known.

        Returns
        -------
        numpy.ndarray
            The ids of the tokens, in document order (``int64``).

        Notes
        -----
        Ids are append-only: encoding with ``on_oov="add"`` never renumbers
        an existing word, so ids handed out before a snapshot export remain
        valid against the exported (prefix) vocabulary — any id ``>=
        snapshot.vocabulary_size`` is simply a word the snapshot has never
        seen.
        """
        if on_oov not in ("drop", "error", "add"):
            raise ValueError(
                f"on_oov must be 'drop', 'error' or 'add', got {on_oov!r}"
            )
        mapping = self._word_to_id
        if on_oov == "add":
            if self._frozen:
                raise ValueError(
                    "on_oov='add' requires an unfrozen vocabulary; this one "
                    "is frozen (use on_oov='drop' to serve against a frozen "
                    "snapshot vocabulary)"
                )
            ids = [self.add(token) for token in tokens]
        elif on_oov == "error":
            try:
                ids = [mapping[token] for token in tokens]
            except KeyError as exc:
                raise KeyError(f"word {exc.args[0]!r} not in vocabulary") from None
        else:
            ids = [wid for wid in (mapping.get(token) for token in tokens) if wid is not None]
        return np.asarray(ids, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Serialization (used by serving snapshots)
    # ------------------------------------------------------------------ #
    def to_serializable(self) -> Dict[str, Any]:
        """Return a JSON-compatible dict fully describing this vocabulary."""
        return {"words": list(self._id_to_word), "frozen": self._frozen}

    @classmethod
    def from_serializable(cls, data: Dict[str, Any]) -> "Vocabulary":
        """Rebuild a vocabulary from :meth:`to_serializable` output."""
        if "words" not in data:
            raise ValueError("serialized vocabulary must contain a 'words' list")
        vocab = cls(data["words"])
        if data.get("frozen", False):
            vocab.freeze()
        return vocab

    # ------------------------------------------------------------------ #
    def __getitem__(self, word: str) -> int:
        try:
            return self._word_to_id[word]
        except KeyError:
            raise KeyError(f"word {word!r} not in vocabulary") from None

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_word == other._id_to_word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={self.size}, frozen={self._frozen})"

    # ------------------------------------------------------------------ #
    @classmethod
    def from_words(cls, words: Sequence[str]) -> "Vocabulary":
        """Build a vocabulary with the given words in order."""
        return cls(words)
