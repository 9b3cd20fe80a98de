"""Synthetic corpus generators.

The paper's corpora (NYTimes, PubMed, ClueWeb12) cannot be shipped, so two
generators provide laptop-scale stand-ins:

* :func:`generate_lda_corpus` — draws a corpus from the LDA generative process
  itself.  This is the right workload for *convergence* experiments (Figs 5-8):
  there is genuine topical structure for the samplers to recover, and the
  achievable log likelihood is governed by the planted topics.
* :func:`generate_zipf_corpus` — draws word frequencies from a Zipf
  (power-law) distribution, matching the term-frequency skew of natural
  corpora that drives the paper's partitioning (Fig 4) and cache-locality
  arguments (Sec. 5.2).

Both are parameterised by a :class:`SyntheticCorpusSpec` so the dataset
presets in :mod:`repro.corpus.datasets` can pin down the paper's Table 3
statistics at a reduced scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.corpus.corpus import Corpus, Document
from repro.corpus.vocabulary import Vocabulary
from repro.sampling.rng import RngLike, ensure_rng

__all__ = [
    "SyntheticCorpusSpec",
    "generate_lda_corpus",
    "generate_zipf_corpus",
]


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Size parameters of a synthetic corpus.

    Attributes
    ----------
    num_documents:
        Number of documents ``D``.
    vocabulary_size:
        Number of distinct words ``V``.
    mean_document_length:
        Expected tokens per document ``T/D``; individual lengths are drawn
        from a Poisson around this mean (minimum 1).
    num_topics:
        Number of planted topics for the LDA-generative corpus.
    doc_topic_concentration:
        Dirichlet α of the planted document-topic proportions.
    topic_word_concentration:
        Dirichlet β of the planted topic-word distributions.
    zipf_exponent:
        Power-law exponent of word frequencies for the Zipf generator.
    """

    num_documents: int = 200
    vocabulary_size: int = 500
    mean_document_length: int = 100
    num_topics: int = 20
    doc_topic_concentration: float = 0.1
    topic_word_concentration: float = 0.05
    zipf_exponent: float = 1.07

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError("num_documents must be positive")
        if self.vocabulary_size <= 1:
            raise ValueError("vocabulary_size must be at least 2")
        if self.mean_document_length <= 0:
            raise ValueError("mean_document_length must be positive")
        if self.num_topics <= 0:
            raise ValueError("num_topics must be positive")
        if self.doc_topic_concentration <= 0 or self.topic_word_concentration <= 0:
            raise ValueError("Dirichlet concentrations must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")


def _document_lengths(spec: SyntheticCorpusSpec, rng: np.random.Generator) -> np.ndarray:
    lengths = rng.poisson(spec.mean_document_length, size=spec.num_documents)
    return np.maximum(lengths, 1).astype(np.int64)


def _make_vocabulary(size: int) -> Vocabulary:
    return Vocabulary(f"w{i}" for i in range(size))


def generate_lda_corpus(
    spec: SyntheticCorpusSpec,
    seed: RngLike = None,
    return_truth: bool = False,
) -> Corpus | Tuple[Corpus, np.ndarray, np.ndarray]:
    """Draw a corpus from the LDA generative process of Sec. 2.1.

    Parameters
    ----------
    spec:
        Size and concentration parameters.
    seed:
        Seed or generator (the samplers' convention).
    return_truth:
        If true, also return the planted ``Theta`` (D x K) and ``Phi`` (K x V)
        matrices, useful for model-recovery tests.
    """
    rng = ensure_rng(seed)
    topics = rng.dirichlet(
        np.full(spec.vocabulary_size, spec.topic_word_concentration),
        size=spec.num_topics,
    )
    proportions = rng.dirichlet(
        np.full(spec.num_topics, spec.doc_topic_concentration),
        size=spec.num_documents,
    )
    lengths = _document_lengths(spec, rng)

    documents = []
    for doc_index in range(spec.num_documents):
        length = int(lengths[doc_index])
        assignments = rng.choice(spec.num_topics, size=length, p=proportions[doc_index])
        words = np.empty(length, dtype=np.int64)
        # Draw words topic-by-topic so each document needs only K categorical
        # draws of vectors rather than L_d independent choices.
        for topic in np.unique(assignments):
            mask = assignments == topic
            words[mask] = rng.choice(
                spec.vocabulary_size, size=int(mask.sum()), p=topics[topic]
            )
        documents.append(Document(words))

    corpus = Corpus(documents, _make_vocabulary(spec.vocabulary_size))
    if return_truth:
        return corpus, proportions, topics
    return corpus


def generate_zipf_corpus(spec: SyntheticCorpusSpec, seed: RngLike = None) -> Corpus:
    """Draw a corpus whose word frequencies follow a Zipf power law.

    Word ``w`` (0-based rank) has probability ``∝ (w + 1)^(-s)`` with
    ``s = spec.zipf_exponent``; documents are filled independently.  There is
    no topical structure — this workload exists to stress partitioning and
    cache behaviour with realistic frequency skew.
    """
    rng = ensure_rng(seed)
    ranks = np.arange(1, spec.vocabulary_size + 1, dtype=np.float64)
    word_probabilities = ranks ** (-spec.zipf_exponent)
    word_probabilities /= word_probabilities.sum()
    lengths = _document_lengths(spec, rng)

    documents = []
    for length in lengths:
        words = rng.choice(spec.vocabulary_size, size=int(length), p=word_probabilities)
        documents.append(Document(words.astype(np.int64)))
    return Corpus(documents, _make_vocabulary(spec.vocabulary_size))
