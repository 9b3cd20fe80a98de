"""Held-out perplexity for trained topic models.

Fold-in inference is delegated to the vectorised batch kernel of the serving
layer (:func:`repro.serving.infer.em_fold_in`), so evaluating a held-out
corpus costs one NumPy kernel per document-length bucket instead of a Python
loop per document.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.serving.infer import em_fold_in, perplexity_from_theta

__all__ = ["held_out_perplexity", "document_topic_inference"]


def document_topic_inference(
    corpus: Corpus,
    phi: np.ndarray,
    alpha: Union[float, np.ndarray],
    num_iterations: int = 30,
) -> np.ndarray:
    """Fold-in inference of θ for held-out documents given fixed φ.

    Uses fixed-point EM updates of the document-topic proportions, which is
    the standard "fold-in" evaluation for LDA when φ is held fixed.  ``alpha``
    may be a symmetric scalar or a per-topic vector (matching
    :func:`repro.samplers.base.resolve_hyperparameters`).  Documents are
    batched by length and updated with one vectorised kernel per batch.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError("phi must be a K x V matrix")
    documents = [corpus.document_words(d) for d in range(corpus.num_documents)]
    # Empty documents keep the prior mean α / ᾱ (uniform for symmetric α);
    # em_fold_in checks α.
    return em_fold_in(documents, phi, alpha, num_iterations)


def held_out_perplexity(
    corpus: Corpus,
    phi: np.ndarray,
    alpha: Union[float, np.ndarray],
    num_iterations: int = 30,
) -> float:
    """Perplexity of ``corpus`` under topics ``phi`` with folded-in θ.

    Lower is better.  ``phi`` is the ``K x V`` topic-word distribution (rows
    sum to one), e.g. the output of a trained sampler's ``phi()``; ``alpha``
    is a symmetric scalar or a per-topic vector.
    """
    phi = np.asarray(phi, dtype=np.float64)
    theta = document_topic_inference(corpus, phi, alpha, num_iterations)
    documents = [corpus.document_words(d) for d in range(corpus.num_documents)]
    return perplexity_from_theta(documents, theta, phi)
