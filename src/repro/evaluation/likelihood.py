"""Log joint likelihood ``log p(W, Z | α, β)``.

This is the metric used throughout the paper's evaluation (Sec. 6.1):

.. math::

    L = \\sum_d \\Big[\\log\\frac{\\Gamma(\\bar\\alpha)}{\\Gamma(\\bar\\alpha+L_d)}
        + \\sum_k \\log\\frac{\\Gamma(\\alpha_k+C_{dk})}{\\Gamma(\\alpha_k)}\\Big]
      + \\sum_k \\Big[\\log\\frac{\\Gamma(\\bar\\beta)}{\\Gamma(\\bar\\beta+C_k)}
        + \\sum_w \\log\\frac{\\Gamma(\\beta+C_{kw})}{\\Gamma(\\beta)}\\Big]

Only non-zero counts contribute to the inner sums, which keeps the computation
cheap even for large sparse count matrices.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln

__all__ = [
    "check_priors",
    "log_joint_likelihood",
    "log_joint_likelihood_from_assignments",
]


def check_priors(
    num_topics: int,
    alpha: Union[float, np.ndarray],
    beta: Optional[float] = None,
) -> np.ndarray:
    """The package's one α/β check: return α as a fresh length-``K`` vector.

    A scalar ``alpha`` is the symmetric prior.  Every ``alpha`` entry and
    ``beta`` (when given — fold-in has no β) must be finite and positive:
    NaN, ±inf and values ``<= 0`` raise ``ValueError``.  The samplers, the
    likelihood, perplexity, the serving snapshot and both fold-ins all call
    this, so a bad prior fails the same way at every entry point.
    """
    alpha_vector = np.array(alpha, dtype=np.float64)
    if alpha_vector.ndim == 0:
        alpha_vector = np.full(num_topics, float(alpha_vector))
    if alpha_vector.shape != (num_topics,):
        raise ValueError(
            f"alpha must be a scalar or length-{num_topics} vector, got shape "
            f"{alpha_vector.shape}"
        )
    valid = np.isfinite(alpha_vector) & (alpha_vector > 0)
    if not valid.all():
        bad = alpha_vector[~valid][0]
        raise ValueError(f"alpha entries must be positive and finite, got {bad}")
    if beta is not None and not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return alpha_vector


def log_joint_likelihood(
    doc_topic: np.ndarray,
    word_topic: np.ndarray,
    alpha: Union[float, np.ndarray],
    beta: float,
) -> float:
    """Compute ``log p(W, Z | α, β)`` from the count matrices.

    Parameters
    ----------
    doc_topic:
        ``D x K`` matrix of counts ``C_dk``.
    word_topic:
        ``V x K`` matrix of counts ``C_wk``.
    alpha:
        Scalar (symmetric) or length-``K`` Dirichlet parameter of θ.
    beta:
        Symmetric Dirichlet parameter of φ.
    """
    doc_topic = np.asarray(doc_topic)
    word_topic = np.asarray(word_topic)
    if doc_topic.ndim != 2 or word_topic.ndim != 2:
        raise ValueError("doc_topic and word_topic must be 2-D count matrices")
    if doc_topic.shape[1] != word_topic.shape[1]:
        raise ValueError(
            "doc_topic and word_topic must agree on the number of topics, got "
            f"{doc_topic.shape[1]} and {word_topic.shape[1]}"
        )
    if doc_topic.sum() != word_topic.sum():
        raise ValueError(
            "doc_topic and word_topic must contain the same total number of tokens"
        )
    alpha_vector = check_priors(doc_topic.shape[1], alpha, beta)
    # gammaln(alpha_k + C_dk) - gammaln(alpha_k) is zero for zero counts, so
    # only the non-zero entries (in row-major order) enter the sums.
    doc_rows, doc_cols = np.nonzero(doc_topic)
    word_rows, word_cols = np.nonzero(word_topic)
    return _log_joint_from_nonzeros(
        alpha_vector[doc_cols],
        doc_topic[doc_rows, doc_cols],
        doc_topic.sum(axis=1),
        word_topic[word_rows, word_cols],
        word_topic.sum(axis=0),
        float(alpha_vector.sum()),
        beta,
        float(beta * word_topic.shape[0]),
    )


def _log_joint_from_nonzeros(
    doc_alpha: np.ndarray,
    doc_counts: np.ndarray,
    doc_lengths: np.ndarray,
    word_counts: np.ndarray,
    topic_counts: np.ndarray,
    alpha_sum: float,
    beta: float,
    beta_sum: float,
) -> float:
    """The four gammaln sums of the joint, over the non-zero counts only.

    ``doc_counts`` are the non-zero ``C_dk`` in row-major order with
    ``doc_alpha`` the matching ``α_k``; ``word_counts`` the non-zero ``C_wk``
    likewise.  Both callers feed the same values in the same order, so the
    dense-matrix and the per-token entry points agree to the last bit.
    """
    doc_part = float(np.sum(gammaln(doc_alpha + doc_counts) - gammaln(doc_alpha)))
    doc_part += float(
        np.sum(gammaln(alpha_sum) - gammaln(alpha_sum + doc_lengths.astype(np.float64)))
    )
    word_part = float(np.sum(gammaln(beta + word_counts) - gammaln(beta)))
    word_part += float(
        np.sum(gammaln(beta_sum) - gammaln(beta_sum + topic_counts.astype(np.float64)))
    )
    return doc_part + word_part


def log_joint_likelihood_from_assignments(
    token_documents: np.ndarray,
    token_words: np.ndarray,
    assignments: np.ndarray,
    num_documents: int,
    vocabulary_size: int,
    num_topics: int,
    alpha: Union[float, np.ndarray],
    beta: float,
) -> float:
    """Compute ``log p(W, Z | α, β)`` directly from per-token assignments.

    Used by WarpLDA, which does not store the count matrices.  Nor are they
    built here: the non-zero ``(doc, topic)`` and ``(word, topic)`` counts
    come from ``np.unique`` over ``row * K + topic`` keys — the same cells in
    the same row-major order a dense ``np.nonzero`` would visit, so the value
    is bit-equal to :func:`log_joint_likelihood` on the materialised matrices
    while memory stays O(tokens + D + V + K) whatever ``K`` is.
    """
    token_documents = np.asarray(token_documents, dtype=np.int64)
    token_words = np.asarray(token_words, dtype=np.int64)
    assignments = np.asarray(assignments, dtype=np.int64)
    if not (token_documents.shape == token_words.shape == assignments.shape):
        raise ValueError("token_documents, token_words and assignments must align")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= num_topics):
        raise ValueError("assignments contain out-of-range topics")
    alpha_vector = check_priors(num_topics, alpha, beta)
    doc_keys, doc_counts = np.unique(
        token_documents * num_topics + assignments, return_counts=True
    )
    _, word_counts = np.unique(
        token_words * num_topics + assignments, return_counts=True
    )
    return _log_joint_from_nonzeros(
        alpha_vector[doc_keys % num_topics],
        doc_counts,
        np.bincount(token_documents, minlength=num_documents),
        word_counts,
        np.bincount(assignments, minlength=num_topics),
        float(alpha_vector.sum()),
        beta,
        float(beta * vocabulary_size),
    )
