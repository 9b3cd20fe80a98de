"""Batched θ inference for unseen documents against a frozen snapshot.

Two fold-in strategies are offered, both operating on a
:class:`~repro.serving.snapshot.ModelSnapshot`:

* **EM fold-in** (``strategy="em"``) — the classic fixed-point update of the
  document-topic proportions with Φ held fixed, vectorised across a whole
  batch: documents are collapsed to bags of unique words, grouped into
  power-of-two size buckets (padding contributes exact zeros), and each
  update becomes two batched matrix-vector products.  Mathematically
  equivalent to the per-document loop it replaces, several times faster on
  realistic batches (``serving.infer.fold_in_ms`` on the ``serve_cold``
  workload of ``benchmarks/suite/``).
* **MH fold-in** (``strategy="mh"``) — WarpLDA's own trick applied to
  serving: per-token topic assignments are refined with Metropolis-Hastings
  steps whose proposal is the doc-proposal mixture of Sec. 4.3 (random
  positioning over the document's current assignments, mixed with the α
  prior).  Because the proposal is the document factor of the target and Φ is
  frozen, the acceptance rate collapses to ``min{1, φ_t,w / φ_s,w}`` — O(1)
  per step, no per-document K-vector beyond the final count.  The whole batch
  is processed as one flat token array, exactly the corpus layout the
  training passes use.

Both strategies, and :func:`perplexity_from_theta`, read Φ only at the
``(topic, word)`` pairs of the batch's words: ``phi[:, words]`` /
``phi.T[words]``.  They take any ``K x V`` float array, but a snapshot's Φ is
word-major (:attr:`~repro.serving.snapshot.ModelSnapshot.phi` is the
transposed view of a C-order ``V x K`` buffer), so each gathered word is one
contiguous ``K``-row rather than ``K`` cache lines ``8·V`` bytes apart.  Word
ids are checked against ``[0, V)`` first: NumPy would silently wrap a
negative id to the end of the vocabulary.

Out-of-vocabulary tokens are dropped at encode time via the snapshot's frozen
:class:`~repro.corpus.vocabulary.Vocabulary`; documents that end up empty
receive the prior mean ``α / ᾱ``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.evaluation.likelihood import check_priors
from repro.kernels.proposals import positioning_mixture_proposal, token_layout
from repro.sampling.alias import AliasTable
from repro.sampling.rng import RngLike, ensure_rng
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "InferenceEngine",
    "em_fold_in",
    "encode_document",
    "mh_fold_in",
    "perplexity_from_theta",
]

#: One request document: a word-id array, a word-id list or a token list.
DocumentLike = Union[np.ndarray, Sequence[int], Sequence[str]]

#: Cap on ``K * batch * padded_length`` float64 elements materialised at once
#: by the EM kernel.  Kept small (~1 MB) so the per-chunk working set stays
#: cache-resident across the iteration loop; batching is for amortising call
#: overheads, not for huge tensors.  Re-measured with word-major Φ at the
#: ``serve_cold`` shapes (K = 256, V = 20 000, 16 documents of ~120 tokens, a
#: 2-core VM): 2^15-2^17 tie at ~14.6 ms per request, 2^18-2^21 are 12-39%
#: slower.
_MAX_EM_ELEMENTS = 1 << 17


def encode_document(document: DocumentLike, vocabulary: Vocabulary) -> np.ndarray:
    """Normalise one request document to an int64 word-id array.

    An id array or id list is taken as is; a list holding any string goes
    through ``vocabulary`` with out-of-vocabulary tokens dropped.
    """
    if isinstance(document, np.ndarray):
        return np.asarray(document, dtype=np.int64)
    items = list(document)
    if any(isinstance(item, str) for item in items):
        return vocabulary.encode(items, on_oov="drop")
    return np.asarray(items, dtype=np.int64)


def _prior_mean(alpha: np.ndarray) -> np.ndarray:
    return alpha / alpha.sum()


def perplexity_from_theta(
    documents: Sequence[np.ndarray],
    theta: np.ndarray,
    phi: np.ndarray,
) -> float:
    """Perplexity of word-id documents under folded-in θ rows and fixed Φ.

    The single scoring path shared by the serving layer and
    :func:`repro.evaluation.perplexity.held_out_perplexity`.  Empty documents
    (zero-token bags — empty to begin with, or emptied by OOV dropping) are
    excluded from the token denominator: they carry no evidence, so they must
    neither crash the normalisation nor dilute the average.  Token
    probabilities are clamped at 1e-300 so a zero-probability token yields a
    huge-but-finite perplexity rather than ``inf``/NaN.

    Raises
    ------
    ValueError
        If a word id is outside ``[0, V)``, or if no document contributes any
        token (there is nothing to score).
    """
    _check_word_ids(documents, phi.shape[1])
    log_likelihood = 0.0
    total_tokens = 0
    for row, words in enumerate(documents):
        if words.size == 0:
            continue
        token_probs = theta[row] @ phi[:, words]
        token_probs = np.maximum(token_probs, 1e-300)
        log_likelihood += float(np.log(token_probs).sum())
        total_tokens += int(words.size)
    if total_tokens == 0:
        raise ValueError(
            "no tokens to score (every document is empty or out-of-vocabulary)"
        )
    return float(np.exp(-log_likelihood / total_tokens))


def _as_id_arrays(documents: Sequence[Union[np.ndarray, Sequence[int]]]) -> List[np.ndarray]:
    return [np.asarray(doc, dtype=np.int64) for doc in documents]


def _check_word_ids(documents: Sequence[np.ndarray], vocab_size: int) -> None:
    """Reject any word id outside ``[0, V)`` (one min/max pass per document).

    Fancy indexing would wrap a negative id to word ``V + id`` and score the
    document against the wrong word, so every fold-in path checks first.
    """
    for doc in documents:
        if doc.size and (doc.min() < 0 or doc.max() >= vocab_size):
            raise ValueError(
                f"word ids must be in [0, {vocab_size}), got range "
                f"[{doc.min()}, {doc.max()}]"
            )


def _log_phi_at(phi: np.ndarray, topics: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``log φ[topic, word]`` per token, clamped at 1e-300 (O(tokens), not O(KV))."""
    return np.log(np.maximum(phi[topics, words], 1e-300))


def em_fold_in(
    documents: Sequence[np.ndarray],
    phi: np.ndarray,
    alpha: Union[float, np.ndarray],
    num_iterations: int = 30,
) -> np.ndarray:
    """Vectorised EM fold-in of θ for a batch of documents with Φ fixed.

    Parameters
    ----------
    documents:
        Per-document word-id arrays (may be empty; ids must be in ``[0, V)``).
    phi:
        The frozen ``K x V`` topic-word distributions (word-major for
        contiguous row gathers, see the module docstring).
    alpha:
        The document Dirichlet parameter: a scalar (symmetric) or a
        length-``K`` vector, every entry finite and positive.
    num_iterations:
        Number of fixed-point updates per document.

    Returns
    -------
    numpy.ndarray
        ``B x K`` matrix of folded-in document-topic proportions.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError("phi must be a K x V matrix")
    if num_iterations <= 0:
        raise ValueError("num_iterations must be positive")
    num_topics = phi.shape[0]
    alpha = check_priors(num_topics, alpha)

    documents = _as_id_arrays(documents)
    _check_word_ids(documents, phi.shape[1])
    theta = np.tile(_prior_mean(alpha), (len(documents), 1))

    # The fixed-point update only sees each document through its word counts,
    # so work in bag-of-words form: L tokens collapse to U ≤ L unique words
    # weighted by their counts.  Group documents into power-of-two buckets of
    # U; within a bucket pad with word id 0 under a zero count, so padded
    # positions contribute exact zeros to every sum.
    bags = [np.unique(doc, return_counts=True) for doc in documents]
    buckets = {}
    for index, (unique_words, _) in enumerate(bags):
        if unique_words.size == 0:
            continue
        padded = 1 << int(unique_words.size - 1).bit_length()
        buckets.setdefault(padded, []).append(index)

    for padded_length, indices in buckets.items():
        chunk_size = max(1, _MAX_EM_ELEMENTS // (num_topics * padded_length))
        for start in range(0, len(indices), chunk_size):
            chunk = indices[start : start + chunk_size]
            theta[chunk] = _em_bucket(
                [bags[i] for i in chunk], padded_length, phi, alpha, num_iterations
            )
    return theta


def _em_bucket(
    bags: List[Tuple[np.ndarray, np.ndarray]],
    padded_length: int,
    phi: np.ndarray,
    alpha: np.ndarray,
    num_iterations: int,
) -> np.ndarray:
    """Run the fixed-point updates for one padded bucket of word bags."""
    batch = len(bags)
    num_topics = phi.shape[0]
    words = np.zeros((batch, padded_length), dtype=np.int64)
    counts = np.zeros((batch, padded_length), dtype=np.float64)
    for row, (unique_words, word_counts) in enumerate(bags):
        words[row, : unique_words.size] = unique_words
        counts[row, : unique_words.size] = word_counts

    # B x U x K word probabilities (fixed across iterations).  Splitting the
    # per-word responsibility into its θ factor turns each fixed-point update
    # into two batched matrix-vector products over this tensor — no
    # K·B·U-sized temporaries, and BLAS does the reductions:
    #   norm_u   = Σ_k φ_k,u θ_k
    #   scores_k = Σ_u (count_u / norm_u) φ_k,u
    #   θ'_k     ∝ θ_k · scores_k + α_k
    # With a word-major Φ each gathered word is one contiguous K-row.
    word_probs = phi.T[words]
    proportions = np.full((batch, num_topics), 1.0 / num_topics)
    for _ in range(num_iterations):
        normaliser = (word_probs @ proportions[:, :, None])[:, :, 0]
        normaliser[normaliser == 0] = 1e-300
        ratio = counts / normaliser
        scores = (ratio[:, None, :] @ word_probs)[:, 0, :]
        proportions = proportions * scores + alpha
        proportions /= proportions.sum(axis=1, keepdims=True)
    return proportions


def mh_fold_in(
    documents: Sequence[np.ndarray],
    phi: np.ndarray,
    alpha: Union[float, np.ndarray],
    num_sweeps: int = 30,
    num_mh_steps: int = 2,
    rng: RngLike = None,
) -> np.ndarray:
    """WarpLDA-style MH fold-in of θ for a batch of documents with Φ fixed.

    Per sweep, every token takes ``num_mh_steps`` Metropolis-Hastings steps.
    The proposal is the doc-proposal mixture of the paper's Sec. 4.3 — with
    probability ``L_d / (L_d + ᾱ)`` the assignment of a uniformly random
    token of the same document (random positioning), otherwise a draw from
    the α prior.  With Φ frozen the proposal cancels the document factor of
    the target, so acceptance is ``min{1, φ_t,w / φ_s,w}``.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError("phi must be a K x V matrix")
    if num_sweeps <= 0:
        raise ValueError("num_sweeps must be positive")
    if num_mh_steps <= 0:
        raise ValueError("num_mh_steps must be positive")
    num_topics = phi.shape[0]
    alpha = check_priors(num_topics, alpha)
    rng = ensure_rng(rng)

    documents = _as_id_arrays(documents)
    _check_word_ids(documents, phi.shape[1])
    batch = len(documents)
    alpha_sum = float(alpha.sum())
    theta = np.tile(_prior_mean(alpha), (batch, 1))

    lengths = np.array([doc.size for doc in documents], dtype=np.int64)
    nonempty = np.flatnonzero(lengths)
    if nonempty.size == 0:
        return theta

    # Flatten the non-empty documents into one mini-corpus (CSR layout), the
    # same token-major form the training kernels stream over; the layout and
    # the Sec. 4.3 mixture proposal come from the shared kernel layer.
    flat_words = np.concatenate([documents[i] for i in nonempty])
    _, token_doc, token_offset, token_length = token_layout(lengths[nonempty])
    num_flat_tokens = flat_words.size

    alpha_symmetric = bool(np.allclose(alpha, alpha[0]))
    alpha_alias = None if alpha_symmetric else AliasTable(alpha)

    # log φ of the current assignment, kept incrementally; acceptance compares
    # log φ to avoid 0/0 when both proposals have zero mass.  The log is taken
    # only at the gathered (topic, word) pairs, never over all of Φ.
    assignments = rng.integers(num_topics, size=num_flat_tokens)
    current_logp = _log_phi_at(phi, assignments, flat_words)

    for _ in range(num_sweeps):
        for _ in range(num_mh_steps):
            proposed = positioning_mixture_proposal(
                assignments,
                token_offset,
                token_length,
                alpha_sum,
                num_topics,
                rng,
                alpha_alias=alpha_alias,
            )
            proposed_logp = _log_phi_at(phi, proposed, flat_words)
            accept = np.log(rng.random(num_flat_tokens)) < proposed_logp - current_logp
            assignments = np.where(accept, proposed, assignments)
            current_logp = np.where(accept, proposed_logp, current_logp)

    doc_topic = np.zeros((nonempty.size, num_topics), dtype=np.float64)
    np.add.at(doc_topic, (token_doc, assignments), 1.0)
    doc_topic += alpha
    doc_topic /= doc_topic.sum(axis=1, keepdims=True)
    theta[nonempty] = doc_topic
    return theta


class InferenceEngine:
    """Batched unseen-document inference against a frozen snapshot.

    Parameters
    ----------
    snapshot:
        The frozen model to serve.
    strategy:
        ``"em"`` (vectorised fixed-point fold-in, deterministic) or ``"mh"``
        (WarpLDA-style Metropolis-Hastings fold-in, stochastic).
    num_iterations:
        EM fixed-point updates, or MH sweeps, per batch.
    num_mh_steps:
        MH steps per token per sweep (``strategy="mh"`` only).
    seed:
        Seed or generator for the MH chain (``strategy="mh"`` only).

    Examples
    --------
    >>> from repro import WarpLDA
    >>> from repro.corpus import load_preset
    >>> from repro.serving import InferenceEngine
    >>> corpus = load_preset("nytimes_like", scale=0.05, seed=0)
    >>> snapshot = WarpLDA(corpus, num_topics=10, seed=0).fit(5).export_snapshot()
    >>> engine = InferenceEngine(snapshot)
    >>> theta = engine.infer_ids([corpus.document_words(0)])
    >>> theta.shape
    (1, 10)
    """

    STRATEGIES = ("em", "mh")

    def __init__(
        self,
        snapshot: ModelSnapshot,
        strategy: str = "em",
        num_iterations: int = 30,
        num_mh_steps: int = 2,
        seed: RngLike = None,
    ) -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"strategy must be one of {self.STRATEGIES}, got {strategy!r}"
            )
        if num_iterations <= 0:
            raise ValueError(f"num_iterations must be positive, got {num_iterations}")
        if num_mh_steps <= 0:
            raise ValueError(f"num_mh_steps must be positive, got {num_mh_steps}")
        self.snapshot = snapshot
        self.strategy = strategy
        self.num_iterations = int(num_iterations)
        self.num_mh_steps = int(num_mh_steps)
        self.rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    @property
    def num_topics(self) -> int:
        """Number of topics ``K`` of the underlying snapshot."""
        return self.snapshot.num_topics

    def encode(
        self, token_documents: Sequence[Sequence[str]]
    ) -> Tuple[List[np.ndarray], int]:
        """Map token documents to id arrays, dropping OOV tokens.

        Returns the per-document id arrays and the total number of dropped
        out-of-vocabulary tokens.
        """
        vocabulary = self.snapshot.vocabulary
        encoded = []
        dropped = 0
        for tokens in token_documents:
            tokens = list(tokens)
            ids = vocabulary.encode(tokens, on_oov="drop")
            dropped += len(tokens) - ids.size
            encoded.append(ids)
        return encoded, dropped

    def infer_ids(
        self, documents: Sequence[Union[np.ndarray, Sequence[int]]]
    ) -> np.ndarray:
        """Infer θ for documents given as word-id arrays.

        Empty documents receive the prior mean ``α / ᾱ``.  Returns a ``B x K``
        matrix whose rows sum to one.
        """
        documents = _as_id_arrays(documents)
        if not documents:
            return np.zeros((0, self.num_topics))
        if self.strategy == "em":
            return em_fold_in(
                documents, self.snapshot.phi, self.snapshot.alpha, self.num_iterations
            )
        return mh_fold_in(
            documents,
            self.snapshot.phi,
            self.snapshot.alpha,
            num_sweeps=self.num_iterations,
            num_mh_steps=self.num_mh_steps,
            rng=self.rng,
        )

    def infer_tokens(self, token_documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Infer θ for raw token documents; OOV tokens are dropped."""
        encoded, _ = self.encode(token_documents)
        return self.infer_ids(encoded)

    def held_out_perplexity(self, documents: Sequence[DocumentLike]) -> float:
        """Held-out perplexity of ``documents`` under the frozen snapshot.

        Documents may be raw token sequences (OOV tokens are dropped via the
        snapshot vocabulary) or word-id arrays.  Documents that are empty —
        or become empty after OOV dropping — receive the prior-proportional
        θ and are *excluded from the token denominator*, so an all-OOV
        request can never drag the average through a zero-token bag.

        Raises
        ------
        ValueError
            If no document contributes any in-vocabulary token (there is
            nothing to score).
        """
        vocabulary = self.snapshot.vocabulary
        encoded = [encode_document(document, vocabulary) for document in documents]
        theta = self.infer_ids(encoded)
        return perplexity_from_theta(encoded, theta, self.snapshot.phi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferenceEngine(strategy={self.strategy!r}, K={self.num_topics}, "
            f"iterations={self.num_iterations})"
        )
