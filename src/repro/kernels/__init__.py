"""Vectorized sampling kernels: bucketed slab execution for the hot paths.

The paper's central claim is that LDA sampling throughput is decided by the
*structure* of memory accesses, not by per-token asymptotics.  This package
applies the same lesson to the Python/NumPy reproduction: the interpreter-level
loop over words, documents or tokens is itself a "random access" cost, so the
kernels here batch whole groups of words/documents into rectangular **slabs**
and execute WarpLDA's hot paths as a handful of whole-array NumPy
operations.

Layout
------
:mod:`~repro.kernels.buckets`
    Groups the rows of one corpus axis (words or documents) into power-of-two
    length buckets, each a ``(rows, lengths)`` view over the axis offsets and
    order whose flat token indices come from one ragged gather, built once
    per corpus and cached on it.
:mod:`~repro.kernels.proposals`
    The one Sec. 4.3 proposal draw of the package, shared by WarpLDA's two
    phases and the serving MH fold-in: the CSR layout of a flat token batch
    and the positioning-mixture draw over it, whose optional third component
    (installed external counts) is random positioning over word-sorted
    pseudo-tokens: O(1) per token, ``ΣE`` ints built once per installed
    table.
:mod:`~repro.kernels.warp`
    WarpLDA's word and document phases (Alg. 2), token-major over bucket
    chunks: the MH accept/reject chains of Eq. (7) and the proposal draws
    run as flat NumPy expressions over a chunk's real tokens only.
:mod:`~repro.kernels.pool`
    The multi-core execution tier: the shared thread pool every kernel
    dispatches its independent work units through, plus the per-task RNG
    spawning that keeps the trajectory bit-identical for every thread count
    (the ``THR001`` invariant makes it the only thread owner in this
    package).

Exactness
---------
WarpLDA freezes all counts for the duration of a phase (the MCEM E-step keeps
Θ and Φ fixed), so processing the words of a phase slab-parallel instead of
one-by-one is *exact*: no word's chain reads another word's in-phase updates.
WarpLDA still keeps its per-row loop behind ``kernel="scalar"`` as the
correctness oracle; every other sampler has only its scalar per-token loop.
"""

from repro.kernels.buckets import SlabBucket, build_buckets, corpus_buckets
from repro.kernels.proposals import positioning_mixture_proposal, token_layout
from repro.kernels.warp import document_phase, word_phase

__all__ = [
    "SlabBucket",
    "build_buckets",
    "corpus_buckets",
    "document_phase",
    "positioning_mixture_proposal",
    "token_layout",
    "word_phase",
]
