"""Memory-access analysis: the paper's Table 2 and Table 4.

Two complementary views are provided:

* :func:`access_pattern_table` reproduces Table 2 — per algorithm, the amount
  of sequential accesses per token, the number of random accesses per token
  and the size of the randomly accessed memory per document — both as the
  paper's symbolic expressions and as concrete numbers for a given corpus and
  topic count (using measured ``K_d`` / ``K_w`` sparsity).
* :func:`l3_miss_rate_experiment` reproduces Table 4 — L3 cache miss rates of
  LightLDA, F+LDA and WarpLDA — by replaying each algorithm's access trace
  through the cache simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import IVY_BRIDGE_HIERARCHY, MemoryHierarchyConfig
from repro.cache.simulator import HierarchySimulator
from repro.cache.tracing import ALGORITHM_TRACERS, AccessTraceGenerator
from repro.corpus.corpus import Corpus
from repro.sampling.rng import RngLike, ensure_rng

__all__ = [
    "AccessPatternSummary",
    "access_pattern_table",
    "estimate_topic_sparsity",
    "l3_miss_rate_experiment",
    "working_set_bytes",
]

_ENTRY_BYTES = 8


def estimate_topic_sparsity(
    corpus: Corpus, num_topics: int, assignments: Optional[np.ndarray] = None,
    seed: RngLike = None,
) -> Tuple[float, float]:
    """Return ``(mean K_d, mean K_w)`` — distinct topics per document / word.

    If no assignments are supplied, random assignments drawn from ``seed``
    are used, which gives the early-iteration (densest) regime.
    """
    if assignments is None:
        assignments = ensure_rng(seed).integers(
            num_topics, size=corpus.num_tokens
        )
    assignments = np.asarray(assignments, dtype=np.int64)
    doc_sparsity = np.array(
        [
            np.unique(assignments[corpus.document_token_indices(d)]).size
            for d in range(corpus.num_documents)
        ],
        dtype=np.float64,
    )
    word_counts = corpus.word_frequencies()
    word_sparsity = np.array(
        [
            np.unique(assignments[corpus.word_token_indices(w)]).size
            for w in range(corpus.vocabulary_size)
            if word_counts[w] > 0
        ],
        dtype=np.float64,
    )
    return float(doc_sparsity.mean()), float(word_sparsity.mean())


def working_set_bytes(corpus: Corpus, num_topics: int) -> Dict[str, int]:
    """Size in bytes of the structures an algorithm may randomly access."""
    return {
        "doc_topic_matrix": corpus.num_documents * num_topics * _ENTRY_BYTES,
        "word_topic_matrix": corpus.vocabulary_size * num_topics * _ENTRY_BYTES,
        "topic_vector": num_topics * _ENTRY_BYTES,
    }


@dataclass(frozen=True)
class AccessPatternSummary:
    """One row of the paper's Table 2."""

    algorithm: str
    family: str
    visiting_order: str
    sequential_per_token: str
    random_per_token: str
    random_memory_per_doc: str
    sequential_per_token_value: float
    random_per_token_value: float
    random_memory_per_doc_bytes: int


def access_pattern_table(
    corpus: Corpus,
    num_topics: int,
    assignments: Optional[np.ndarray] = None,
    num_mh_steps: int = 1,
    seed: RngLike = None,
) -> List[AccessPatternSummary]:
    """Reproduce Table 2 with concrete numbers for ``corpus`` and ``num_topics``.

    The symbolic columns are the paper's; the numeric columns instantiate them
    with the measured mean ``K_d`` / ``K_w`` and the matrix sizes of the given
    problem.
    """
    mean_kd, mean_kw = estimate_topic_sparsity(corpus, num_topics, assignments, seed)
    sizes = working_set_bytes(corpus, num_topics)
    kv_bytes = sizes["word_topic_matrix"]
    dk_bytes = sizes["doc_topic_matrix"]
    k_bytes = sizes["topic_vector"]

    return [
        AccessPatternSummary(
            algorithm="CGS",
            family="exact",
            visiting_order="doc",
            sequential_per_token="K",
            random_per_token="-",
            random_memory_per_doc="-",
            sequential_per_token_value=float(num_topics),
            random_per_token_value=0.0,
            random_memory_per_doc_bytes=kv_bytes,
        ),
        AccessPatternSummary(
            algorithm="SparseLDA",
            family="sparsity-aware",
            visiting_order="doc",
            sequential_per_token="Kd + Kw",
            random_per_token="Kd + Kw",
            random_memory_per_doc="O(KV)",
            sequential_per_token_value=mean_kd + mean_kw,
            random_per_token_value=mean_kd + mean_kw,
            random_memory_per_doc_bytes=kv_bytes,
        ),
        AccessPatternSummary(
            algorithm="AliasLDA",
            family="sparsity-aware + MH",
            visiting_order="doc",
            sequential_per_token="Kd",
            random_per_token="Kd",
            random_memory_per_doc="O(KV)",
            sequential_per_token_value=mean_kd,
            random_per_token_value=mean_kd,
            random_memory_per_doc_bytes=kv_bytes,
        ),
        AccessPatternSummary(
            algorithm="F+LDA",
            family="sparsity-aware",
            visiting_order="word",
            sequential_per_token="Kd",
            random_per_token="Kd",
            random_memory_per_doc="O(DK)",
            sequential_per_token_value=mean_kd,
            random_per_token_value=mean_kd,
            random_memory_per_doc_bytes=dk_bytes,
        ),
        AccessPatternSummary(
            algorithm="LightLDA",
            family="MH",
            visiting_order="doc",
            sequential_per_token="-",
            random_per_token="1",
            random_memory_per_doc="O(KV)",
            sequential_per_token_value=0.0,
            random_per_token_value=float(2 * num_mh_steps),
            random_memory_per_doc_bytes=kv_bytes,
        ),
        AccessPatternSummary(
            algorithm="WarpLDA",
            family="MH",
            visiting_order="doc & word",
            sequential_per_token="-",
            random_per_token="1",
            random_memory_per_doc="O(K)",
            sequential_per_token_value=0.0,
            random_per_token_value=float(2 * num_mh_steps),
            random_memory_per_doc_bytes=k_bytes,
        ),
    ]


def l3_miss_rate_experiment(
    corpus: Corpus,
    num_topics: int,
    algorithms: Iterable[str] = ("LightLDA", "F+LDA", "WarpLDA"),
    hierarchy: Optional[MemoryHierarchyConfig] = None,
    cache_scale: Optional[float] = None,
    num_mh_steps: int = 1,
    assignments: Optional[np.ndarray] = None,
    max_tokens: Optional[int] = 20_000,
    seed: RngLike = 0,
) -> Dict[str, Dict[str, float]]:
    """Reproduce the Table 4 comparison on ``corpus``.

    Parameters
    ----------
    corpus, num_topics:
        The workload.
    algorithms:
        Algorithm names from :data:`~repro.cache.tracing.ALGORITHM_TRACERS`.
    hierarchy:
        Memory hierarchy to simulate; defaults to the paper's Ivy Bridge
        configuration, scaled (see ``cache_scale``).
    cache_scale:
        Factor by which the cache sizes are multiplied.  If ``None``, a factor
        is chosen automatically so that the word-topic matrix of the scaled
        workload stands in the same relation to the L3 as the paper's full-size
        matrices did (matrix ≈ 30x the L3 capacity).
    num_mh_steps:
        ``M`` for the MH algorithms (the paper's Table 4 uses M=1).
    max_tokens:
        Cap on the tokens visited per trace, for tractability.
    seed:
        Seed controlling the synthetic topic assignments and probe draws
        (default 0, so the experiment is repeatable out of the box).

    Returns
    -------
    dict
        ``{algorithm: {"l3_miss_rate", "memory_accesses", "avg_latency_cycles",
        "trace_length"}}``.
    """
    draw_rng = ensure_rng(seed)
    if hierarchy is None:
        hierarchy = IVY_BRIDGE_HIERARCHY
        if cache_scale is None:
            matrix_bytes = corpus.vocabulary_size * num_topics * _ENTRY_BYTES
            paper_ratio = 30.0  # KV matrix ≈ 30x the 30 MB L3 in the paper's setups
            target_l3 = max(matrix_bytes / paper_ratio, 16 * 1024)
            cache_scale = target_l3 / hierarchy.level("L3").size_bytes
        hierarchy = hierarchy.scaled(cache_scale)
    elif cache_scale is not None:
        hierarchy = hierarchy.scaled(cache_scale)

    tracer = AccessTraceGenerator(
        corpus,
        num_topics,
        assignments=assignments,
        num_mh_steps=num_mh_steps,
        rng=draw_rng,
        max_tokens=max_tokens,
    )

    results: Dict[str, Dict[str, float]] = {}
    for algorithm in algorithms:
        method_name = ALGORITHM_TRACERS.get(algorithm)
        if method_name is None:
            known = ", ".join(sorted(ALGORITHM_TRACERS))
            raise KeyError(f"unknown algorithm {algorithm!r}; known: {known}")
        simulator = HierarchySimulator(hierarchy)
        simulator.access_many(getattr(tracer, method_name)())
        total = max(simulator.total_accesses, 1)
        results[algorithm] = {
            # Fraction of all count-structure references that miss the L3 and
            # go to main memory (the quantity that determines the average
            # latency, and the robust analogue of the paper's PAPI number).
            "l3_miss_rate": simulator.memory_accesses / total,
            # Local L3 miss rate (misses / accesses *to the L3*), for
            # completeness; degenerate when an algorithm barely touches L3.
            "l3_local_miss_rate": simulator.miss_rate("L3"),
            "l1_miss_rate": simulator.miss_rate("L1D"),
            "memory_accesses": float(simulator.memory_accesses),
            "avg_latency_cycles": simulator.average_latency(),
            "trace_length": float(simulator.total_accesses),
        }
    return results
