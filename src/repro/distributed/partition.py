"""Balanced partitioning of rows and columns (Sec. 5.3.2, Fig. 4).

Column (word) partitioning is hard because term frequencies follow a power
law: the most frequent word alone can exceed a partition's fair share.  The
paper compares three strategies:

* **static** — shuffle the words, then give every partition the same *number
  of words*;
* **dynamic** — keep the words in order but cut the sequence into contiguous
  slices with roughly the same *number of tokens*;
* **greedy** — sort words by frequency (descending) and repeatedly assign the
  next word to the currently lightest partition.

Balance is measured by the **imbalance index**
``max(partition load) / mean(partition load) - 1`` (0 is perfect).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.sampling.rng import RngLike, ensure_rng

__all__ = [
    "imbalance_by_strategy",
    "imbalance_index",
    "partition_words_static",
    "partition_words_dynamic",
    "partition_words_greedy",
    "partition_loads",
]


def imbalance_index(loads: np.ndarray) -> float:
    """``max(load) / mean(load) - 1`` of per-partition loads."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    mean = loads.mean()
    if mean == 0:
        return 0.0
    return float(loads.max() / mean - 1.0)


def partition_loads(sizes: np.ndarray, assignment: np.ndarray, num_partitions: int) -> np.ndarray:
    """Total size per partition for a given item → partition assignment."""
    sizes = np.asarray(sizes, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if sizes.shape != assignment.shape:
        raise ValueError("sizes and assignment must have the same shape")
    if assignment.size and (assignment.min() < 0 or assignment.max() >= num_partitions):
        raise ValueError(
            f"assignment names a partition outside [0, {num_partitions})"
        )
    return np.bincount(assignment, weights=sizes, minlength=num_partitions)


def _validate(sizes: np.ndarray, num_partitions: int) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("sizes must be a non-empty 1-D array")
    if np.any(sizes < 0):
        raise ValueError("sizes must be non-negative")
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return sizes


def partition_words_static(
    sizes: np.ndarray, num_partitions: int, rng: RngLike = None
) -> np.ndarray:
    """Random shuffle, equal number of *words* per partition."""
    sizes = _validate(sizes, num_partitions)
    rng = ensure_rng(rng)
    order = rng.permutation(sizes.size)
    assignment = np.empty(sizes.size, dtype=np.int64)
    # Words dealt out in contiguous chunks of (approximately) equal count.
    boundaries = np.linspace(0, sizes.size, num_partitions + 1).astype(np.int64)
    for partition in range(num_partitions):
        assignment[order[boundaries[partition] : boundaries[partition + 1]]] = partition
    return assignment


def partition_words_dynamic(sizes: np.ndarray, num_partitions: int) -> np.ndarray:
    """Contiguous slices, each with roughly the same number of tokens."""
    sizes = _validate(sizes, num_partitions)
    total = int(sizes.sum())
    target = total / num_partitions if num_partitions else 0
    assignment = np.empty(sizes.size, dtype=np.int64)
    partition = 0
    load = 0
    for word in range(sizes.size):
        # Close the current slice when it has reached its fair share and
        # there are still partitions left for the remaining words.
        if load >= target and partition < num_partitions - 1:
            partition += 1
            load = 0
        assignment[word] = partition
        load += int(sizes[word])
    return assignment


def partition_words_greedy(sizes: np.ndarray, num_partitions: int) -> np.ndarray:
    """Longest-processing-time greedy assignment (the paper's algorithm)."""
    sizes = _validate(sizes, num_partitions)
    assignment = np.empty(sizes.size, dtype=np.int64)
    loads = np.zeros(num_partitions, dtype=np.int64)
    for word in np.argsort(sizes)[::-1]:
        partition = int(np.argmin(loads))
        assignment[word] = partition
        loads[partition] += int(sizes[word])
    return assignment


def imbalance_by_strategy(
    sizes: np.ndarray,
    partition_counts: Iterable[int],
    rng: RngLike = 0,
) -> Dict[str, List[float]]:
    """Fig. 4: imbalance index of each strategy for each partition count."""
    sizes = np.asarray(sizes, dtype=np.int64)
    rng = ensure_rng(rng)
    results: Dict[str, List[float]] = {"static": [], "dynamic": [], "greedy": []}
    for num_partitions in partition_counts:
        static = partition_words_static(sizes, num_partitions, rng)
        dynamic = partition_words_dynamic(sizes, num_partitions)
        greedy = partition_words_greedy(sizes, num_partitions)
        results["static"].append(
            imbalance_index(partition_loads(sizes, static, num_partitions))
        )
        results["dynamic"].append(
            imbalance_index(partition_loads(sizes, dynamic, num_partitions))
        )
        results["greedy"].append(
            imbalance_index(partition_loads(sizes, greedy, num_partitions))
        )
    return results
