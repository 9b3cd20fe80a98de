"""Balanced partitioning of rows and columns (Sec. 5.3.2, Fig. 4).

:mod:`repro.distributed.partition` holds the static / dynamic / greedy
word-partitioning strategies and the imbalance index of Fig. 4.  The
data-parallel trainer that runs Sec. 5 lives in :mod:`repro.training`.
"""

from repro.distributed.partition import (
    imbalance_index,
    partition_words_dynamic,
    partition_words_greedy,
    partition_words_static,
)

__all__ = [
    "imbalance_index",
    "partition_words_dynamic",
    "partition_words_greedy",
    "partition_words_static",
]
