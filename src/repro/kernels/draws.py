"""Batched inverse-CDF categorical draws.

Both helpers implement the same draw — index ``i`` is chosen when the
uniform target falls in ``[cdf[i-1], cdf[i])`` — with the boundary convention
of ``np.searchsorted(..., side="left")``, which is exactly what the scalar
samplers use (:mod:`repro.sampling.discrete`).  They differ only in batching
shape:

* :func:`row_categorical_draw` — one draw per row of an ``(R, K)`` matrix
  (the blocked CGS kernel's "one token, one conditional" case);
* :func:`table_categorical_draws` — one draw per token from a shared
  ``(V, K)`` weight table indexed by a per-token row id (WarpLDA's
  external-count and exact word proposals).

The per-token variant uses the offset-flattening trick: each row's CDF is
normalised into ``(0, 1]`` and shifted by its row index, giving one globally
non-decreasing array that a single ``searchsorted`` can answer every row's
queries against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prepare_table",
    "row_categorical_draw",
    "table_categorical_draws",
]


def row_categorical_draw(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one index per row of ``weights`` (``(R, K)``, rows positive).

    Returns an ``(R,)`` int64 array.  Equivalent to ``R`` calls to
    ``searchsorted(cumsum(w), u * w.sum())`` but performed as one cumulative
    sum and one broadcast comparison.
    """
    cdf = np.cumsum(weights, axis=1)
    targets = rng.random(weights.shape[0]) * cdf[:, -1]
    drawn = (cdf < targets[:, None]).sum(axis=1)
    return np.minimum(drawn, weights.shape[1] - 1).astype(np.int64)


def _flat_offset_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalised per-row CDF shifted by the row index, flattened.

    A row of zero mass (legal only if the caller never queries it) stays
    flat at its row index, so the array is still non-decreasing.
    """
    cdf = np.cumsum(weights, axis=1)
    totals = cdf[:, -1:]
    norm = cdf / np.where(totals > 0, totals, 1)
    norm[:, -1] = 1.0  # guard rounding so every query u < 1 lands in-row
    return (norm + np.arange(weights.shape[0])[:, None]).ravel()


def table_categorical_draws(
    cdf_flat: np.ndarray, num_cols: int, row_ids: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-token draws from a shared table prepared by :func:`prepare_table`.

    ``row_ids`` selects the distribution (e.g. the token's word id) and one
    flat ``searchsorted`` serves the whole token batch.
    """
    queries = row_ids + rng.random(row_ids.size)
    drawn = np.searchsorted(cdf_flat, queries) - row_ids * num_cols
    return np.minimum(drawn, num_cols - 1).astype(np.int64)


def prepare_table(weights: np.ndarray) -> np.ndarray:
    """Precompute the offset-flattened CDF of a ``(V, K)`` weight table.

    Factored out of :func:`table_categorical_draws` so a sweep that draws
    from the same stale table many times pays the ``O(VK)`` cumulative sum
    once.
    """
    return _flat_offset_cdf(weights)
