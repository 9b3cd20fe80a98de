"""The paper's Sec. 4.3 proposal draw, shared by training and serving.

WarpLDA's two phases and the serving layer's MH fold-in
(:func:`repro.serving.infer.mh_fold_in`) both draw from ``q(k) ∝ C_rk +
prior_k`` over a flat token batch without ever forming ``C_r``:

    with probability ``L_r / (L_r + prior mass)`` pick the assignment of a
    uniformly random token of the same row (random positioning), otherwise
    draw from the prior.

:func:`token_layout` computes the CSR-style per-token arrays the draw needs,
and :func:`positioning_mixture_proposal` performs the draw for a whole batch.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.draws import table_categorical_draws
from repro.sampling.alias import AliasTable

__all__ = ["positioning_mixture_proposal", "token_layout"]


def token_layout(
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-token CSR arrays for a batch of rows with the given lengths.

    Returns ``(offsets, token_row, token_offset, token_length)`` where
    ``offsets`` has length ``R + 1`` and the other three are per-token:
    the owning row, the row's first-token position, and the row's length.
    Zero-length rows contribute no tokens (and must be filtered by the
    caller if it needs a dense row <-> token mapping).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    token_row = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    token_offset = np.repeat(offsets[:-1], lengths)
    token_length = np.repeat(lengths, lengths)
    return offsets, token_row, token_offset, token_length


def positioning_mixture_proposal(
    source_assignments: np.ndarray,
    token_offset: np.ndarray,
    token_length: np.ndarray,
    prior_mass: float,
    num_topics: int,
    rng: np.random.Generator,
    alpha_alias: Optional[AliasTable] = None,
    table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Draw one mixture proposal per token: ``q(k) ∝ C_rk + E_rk + prior_k``.

    One uniform ``x = u · (L + E + prior mass)`` per token picks the
    component, and where ``x < L`` its integer part *is* the random position
    (uniform on ``0 .. L - 1`` up to a bias below ``L · 2**-53``).  Only the
    tokens that chose the table or the prior consume a second draw.

    Parameters
    ----------
    source_assignments:
        Flat assignment array the random-positioning component reads.  For
        WarpLDA-style delayed semantics pass the assignments *frozen at the
        start of the sweep*, so the proposal density is exactly the delayed
        ``C_rk + prior_k``; passing the live chain state gives LightLDA-style
        instant semantics instead.
    token_offset, token_length:
        Per-token row start and row length (see :func:`token_layout`);
        every ``token_length`` must be ``>= 1``.
    prior_mass:
        Total mass of the prior component: ``ᾱ`` for a document row,
        ``K · β`` for a word row.
    num_topics:
        ``K``; the prior component draws uniformly when ``alpha_alias`` is
        ``None`` (symmetric prior), from the alias table otherwise.
    table:
        Optional frozen third component ``(cdf, token_rows, token_mass)``:
        a :func:`repro.kernels.draws.prepare_table` CDF of a ``(V, K)``
        count table, each token's row in it and that row's total mass
        ``E_r`` (a row of zero mass is never selected).
    """
    reach = token_length
    if table is not None:
        cdf, token_rows, token_mass = table
        reach = token_length + token_mass
    target = rng.random(token_offset.size) * (reach + prior_mass)
    rest = np.flatnonzero(target >= token_length)
    positions = target.astype(np.int64)
    positions[rest] = 0  # not a position there; any in-row token will do
    drawn = source_assignments.take(token_offset + positions)
    if table is not None:
        from_table = target[rest] < reach[rest]
        tabled = rest[from_table]
        drawn[tabled] = table_categorical_draws(cdf, num_topics, token_rows[tabled], rng)
        rest = rest[~from_table]
    if alpha_alias is None:
        drawn[rest] = rng.integers(num_topics, size=rest.size)
    else:
        drawn[rest] = alpha_alias.draw_many(rest.size, rng)
    return drawn
