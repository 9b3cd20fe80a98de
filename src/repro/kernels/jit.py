"""Optional Numba backend for the WarpLDA MH inner chains (``kernel="jit"``).

The slab path already batches the Eq. (7) accept/reject chain into whole-bucket
NumPy broadcasts, but each MH step still materialises several ``(R, L)``
temporaries for the ratio, the accept mask and the selects.  When ``numba`` is
importable, this module compiles the accept/reject steps to a single fused
``nogil`` loop — one pass over the chunk, fed the count terms the caller
gathers once — which the warp kernel swaps in per chunk.

Bit-exactness contract
----------------------
The compiled chain consumes the **same pre-drawn uniforms** as the NumPy
chain (drawn before dispatch, from the same per-task generator) and performs
the Eq. (7) ratio arithmetic with the same operand association, and the row
counts are phase-frozen during the chain — so iterating steps-per-cell is
exactly equivalent to the NumPy path's cells-per-step order and the results
are bit-identical to ``kernel="slab"``.  Because the counts are frozen, the
caller computes ``c[row, proposal] + prior`` for every step up front through
the same count lookup the NumPy chain reads
(:func:`repro.kernels.warp._slot_counts`), so the compiled loop has no
``(R, K)`` input and runs on the one chunk decomposition both tiers share.  The threading suite asserts the identity
with the loop interpreted (always) and compiled (whenever numba is present —
the ``jit-identity`` CI job installs it).

Everything degrades cleanly without numba: :func:`jit_available` returns
``False`` (also when ``REPRO_DISABLE_NUMBA`` is set — the CI fallback job),
and ``WarpLDA`` silently runs the chain on the NumPy path instead.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Any, Optional

__all__ = ["REPRO_DISABLE_NUMBA_ENV", "jit_available", "jit_mh_chain"]

#: Set (to anything but "" or "0") to force the NumPy fallback even when
#: numba is installed — how CI exercises the degraded path deterministically.
REPRO_DISABLE_NUMBA_ENV = "REPRO_DISABLE_NUMBA"


def _mh_chain(
    current, proposed, mask, term_current, term_proposed, stale, beta_sum, uniforms
):
    """Eq. (7) accept/reject over one chunk; ``current`` is modified in place.

    ``proposed`` and ``term_proposed`` are ``(M, R, L)``: the step's proposal
    of every cell and ``C_r + prior`` at it (the row's delayed count plus β
    or ``α[topic]``), computed by the caller
    (:func:`repro.kernels.warp._run_chain`); ``term_current`` is the same
    term at the incoming assignment.  Counts are frozen for the chain, so the
    term at the current topic is always the one that came with the proposal
    last accepted — no count table is read here.  ``uniforms`` has shape
    ``(M, R, L)`` and was drawn by the caller so the RNG stream matches the
    NumPy chain exactly.

    Plain Python on purpose: numba compiles this very function, and the
    tests run it interpreted, so the loop is exercised with or without numba.
    """
    num_steps = uniforms.shape[0]
    num_rows, slab_len = current.shape
    accepted = 0
    for row in range(num_rows):
        for col in range(slab_len):
            if not mask[row, col]:
                continue
            cur = current[row, col]
            term_cur = term_current[row, col]
            for step in range(num_steps):
                prop = proposed[step, row, col]
                term_prop = term_proposed[step, row, col]
                ratio = (term_prop * (stale[cur] + beta_sum)) / (
                    term_cur * (stale[prop] + beta_sum)
                )
                if uniforms[step, row, col] < ratio:
                    cur = prop
                    term_cur = term_prop
                    accepted += 1
            current[row, col] = cur
    return accepted


@lru_cache(maxsize=None)
def _load_chain(disabled: bool) -> Optional[Any]:
    """Import numba and compile the chain once; ``None`` when unavailable."""
    if disabled:
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba.njit(nogil=True, cache=False)(_mh_chain)


def _disabled() -> bool:
    return os.environ.get(REPRO_DISABLE_NUMBA_ENV, "").strip() not in ("", "0")


def jit_available() -> bool:
    """True when the compiled chain can run (numba importable, not disabled)."""
    return _load_chain(_disabled()) is not None


def jit_mh_chain() -> Optional[Any]:
    """The compiled chain function, or ``None`` when unavailable."""
    return _load_chain(_disabled())
