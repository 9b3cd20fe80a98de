"""Optional Numba backend for the WarpLDA MH inner chains (``kernel="jit"``).

The slab path already batches the Eq. (7) accept/reject chain into flat
whole-chunk NumPy operations, but each MH step still materialises several
per-token temporaries for the product, the accept flags and the selects.
When ``numba`` is importable, this module compiles the accept/reject steps to
a single fused ``nogil`` loop — one pass over the chunk's real tokens, fed the
target terms the caller gathers once — which the warp kernel swaps in per
chunk.

Bit-exactness contract
----------------------
The compiled chain consumes the **same pre-drawn uniforms** as the NumPy
chain (drawn before dispatch, from the same per-task generator) and evaluates
the same test ``u · f(cur) < f(prop)`` on the same operands, and the row
counts are phase-frozen during the chain — so iterating steps-per-token is
exactly equivalent to the NumPy path's tokens-per-step order and the results
are bit-identical to ``kernel="slab"``.  Because the counts are frozen, the
caller computes ``f`` at every step's proposal up front through the same
lookup the NumPy chain reads (:func:`repro.kernels.warp._slot_counts`), so
the compiled loop has no ``(R, K)`` input and runs on the one chunk
decomposition both tiers share.  The threading suite asserts the identity
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


def _mh_chain(current, proposed, f_current, f_proposed, uniforms):
    """Eq. (7) accept/reject over one chunk; ``current`` is modified in place.

    Everything is per real token of the chunk: ``current`` and ``f_current``
    are ``(n,)``, ``proposed``, ``f_proposed`` and ``uniforms`` are ``(M, n)``.
    ``f`` is the target term ``(C_r + prior) / (C + β̄)`` of a topic, computed
    by the caller (:func:`repro.kernels.warp._run_chain`).  Counts are frozen
    for the chain, so ``f`` at the current topic is always the one that came
    with the proposal last accepted — no count table is read here.  The
    uniforms were drawn by the caller so the RNG stream matches the NumPy
    chain exactly.

    Plain Python on purpose: numba compiles this very function, and the
    tests run it interpreted, so the loop is exercised with or without numba.
    """
    num_steps = uniforms.shape[0]
    accepted = 0
    for token in range(current.shape[0]):
        cur = current[token]
        f_cur = f_current[token]
        for step in range(num_steps):
            if uniforms[step, token] * f_cur < f_proposed[step, token]:
                cur = proposed[step, token]
                f_cur = f_proposed[step, token]
                accepted += 1
        current[token] = cur
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
