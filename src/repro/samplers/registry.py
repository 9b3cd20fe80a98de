"""The canonical algorithm registry: CLI/spec names → sampler objects.

This is the single place a spelling like ``"warplda"`` is resolved to a
class, and — through :func:`build_sampler` — the single place a run
description (a ``ModelSpec``, the ``ParallelTrainer`` / ``OnlineTrainer``
keywords) is turned into a sampler: the serial backend, every data-parallel
shard and every online window sweep construct through it, so the kernel
degradation rule and the "which algorithm takes which knob" rule exist once.

It lives in :mod:`repro.samplers` (not :mod:`repro.training`, its
historical home) so that the declarative API layer (:mod:`repro.api`) can
enumerate and validate algorithm names without importing the training
stack — and, through it, :mod:`multiprocessing` — at import time.
:data:`repro.training.parallel.SAMPLER_REGISTRY` re-exports this mapping
unchanged for existing callers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.warplda import WarpLDA
from repro.corpus.corpus import Corpus
from repro.samplers.aliaslda import AliasLDASampler
from repro.samplers.base import (
    resolve_kernel,
    validate_hyperparameters,
    validate_sampler_options,
)
from repro.samplers.cgs import CollapsedGibbsSampler
from repro.samplers.fpluslda import FPlusLDASampler
from repro.samplers.lightlda import LightLDASampler
from repro.samplers.sparselda import SparseLDASampler
from repro.sampling.rng import RngLike

__all__ = ["SAMPLER_REGISTRY", "build_sampler", "validate_trainer_sampler"]

#: Samplers addressable by name.  Keys are the CLI / ``ModelSpec`` spellings.
SAMPLER_REGISTRY = {
    "warplda": WarpLDA,
    "cgs": CollapsedGibbsSampler,
    "sparselda": SparseLDASampler,
    "aliaslda": AliasLDASampler,
    "fpluslda": FPlusLDASampler,
    "lightlda": LightLDASampler,
}


def _sampler_class(algorithm: str) -> type:
    try:
        return SAMPLER_REGISTRY[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown sampler {algorithm!r}; choose from {sorted(SAMPLER_REGISTRY)}"
        ) from None


def validate_trainer_sampler(
    algorithm: str,
    *,
    num_topics: int,
    alpha: Optional[float],
    beta: float,
    num_mh_steps: int,
    kernel: str,
    threads: Optional[int],
) -> None:
    """Raise ``ValueError`` for sampler keywords a trainer cannot run.

    ``ParallelTrainer`` and ``OnlineTrainer`` check up front what their
    workers and window sweeps build later.  ``alpha`` must be a scalar: the
    trainers record it as JSON, where a length-K vector would crash the save.
    """
    _sampler_class(algorithm)
    if alpha is not None and not isinstance(alpha, (int, float)):
        raise ValueError(
            f"alpha must be a scalar or None, got {type(alpha).__name__}"
        )
    validate_hyperparameters(num_topics, alpha, beta)
    validate_sampler_options(num_mh_steps=num_mh_steps, kernel=kernel, threads=threads)


def build_sampler(
    algorithm: str,
    corpus: Corpus,
    *,
    num_topics: int,
    alpha: Optional[Union[float, np.ndarray]] = None,
    beta: float = 0.01,
    num_mh_steps: int = 2,
    kernel: str = "slab",
    threads: Optional[int] = None,
    seed: RngLike = None,
) -> Any:
    """Construct the sampler ``algorithm`` names over ``corpus``.

    ``kernel`` is the *requested* path: a sampler that lacks it runs the
    best one it has (:func:`~repro.samplers.base.resolve_kernel`).
    ``num_mh_steps`` is the paper's ``M`` and reaches the two samplers it
    is defined for (WarpLDA, LightLDA).  The other samplers ignore it —
    AliasLDA's own inner MH count keeps its default under every backend, as
    it always has.  Validation is the constructors' own.
    """
    sampler_cls = _sampler_class(algorithm)
    kwargs: Dict[str, Any] = {
        "num_topics": num_topics,
        "alpha": alpha,
        "beta": beta,
        "kernel": resolve_kernel(sampler_cls, kernel),
        "threads": threads,
        "seed": seed,
    }
    if sampler_cls in (WarpLDA, LightLDASampler):
        kwargs["num_mh_steps"] = num_mh_steps
    return sampler_cls(corpus, **kwargs)
