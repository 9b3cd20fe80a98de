"""Random-number-generator helpers.

Every stochastic component in the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None`` and normalises it through
:func:`ensure_rng`.  This keeps experiments reproducible end to end: a single
integer seed passed to a sampler fully determines its trajectory.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` or
        :class:`numpy.random.SeedSequence` to seed a new generator, or an
        existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Used by :class:`~repro.training.ParallelTrainer` so that every worker has
    its own stream while the whole run stays reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a sequence from the generator state deterministically.
        sequence = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def export_rng_state(rng: np.random.Generator) -> dict:
    """Freeze a generator's full state into a JSON-compatible dict.

    Together with :func:`restore_rng_state` this is what makes training
    checkpoints bit-exact: a resumed run continues the exact random stream the
    interrupted run would have produced.
    """
    state = rng.bit_generator.state
    return {"bit_generator": state["bit_generator"], "state": dict(state)}


def restore_rng_state(state: dict) -> np.random.Generator:
    """Rebuild a generator from :func:`export_rng_state` output."""
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None or not isinstance(bit_generator_cls, type):
        raise ValueError(f"unknown bit generator {name!r}")
    bit_generator = bit_generator_cls()
    bit_generator.state = state["state"]
    return np.random.Generator(bit_generator)
