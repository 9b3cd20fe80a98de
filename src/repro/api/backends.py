"""Backend registry: lowering a :class:`~repro.api.spec.ModelSpec` to engines.

Each execution backend knows two things about a spec:

* :meth:`Backend.lower` — translate it into what the targeted layer is
  configured with: the keyword set of
  :func:`repro.samplers.registry.build_sampler` for ``serial`` (a sampler
  has no config object), :class:`~repro.training.parallel.TrainerConfig`
  for ``parallel``, :class:`~repro.streaming.online.OnlineTrainerConfig`
  for ``online`` — the two views of a spec that add scheduling fields and
  validate through the same :mod:`repro.samplers.base` functions it does;
* :meth:`Backend.build` — construct the engine the facade drives
  (a sampler, a :class:`~repro.training.parallel.ParallelTrainer`, an
  :class:`~repro.streaming.online.OnlineTrainer`).

Every sampler — the serial one here, each parallel shard's, each online
window sweep's — comes out of ``build_sampler`` with the spec's seed passed
verbatim, so a facade-built engine is bit-identical to one constructed
directly from the same values and seed — the equivalence the test suite
checks seed-for-seed.

Heavy layers are imported inside the methods: ``parallel`` pulls in
``multiprocessing`` and ``online`` the streaming stack only when a spec
actually targets them, keeping ``import repro`` (and serial-only work)
light.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # spec.py imports this module; break the cycle
    from repro.api.spec import ModelSpec

__all__ = [
    "Backend",
    "BACKEND_REGISTRY",
    "OnlineBackend",
    "ParallelBackend",
    "SerialBackend",
    "get_backend",
    "register_backend",
]


class Backend(abc.ABC):
    """One execution strategy a :class:`~repro.api.spec.ModelSpec` can target."""

    #: Registry key (the spec's ``backend`` spelling).
    name: str = ""
    #: Keys this backend accepts in ``ModelSpec.backend_options``.
    option_keys: frozenset = frozenset()

    def validate(self, spec: "ModelSpec") -> None:
        """Raise ``ValueError`` for specs this backend cannot execute.

        The default check is "it lowers": constructing the target config
        runs its own ``__post_init__`` validation, so a spec that builds is
        a spec that runs.
        """
        self.lower(spec)

    @abc.abstractmethod
    def lower(self, spec: "ModelSpec") -> Any:
        """Translate ``spec`` into this backend's native configuration."""

    @abc.abstractmethod
    def build(self, spec: "ModelSpec", corpus: Optional[Any] = None) -> Any:
        """Construct the engine for ``spec`` (seeded from ``spec.seed``)."""


def _require_scalar_alpha(spec: "ModelSpec", backend: str) -> None:
    if isinstance(spec.alpha, list):
        raise ValueError(
            f"the {backend!r} backend supports only a scalar (or default) "
            f"alpha; a length-K alpha vector requires backend='serial'"
        )


def _require_default_word_proposal(spec: "ModelSpec", backend: str) -> None:
    # TrainerConfig/OnlineTrainerConfig carry no word_proposal knob, so a
    # non-default setting would be silently dropped while the snapshot
    # metadata still records it — reject instead of lying about provenance.
    if spec.word_proposal != "mixture":
        raise ValueError(
            f"word_proposal={spec.word_proposal!r} is only honoured by "
            f"backend='serial'; the {backend!r} backend always uses the "
            f"mixture proposal"
        )


class SerialBackend(Backend):
    """One in-process sampler: ``WarpLDA`` or an ``LDASampler`` baseline."""

    name = "serial"

    def lower(self, spec: "ModelSpec") -> Dict[str, Any]:
        return {
            "algorithm": spec.algorithm,
            "num_topics": spec.num_topics,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "num_mh_steps": spec.num_mh_steps,
            "kernel": spec.kernel,
            "threads": spec.threads,
            "word_proposal": spec.word_proposal,
            "seed": spec.seed,
        }

    def build(self, spec: "ModelSpec", corpus: Optional[Any] = None) -> Any:
        if corpus is None:
            raise ValueError("the serial backend needs a corpus to build on")
        from repro.samplers.registry import build_sampler

        return build_sampler(corpus=corpus, **self.lower(spec))


class ParallelBackend(Backend):
    """Data-parallel epochs on a :class:`~repro.training.parallel.ParallelTrainer`."""

    name = "parallel"
    option_keys = frozenset({"num_workers", "iterations_per_epoch", "backend"})

    def validate(self, spec: "ModelSpec") -> None:
        _require_scalar_alpha(spec, self.name)
        _require_default_word_proposal(spec, self.name)
        options = spec.backend_options
        if "num_workers" in options and int(options["num_workers"]) <= 0:
            raise ValueError(
                f"num_workers must be positive, got {options['num_workers']}"
            )
        if "backend" in options and options["backend"] not in ("process", "inline"):
            raise ValueError(
                f"parallel backend option 'backend' must be 'process' or "
                f"'inline', got {options['backend']!r}"
            )
        super().validate(spec)

    def lower(self, spec: "ModelSpec") -> Any:
        from repro.training.parallel import TrainerConfig

        options = spec.backend_options
        return TrainerConfig(
            sampler=spec.algorithm,
            num_topics=spec.num_topics,
            alpha=spec.alpha,
            beta=spec.beta,
            num_mh_steps=spec.num_mh_steps,
            iterations_per_epoch=options.get("iterations_per_epoch", 1),
            kernel=spec.kernel,
            threads=spec.threads,
        )

    def build(self, spec: "ModelSpec", corpus: Optional[Any] = None) -> Any:
        if corpus is None:
            raise ValueError("the parallel backend needs a corpus to build on")
        from repro.training.parallel import ParallelTrainer

        options = spec.backend_options
        return ParallelTrainer.from_config(
            corpus,
            self.lower(spec),
            num_workers=options.get("num_workers", 2),
            seed=spec.seed,
            backend=options.get("backend", "process"),
        )


class OnlineBackend(Backend):
    """Streaming updates on an :class:`~repro.streaming.online.OnlineTrainer`.

    ``publish_every`` and ``batch_docs`` are pipeline-level options consumed
    by the facade (they shape the :class:`~repro.streaming.pipeline
    .StreamingPipeline` and ingestion batching, not the trainer config).
    """

    name = "online"
    option_keys = frozenset(
        {"window_docs", "sweeps_per_batch", "decay", "publish_every", "batch_docs"}
    )

    def validate(self, spec: "ModelSpec") -> None:
        _require_scalar_alpha(spec, self.name)
        _require_default_word_proposal(spec, self.name)
        options = spec.backend_options
        for key in ("publish_every", "batch_docs"):
            if key in options and int(options[key]) <= 0:
                raise ValueError(f"{key} must be positive, got {options[key]}")
        super().validate(spec)

    def lower(self, spec: "ModelSpec") -> Any:
        from repro.streaming.online import OnlineTrainerConfig

        options = spec.backend_options
        return OnlineTrainerConfig(
            num_topics=spec.num_topics,
            alpha=spec.alpha,
            beta=spec.beta,
            sampler=spec.algorithm,
            kernel=spec.kernel,
            threads=spec.threads,
            window_docs=options.get("window_docs", 1024),
            sweeps_per_batch=options.get("sweeps_per_batch", 2),
            decay=options.get("decay", 1.0),
            num_mh_steps=spec.num_mh_steps,
        )

    def build(self, spec: "ModelSpec", corpus: Optional[Any] = None) -> Any:
        from repro.streaming.online import OnlineTrainer

        return OnlineTrainer.from_config(self.lower(spec), seed=spec.seed)


#: Execution backends by name.  Extendable through :func:`register_backend`.
BACKEND_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Install ``backend`` under its :attr:`~Backend.name`; returns it."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    BACKEND_REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return BACKEND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(BACKEND_REGISTRY)}"
        ) from None


register_backend(SerialBackend())
register_backend(ParallelBackend())
register_backend(OnlineBackend())
