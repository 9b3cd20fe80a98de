"""The declarative model description: :class:`ModelSpec`.

A :class:`ModelSpec` is the single source of truth for *what* model to train
and *how* to execute it: the algorithm (any key of
:data:`repro.samplers.registry.SAMPLER_REGISTRY`), the execution kernel, the
Dirichlet hyper-parameters, the execution backend (``serial``, ``parallel``
or ``online``) with its backend-specific options (:data:`BACKEND_OPTIONS`),
and the seed.  It validates once, at construction — through the same
:func:`repro.samplers.base.validate_hyperparameters` /
:func:`~repro.samplers.base.validate_sampler_options` pair every sampler
constructor and trainer uses, and through the target trainer's own
``validate_schedule`` for its backend options — so a spec that constructs
is a spec that runs.  :func:`repro.api.estimator.build_engine` then passes
its values, as keywords, to :func:`repro.samplers.registry.build_sampler`
(serial), :class:`~repro.training.parallel.ParallelTrainer` (parallel) or
:class:`~repro.streaming.online.OnlineTrainer` (online).

Specs are JSON-stable: ``to_dict``/``from_dict`` round-trip exactly,
``from_dict`` rejects unknown keys, and ``save``/``load`` move them through
spec files.  :meth:`repro.api.LDA.save` embeds the spec dict in the snapshot
metadata under :data:`SPEC_METADATA_KEY`, so any saved model reloads as a
ready :class:`~repro.api.LDA`.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.samplers.base import (
    read_kernel,
    validate_hyperparameters,
    validate_positive_int,
    validate_sampler_options,
)
from repro.samplers.registry import SAMPLER_REGISTRY

__all__ = [
    "ModelSpec",
    "ALGORITHMS",
    "BACKEND_NAMES",
    "BACKEND_OPTIONS",
    "SPEC_METADATA_KEY",
]

#: Algorithms a spec may name (the registry's CLI spellings).
ALGORITHMS = tuple(sorted(SAMPLER_REGISTRY))

#: The keys each execution backend accepts in ``ModelSpec.backend_options``.
#: ``publish_every`` and ``batch_docs`` shape the facade's streaming pipeline
#: and corpus replay; every other key is a keyword of the backend's trainer.
BACKEND_OPTIONS: Dict[str, frozenset] = {
    "serial": frozenset(),
    "parallel": frozenset({"num_workers", "iterations_per_epoch", "backend"}),
    "online": frozenset(
        {"window_docs", "sweeps_per_batch", "decay", "publish_every", "batch_docs"}
    ),
}

#: Execution backends a spec may name.
BACKEND_NAMES = tuple(sorted(BACKEND_OPTIONS))

#: Key under which :meth:`repro.api.LDA.save` embeds the spec dict in
#: :class:`~repro.serving.snapshot.ModelSnapshot` metadata.
SPEC_METADATA_KEY = "model_spec"


@dataclass(frozen=True)
class ModelSpec:
    """One declarative description of an LDA model and its execution.

    Attributes
    ----------
    num_topics:
        Number of topics ``K``.
    algorithm:
        Sampler name, one of :data:`ALGORITHMS`
        (``warplda``, ``cgs``, ``sparselda``, ``aliaslda``, ``fpluslda``,
        ``lightlda``).
    alpha:
        Document Dirichlet parameter: a positive scalar, a length-``K``
        sequence (serial backend only), or ``None`` for the paper's 50/K.
    beta:
        Symmetric word Dirichlet parameter.
    num_mh_steps:
        MH proposals per token per phase (WarpLDA / LightLDA only; ignored
        by the exact samplers, like the constructors it is passed to).
    kernel:
        ``"slab"`` (vectorised kernels) or ``"scalar"`` (legacy loops).
    threads:
        Worker threads for the slab kernels' bucket dispatch: a positive
        int, or ``None`` for 1.  Thread count never changes results — the
        sampled trajectory is bit-identical for every value.
    backend:
        Execution backend: ``"serial"`` (one in-process sampler),
        ``"parallel"`` (:class:`~repro.training.parallel.ParallelTrainer`)
        or ``"online"`` (:class:`~repro.streaming.online.OnlineTrainer`
        behind a :class:`~repro.streaming.pipeline.StreamingPipeline`).
    backend_options:
        Backend-specific knobs; unknown keys are rejected.
        ``parallel``: ``num_workers``, ``iterations_per_epoch``,
        ``backend`` (``"process"``/``"inline"``).
        ``online``: ``window_docs``, ``sweeps_per_batch``, ``decay``,
        ``publish_every``, ``batch_docs``.
    seed:
        Integer seed controlling the full trajectory; ``None`` draws OS
        entropy (and forfeits reproducibility).
    telemetry:
        Optional path for the :mod:`repro.obs` JSONL trace.  When set,
        :class:`repro.api.LDA` activates a telemetry session around every
        ``fit``/``partial_fit`` and writes the metrics digest next to the
        trace (``out.jsonl`` → ``out.metrics.json``) on close.  ``None``
        (the default) keeps the zero-overhead no-op telemetry.  Telemetry
        never affects the sampled trajectory — instrumented and plain runs
        are bit-identical.
    """

    num_topics: int = 20
    algorithm: str = "warplda"
    alpha: Optional[Union[float, Sequence[float]]] = None
    beta: float = 0.01
    num_mh_steps: int = 2
    kernel: str = "slab"
    threads: Optional[int] = None
    backend: str = "serial"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in SAMPLER_REGISTRY:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        # Normalise alpha to a JSON-stable form up front: any array-like
        # (list, tuple, numpy vector) becomes a list of floats, numpy
        # scalars become plain floats — to_json/save must never crash on a
        # spec that validated.
        alpha = self.alpha
        if alpha is not None and not isinstance(alpha, (int, float)):
            try:
                alpha = [float(a) for a in alpha]
            except TypeError:  # 0-d array / numpy scalar
                alpha = float(alpha)
            object.__setattr__(self, "alpha", alpha)
        validate_hyperparameters(self.num_topics, alpha, self.beta)
        validate_sampler_options(
            num_mh_steps=self.num_mh_steps,
            kernel=self.kernel,
            threads=self.threads,
        )
        if self.threads is not None:
            # numpy integers become plain ints so the spec stays JSON-stable.
            object.__setattr__(self, "threads", int(self.threads))
        allowed = BACKEND_OPTIONS.get(self.backend)
        if allowed is None:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKEND_NAMES}"
            )
        options = dict(self.backend_options or {})
        unknown = set(options) - allowed
        if unknown:
            raise ValueError(
                f"unknown {self.backend!r} backend options {sorted(unknown)}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
        object.__setattr__(self, "backend_options", options)
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(
                self.seed, numbers.Integral
            ):
                raise ValueError(
                    f"seed must be an int or None, got {self.seed!r}"
                )
            # numpy integers (seed sweeps over np.arange) become plain ints
            # so the spec stays JSON-stable.
            object.__setattr__(self, "seed", int(self.seed))
        if self.telemetry is not None:
            # Accept Path objects but store the JSON-stable string form.
            if not isinstance(self.telemetry, (str, Path)):
                raise ValueError(
                    f"telemetry must be a path or None, got {self.telemetry!r}"
                )
            object.__setattr__(self, "telemetry", str(self.telemetry))
        if self.backend != "serial":
            self._validate_trainer_backend(options)

    def _validate_trainer_backend(self, options: Dict[str, Any]) -> None:
        """What the parallel and online trainers add to a spec's checks.

        The trainer modules are imported here so that ``import repro.api``
        stays free of ``multiprocessing`` and the streaming stack.
        """
        if isinstance(self.alpha, list):
            raise ValueError(
                f"the {self.backend!r} backend supports only a scalar (or default) "
                "alpha; a length-K alpha vector requires backend='serial'"
            )
        if self.backend == "parallel":
            from repro.training.parallel import validate_schedule

            validate_schedule(**options)
            return
        from repro.streaming.online import validate_schedule as validate_online

        pipeline = ("publish_every", "batch_docs")
        for key in pipeline:
            if key in options:
                validate_positive_int(key, options[key])
        validate_online(**{k: v for k, v in options.items() if k not in pipeline})

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (a copy, in field order); inverse of
        :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelSpec":
        """Build a spec from a (possibly partial) dict; unknown keys raise.

        Missing keys take the dataclass defaults, so a spec file only needs
        to name what it overrides.  A retired kernel name reads as its
        successor (:func:`repro.samplers.base.read_kernel`), and the retired
        ``word_proposal`` key (``"mixture"`` or ``"alias"``) is dropped
        whatever its value: WarpLDA has one word proposal, the mixture.
        """
        values = {key: value for key, value in data.items() if key != "word_proposal"}
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(
                f"unknown ModelSpec keys {sorted(unknown)}; known keys: "
                f"{sorted(known)}"
            )
        if "kernel" in values:
            values["kernel"] = read_kernel(values["kernel"])
        return cls(**values)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a ModelSpec document must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON file; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelSpec":
        """Read a spec written by :meth:`save` (or by hand)."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    def with_options(self, **overrides: Any) -> "ModelSpec":
        """A copy with top-level fields replaced (re-validated)."""
        return replace(self, **overrides)

    def with_backend(self, backend: str, **options: Any) -> "ModelSpec":
        """A copy targeting another backend with fresh backend options."""
        return replace(self, backend=backend, backend_options=options)
