"""Immutable model snapshots: the unit of deployment for serving.

Training (the samplers in :mod:`repro.samplers` and :mod:`repro.core`) and
serving (:mod:`repro.serving.infer`, :mod:`repro.serving.server`) meet at a
single artefact: a :class:`ModelSnapshot` freezing the topic-word
distributions Φ, the Dirichlet hyper-parameters and the vocabulary at a point
in the training trajectory.  A snapshot is

* **immutable** — the arrays are marked read-only, so a server holding a
  snapshot can never be corrupted by a concurrently training sampler;
* **word-major** — Φ lives in one C-contiguous ``V x K`` buffer and
  :attr:`ModelSnapshot.phi` is its ``K x V`` transposed view, so a fold-in
  gathering the words of a document reads each word's ``K`` probabilities as
  one contiguous row (the paper's small-scope random access) instead of
  ``K`` cache lines ``8·V`` bytes apart.  Every sampler's ``phi()`` is
  already this transpose of a ``V x K`` count matrix, so a trained snapshot
  needs no relayout;
* **self-contained** — the vocabulary travels with Φ, so unseen documents can
  be encoded (with OOV handling) without access to the training corpus;
* **persistent** — :meth:`ModelSnapshot.save` writes a ``.npz`` with the
  numeric state plus a human-readable JSON sidecar with the vocabulary and
  hyper-parameters, and :meth:`ModelSnapshot.load` round-trips it bit-exactly.

Every trained sampler exposes ``export_snapshot()`` (see
:class:`repro.samplers.base.LDASampler` and :class:`repro.core.warplda.WarpLDA`),
so the serving layer is uniform across algorithms.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.evaluation.likelihood import check_priors

__all__ = ["ModelSnapshot"]

#: On-disk format version written to the JSON sidecar.
SNAPSHOT_FORMAT_VERSION = 1


def _sidecar_path(path: Path) -> Path:
    """The JSON sidecar written next to the ``.npz`` array file."""
    return path.with_suffix(path.suffix + ".json") if path.suffix != ".json" else path


class ModelSnapshot:
    """A frozen topic model: Φ, hyper-parameters and the vocabulary.

    Parameters
    ----------
    phi:
        The ``K x V`` topic-word distributions; every row must sum to one.
        Copied once into word-major order (``order="F"``), whatever the
        input's order.
    alpha:
        Scalar or length-``K`` document Dirichlet parameter.
    beta:
        Symmetric word Dirichlet parameter.
    vocabulary:
        The training vocabulary; ``V`` must equal ``vocabulary.size``.  The
        snapshot stores a frozen copy so later lookups can never grow it (a
        vocabulary that is frozen already cannot grow, and is kept as is).
    metadata:
        Optional JSON-compatible provenance (sampler name, iterations, ...).
    """

    __slots__ = ("_phi", "_alpha", "_beta", "_vocabulary", "_metadata")

    def __init__(
        self,
        phi: np.ndarray,
        alpha: Union[float, np.ndarray],
        beta: float,
        vocabulary: Vocabulary,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        phi = np.array(phi, dtype=np.float64, copy=True, order="F")
        if phi.ndim != 2:
            raise ValueError(f"phi must be a K x V matrix, got shape {phi.shape}")
        num_topics, vocab_size = phi.shape
        if vocab_size != vocabulary.size:
            raise ValueError(
                f"phi has {vocab_size} columns but the vocabulary has "
                f"{vocabulary.size} words"
            )
        if np.any(phi < 0):
            raise ValueError("phi entries must be non-negative")
        row_sums = phi.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise ValueError("phi rows must each sum to one")

        alpha_vector = check_priors(num_topics, alpha, beta)

        phi.flags.writeable = False
        alpha_vector.flags.writeable = False
        self._phi = phi
        self._alpha = alpha_vector
        self._beta = float(beta)
        self._vocabulary = vocabulary if vocabulary.frozen else vocabulary.frozen_copy()
        self._metadata = dict(metadata) if metadata else {}

    # ------------------------------------------------------------------ #
    # Read-only accessors
    # ------------------------------------------------------------------ #
    @property
    def phi(self) -> np.ndarray:
        """The frozen ``K x V`` topic-word distributions (read-only view).

        A transposed view of the word-major ``V x K`` buffer:
        ``phi.T`` is C-contiguous, so ``phi[:, words]`` reads whole rows.
        """
        return self._phi

    @property
    def alpha(self) -> np.ndarray:
        """The length-``K`` document Dirichlet parameter (read-only view)."""
        return self._alpha

    @property
    def alpha_sum(self) -> float:
        """``sum(alpha)``, the fold-in normaliser."""
        return float(self._alpha.sum())

    @property
    def beta(self) -> float:
        """The symmetric word Dirichlet parameter."""
        return self._beta

    @property
    def vocabulary(self) -> Vocabulary:
        """The frozen training vocabulary."""
        return self._vocabulary

    @property
    def metadata(self) -> Dict[str, Any]:
        """Provenance recorded at export time (a copy)."""
        return dict(self._metadata)

    @property
    def num_topics(self) -> int:
        """Number of topics ``K``."""
        return int(self._phi.shape[0])

    @property
    def vocabulary_size(self) -> int:
        """Number of words ``V``."""
        return int(self._phi.shape[1])

    # ------------------------------------------------------------------ #
    # Construction from trained models
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(cls, model: Any, extra_metadata: Optional[Dict[str, Any]] = None) -> "ModelSnapshot":
        """Freeze a trained :class:`~repro.samplers.base.Sampler`.

        Every sampler also exposes this as ``model.export_snapshot()``.
        """
        metadata = {
            "sampler": model.name,
            "iterations": int(model.iterations_completed),
            "num_documents": int(model.corpus.num_documents),
            "num_tokens": int(model.corpus.num_tokens),
        }
        if extra_metadata:
            metadata.update(extra_metadata)
        return cls(
            phi=model.phi(),
            alpha=model.alpha,
            beta=model.beta,
            vocabulary=model.corpus.vocabulary,
            metadata=metadata,
        )

    @classmethod
    def adopt(
        cls,
        phi: np.ndarray,
        alpha: np.ndarray,
        beta: float,
        vocabulary: Vocabulary,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "ModelSnapshot":
        """Wrap already-frozen arrays into a snapshot **without copying**.

        The constructor's defensive ``np.array(..., copy=True)`` is what makes
        ordinary snapshots safe to hand around, but it defeats shared-memory
        serving: a worker attaching the one phi copy in a
        ``multiprocessing.shared_memory`` segment must keep its θ math backed
        by that buffer, not a private duplicate.  ``adopt`` is that zero-copy
        path.  The caller vouches for the distributional invariants (the
        arrays come from a snapshot that already validated them); this method
        still enforces the *structural* contract so an adopted snapshot is
        indistinguishable from a constructed one:

        * ``phi`` is a read-only float64 ``K x V`` matrix whose ``phi.T`` is
          C-contiguous (word-major, see :attr:`phi`);
        * ``alpha`` is a read-only float64 length-``K`` vector;
        * ``beta`` is positive and ``V`` matches the vocabulary.
        """
        phi = np.asarray(phi)
        alpha = np.asarray(alpha)
        if phi.ndim != 2 or phi.dtype != np.float64:
            raise ValueError(
                f"adopt requires a float64 K x V phi, got {phi.dtype} {phi.shape}"
            )
        num_topics, vocab_size = phi.shape
        if alpha.shape != (num_topics,) or alpha.dtype != np.float64:
            raise ValueError(
                f"adopt requires a float64 length-{num_topics} alpha, got "
                f"{alpha.dtype} {alpha.shape}"
            )
        if phi.flags.writeable or alpha.flags.writeable:
            raise ValueError("adopt requires read-only arrays (writeable=False)")
        if not phi.T.flags.c_contiguous:
            raise ValueError(
                "adopt requires a word-major phi (phi.T C-contiguous), got a "
                "topic-major or strided K x V array"
            )
        if vocab_size != vocabulary.size:
            raise ValueError(
                f"phi has {vocab_size} columns but the vocabulary has "
                f"{vocabulary.size} words"
            )
        check_priors(num_topics, alpha, beta)
        snapshot = object.__new__(cls)
        snapshot._phi = phi
        snapshot._alpha = alpha
        snapshot._beta = float(beta)
        snapshot._vocabulary = vocabulary if vocabulary.frozen else vocabulary.frozen_copy()
        snapshot._metadata = dict(metadata) if metadata else {}
        return snapshot

    def with_metadata(self, **extra: Any) -> "ModelSnapshot":
        """Return a copy of this snapshot with extra provenance merged in.

        Snapshots are immutable, so provenance added after export — which
        checkpoint a resumed run came from, which deployment served it —
        always produces a new snapshot instead of mutating a served one.
        The copy shares this snapshot's read-only Φ, α and frozen vocabulary.
        """
        return ModelSnapshot.adopt(
            self._phi,
            self._alpha,
            self._beta,
            self._vocabulary,
            {**self._metadata, **extra},
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the snapshot to ``path`` (``.npz``) plus a JSON sidecar.

        Returns the array-file path actually written.  The sidecar lands next
        to it as ``<path>.json`` and holds everything non-numeric: format
        version, β, the vocabulary and the metadata.  Φ is written in its
        word-major memory order (``fortran_order`` in the ``.npy`` header),
        so :meth:`load` gets it back without a transposing copy.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz") if path.suffix else path.with_suffix(".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, phi=self._phi, alpha=self._alpha)
        sidecar = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "beta": self._beta,
            "num_topics": self.num_topics,
            "vocabulary": self._vocabulary.to_serializable(),
            "metadata": self._metadata,
        }
        _sidecar_path(path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True), encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz") if path.suffix else path.with_suffix(".npz")
        sidecar_file = _sidecar_path(path)
        if not path.exists():
            raise FileNotFoundError(f"snapshot array file not found: {path}")
        if not sidecar_file.exists():
            raise FileNotFoundError(f"snapshot sidecar not found: {sidecar_file}")
        sidecar = json.loads(sidecar_file.read_text(encoding="utf-8"))
        version = sidecar.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format version {version!r} "
                f"(expected {SNAPSHOT_FORMAT_VERSION})"
            )
        with np.load(path) as arrays:
            phi = arrays["phi"]
            alpha = arrays["alpha"]
        vocabulary = Vocabulary.from_serializable(sidecar["vocabulary"])
        return cls(
            phi=phi,
            alpha=alpha,
            beta=float(sidecar["beta"]),
            vocabulary=vocabulary,
            metadata=sidecar.get("metadata", {}),
        )

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelSnapshot):
            return NotImplemented
        return (
            np.array_equal(self._phi, other._phi)
            and np.array_equal(self._alpha, other._alpha)
            and self._beta == other._beta
            and self._vocabulary == other._vocabulary
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelSnapshot(K={self.num_topics}, V={self.vocabulary_size}, "
            f"beta={self._beta}, sampler={self._metadata.get('sampler')!r})"
        )
