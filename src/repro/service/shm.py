"""Shared-memory snapshot lifecycle: one phi copy, N worker processes.

The serving tier's whole memory story lives in this module.  A published
:class:`~repro.serving.snapshot.ModelSnapshot` is materialised **once** into a
``multiprocessing.shared_memory`` segment by :meth:`SharedSnapshot.create`;
every worker process then maps the same segment read-only through
:func:`attach` and serves θ inference against zero-copy NumPy views of it
(via :meth:`ModelSnapshot.adopt`).  Between hot swaps phi is strictly
read-only — the segment is filled before any worker sees its name and never
written again — so N workers cost one phi, not N.

The segment keeps the snapshot's word-major layout: a C-order ``V x K`` Φ
block (row ``w`` is word ``w``'s ``K`` topic probabilities) followed by α,
and a worker adopts the block's ``K x V`` transposed view.  A fold-in gathers
the words of a document, so each gathered word is one contiguous row; a
topic-major segment would turn every gathered word into ``K`` cache lines
``8·V`` bytes apart.

**Invariant SVC001** (enforced by ``repro.analysis``, see
``docs/invariants.md``): ``SharedMemory`` segments may only be created or
unlinked here.  Shared memory outlives the process that created it — a
segment created ad hoc in some other module and leaked on a crash stays
leaked until reboot.  Routing every create/unlink through this module keeps
the accounting in one place: :func:`created_segments` lists every live
segment this process owns, and :meth:`SharedSnapshot.unlink` is the single
release path.

Attaching has a CPython footgun this module hides: on 3.10–3.12 every
``SharedMemory(name=...)`` attach auto-registers the segment with the
``resource_tracker``, which then *unlinks it at interpreter exit* — the first
worker to die would tear the model out from under its siblings.  3.13 added
``track=False`` for exactly this; on older interpreters we unregister the
attachment manually.  Only the creating process tracks (and unlinks) a
segment.
"""

from __future__ import annotations

import gc
import inspect
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "AttachedSnapshot",
    "SharedSnapshot",
    "attach",
    "created_segments",
]

_FLOAT = np.dtype(np.float64)

#: Whether this interpreter's SharedMemory supports ``track=`` (3.13+).
_HAS_TRACK_KWARG = "track" in inspect.signature(SharedMemory.__init__).parameters

#: Live segments created (and therefore owned) by this process, by name.
#: :meth:`SharedSnapshot.unlink` removes entries; anything left here at
#: shutdown is a leak the owner forgot to release.
_CREATED: Dict[str, "SharedSnapshot"] = {}


def created_segments() -> List[str]:
    """Names of the shared-memory segments this process currently owns."""
    return sorted(_CREATED)


def _attach_segment(name: str) -> SharedMemory:
    """Attach to an existing segment without adopting unlink responsibility.

    Pre-3.13 interpreters lack ``track=False`` and auto-register every attach
    with the resource tracker.  Unregistering *after* the fact is the popular
    workaround but is wrong here: the fork family shares one tracker process,
    so an attacher's unregister would erase the **creator's** crash-cleanup
    registration too.  Suppressing registration for the duration of the
    attach call leaves the creator's entry untouched.
    """
    if _HAS_TRACK_KWARG:
        return SharedMemory(name=name, create=False, track=False)
    original_register = resource_tracker.register
    try:
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        return SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original_register  # type: ignore[assignment]


def _phi_nbytes(num_topics: int, vocab_size: int) -> int:
    return num_topics * vocab_size * _FLOAT.itemsize


class AttachedSnapshot:
    """A worker-side, zero-copy view of a :class:`SharedSnapshot` segment.

    Holds the attachment open for as long as the adopted
    :class:`ModelSnapshot` is in use; :meth:`close` drops the NumPy views and
    unmaps the segment (never unlinking — that is the owner's job).
    """

    def __init__(self, descriptor: Dict[str, Any]) -> None:
        self._descriptor = dict(descriptor)
        self._segment: Optional[SharedMemory] = _attach_segment(descriptor["segment"])
        num_topics = int(descriptor["num_topics"])
        vocab_size = int(descriptor["vocabulary_size"])
        word_major = np.ndarray(
            (vocab_size, num_topics), dtype=_FLOAT, buffer=self._segment.buf
        )
        alpha = np.ndarray(
            (num_topics,),
            dtype=_FLOAT,
            buffer=self._segment.buf,
            offset=_phi_nbytes(num_topics, vocab_size),
        )
        word_major.flags.writeable = False
        alpha.flags.writeable = False
        phi = word_major.T
        self.phi_view = phi
        vocabulary = Vocabulary.from_serializable(descriptor["vocabulary"]).freeze()
        self._snapshot: Optional[ModelSnapshot] = ModelSnapshot.adopt(
            phi,
            alpha,
            beta=float(descriptor["beta"]),
            vocabulary=vocabulary,
            metadata=descriptor.get("metadata"),
        )

    @property
    def snapshot(self) -> ModelSnapshot:
        """The adopted snapshot; its phi IS the shared buffer (no copy)."""
        if self._snapshot is None:
            raise RuntimeError("AttachedSnapshot is closed")
        return self._snapshot

    @property
    def segment_name(self) -> str:
        return str(self._descriptor["segment"])

    @property
    def version(self) -> int:
        return int(self._descriptor["version"])

    def close(self) -> None:
        """Drop the views and unmap the segment (idempotent, never unlinks).

        The mmap cannot close while NumPy still exports its buffer, so the
        caller must have released every engine/server built over
        :attr:`snapshot` first; a stubborn lingering export downgrades to a
        no-op unmap (the map is reclaimed at process exit anyway) rather
        than raising into the swap path.
        """
        if self._segment is None:
            return
        self._snapshot = None
        self.phi_view = None  # type: ignore[assignment]
        gc.collect()
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - exports still alive
            pass
        self._segment = None


class SharedSnapshot:
    """Owner-side handle on one snapshot generation in shared memory."""

    def __init__(self, segment: SharedMemory, descriptor: Dict[str, Any]) -> None:
        self._segment: Optional[SharedMemory] = segment
        self._descriptor = descriptor

    @classmethod
    def create(cls, snapshot: ModelSnapshot, version: int = 0) -> "SharedSnapshot":
        """Materialise ``snapshot`` into a fresh shared segment (the ONE copy).

        The segment holds Φ word-major — a C-order ``V x K`` block, the
        snapshot's own layout, so the fill is a straight copy — followed by
        the length-``K`` α.
        """
        num_topics = snapshot.num_topics
        vocab_size = snapshot.vocabulary_size
        nbytes = _phi_nbytes(num_topics, vocab_size) + num_topics * _FLOAT.itemsize
        segment = SharedMemory(create=True, size=nbytes)
        word_major = np.ndarray(
            (vocab_size, num_topics), dtype=_FLOAT, buffer=segment.buf
        )
        word_major[:] = snapshot.phi.T
        alpha = np.ndarray(
            (num_topics,),
            dtype=_FLOAT,
            buffer=segment.buf,
            offset=_phi_nbytes(num_topics, vocab_size),
        )
        alpha[:] = snapshot.alpha
        del word_major, alpha
        descriptor: Dict[str, Any] = {
            "segment": segment.name,
            "version": int(version),
            "num_topics": num_topics,
            "vocabulary_size": vocab_size,
            "beta": snapshot.beta,
            "vocabulary": snapshot.vocabulary.to_serializable(),
            "metadata": snapshot.metadata,
        }
        shared = cls(segment, descriptor)
        _CREATED[segment.name] = shared
        return shared

    def descriptor(self) -> Dict[str, Any]:
        """The JSON/pickle-safe attachment recipe handed to workers."""
        return dict(self._descriptor)

    @property
    def segment_name(self) -> str:
        return str(self._descriptor["segment"])

    @property
    def version(self) -> int:
        return int(self._descriptor["version"])

    @property
    def nbytes(self) -> int:
        return 0 if self._segment is None else self._segment.size

    def unlink(self) -> None:
        """Release the segment system-wide (idempotent).

        Safe while workers are still mapped: POSIX shared memory is
        reference-counted, so the pages survive until the last attachment
        closes — unlink only removes the *name*, preventing new attaches and
        guaranteeing eventual reclamation.
        """
        if self._segment is None:
            return
        name = self._segment.name
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - owner kept a view alive
            pass
        self._segment.unlink()
        self._segment = None
        _CREATED.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedSnapshot(segment={self.segment_name!r}, "
            f"version={self.version}, nbytes={self.nbytes})"
        )


def attach(descriptor: Dict[str, Any]) -> AttachedSnapshot:
    """Attach to a segment created by :meth:`SharedSnapshot.create`."""
    return AttachedSnapshot(descriptor)
