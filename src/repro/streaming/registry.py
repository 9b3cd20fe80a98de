"""A versioned registry of model snapshots with atomic swap and rollback.

:class:`ModelRegistry` is the hand-off point between online training and
serving: the trainer *publishes* immutable
:class:`~repro.serving.snapshot.ModelSnapshot`\\ s, each assigned a
monotonically increasing version, and servers *follow* the registry's
current pointer (see :meth:`repro.serving.server.TopicServer.attach_registry`).
The design mirrors a production model store:

* **Atomic pointer swap** — publishing installs the new version and moves
  the current pointer under one lock; readers always observe a complete
  version, never a half-published one.  On disk the pointer is a ``CURRENT``
  file replaced with :func:`os.replace` (atomic on POSIX), so a crashed
  publish can never leave a dangling pointer.
* **Retention / GC** — only the newest ``retain`` versions are kept (the
  current pointer is always kept, even after a rollback past the retention
  horizon); garbage-collected versions also have their files deleted.
* **Rollback** — :meth:`ModelRegistry.rollback` moves the current pointer
  back to any retained version without republishing, the escape hatch when
  a freshly-published model misbehaves.

Persistence is optional: with a ``directory`` every version is saved as a
normal snapshot (``v00001.npz`` + JSON sidecar) and the registry can be
reopened later with :meth:`ModelRegistry.open`.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs import get_telemetry
from repro.serving.snapshot import ModelSnapshot

__all__ = ["ModelRegistry", "PublishedVersion", "VersionIdentity"]

#: On-disk name of the atomic current-version pointer.
_CURRENT_POINTER = "CURRENT"

#: Default retention window (versions kept for rollback).
_DEFAULT_RETAIN = 4


def _version_stem(version: int) -> str:
    return f"v{version:05d}"


@dataclass(frozen=True)
class PublishedVersion:
    """One immutable registry entry."""

    version: int
    snapshot: ModelSnapshot
    published_at: float
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class VersionIdentity:
    """A :class:`PublishedVersion` minus its snapshot.

    What a log of publishes holds on to
    (:attr:`repro.streaming.pipeline.IngestReport.published`): it says which
    version a step produced and keeps no garbage-collected model alive.
    """

    version: int
    published_at: float
    metadata: Dict[str, Any] = field(default_factory=dict)


class ModelRegistry:
    """Thread-safe versioned store of model snapshots (see module docstring).

    Parameters
    ----------
    retain:
        Number of most-recent versions kept for rollback; older versions are
        garbage-collected at publish time (the current pointer is exempt).
    directory:
        Optional persistence directory; every published version is saved
        there and GC deletes the files of collected versions.

    Examples
    --------
    >>> registry = ModelRegistry(retain=2)
    >>> v1 = registry.publish(snapshot)            # doctest: +SKIP
    >>> registry.current().version                  # doctest: +SKIP
    1
    """

    def __init__(
        self,
        retain: int = _DEFAULT_RETAIN,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if retain < 1:
            raise ValueError(f"retain must be at least 1, got {retain}")
        self.retain = int(retain)
        self._lock = threading.RLock()
        self._versions: Dict[int, PublishedVersion] = {}
        self._current: Optional[int] = None
        self._next_version = 1
        self._directory: Optional[Path] = None
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            # A reused directory may hold versions from a previous run.
            # Numbering resumes past them so a publish can never overwrite
            # (and silently start serving over) another run's files; use
            # :meth:`open` instead to *adopt* the previous versions.
            existing = [
                int(stem.stem.lstrip("v"))
                for stem in self._directory.glob("v*.npz")
                if stem.stem.lstrip("v").isdigit()
            ]
            if existing:
                self._next_version = max(existing) + 1

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(
        self, snapshot: ModelSnapshot, **metadata: Any
    ) -> PublishedVersion:
        """Install ``snapshot`` as the new current version.

        Returns the :class:`PublishedVersion`; the snapshot's own metadata
        is preserved and the registry version is recorded alongside it.
        """
        if not isinstance(snapshot, ModelSnapshot):
            raise TypeError(
                f"publish expects a ModelSnapshot, got {type(snapshot).__name__}"
            )
        with self._lock:
            version = self._next_version
            self._next_version += 1
        # The registry version and publish metadata are merged into the
        # snapshot itself, so the in-memory entry and a reopened-from-disk
        # entry carry identical metadata.
        snapshot = snapshot.with_metadata(registry_version=version, **metadata)
        entry = PublishedVersion(
            version=version,
            snapshot=snapshot,
            published_at=time.time(),
            metadata=snapshot.metadata,
        )
        # The (potentially large) snapshot write happens OUTSIDE the lock so
        # readers — a server calling current() per request — are never
        # blocked behind disk I/O.
        if self._directory is not None:
            snapshot.save(self._directory / f"{_version_stem(version)}.npz")
        with self._lock:
            # The swap itself: one dict insert + one pointer assignment under
            # the lock.  Readers either see the old version or the new one.
            # Concurrent publishes may finish their saves out of order; the
            # pointer only ever moves forward to the highest finished version.
            self._versions[version] = entry
            if self._current is None or version > self._current:
                self._current = version
                if self._directory is not None:
                    self._write_pointer(version)
            collected, doomed = self._gc_locked()
        # Retired snapshot files (potentially large) are deleted after the
        # lock is released, for the same reason the save happens before it.
        for path in doomed:
            path.unlink(missing_ok=True)
        obs = get_telemetry()
        if obs.enabled:
            obs.count("registry.publishes")
            if collected:
                obs.count("registry.versions_collected", collected)
            obs.event(
                "registry_publish", version=version, collected_versions=collected
            )
        return entry

    def _write_pointer(self, version: int) -> None:
        """Atomically repoint the on-disk ``CURRENT`` file."""
        assert self._directory is not None
        fd, temp_path = tempfile.mkstemp(
            prefix=_CURRENT_POINTER, dir=self._directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{version}\n")
            os.replace(temp_path, self._directory / _CURRENT_POINTER)
        except BaseException:
            Path(temp_path).unlink(missing_ok=True)
            raise

    def _gc_locked(self) -> Tuple[int, List[Path]]:
        """Drop versions beyond the retention horizon (never the current).

        Returns ``(collected, doomed)``: how many versions were collected,
        and the files of collected versions for the caller to delete *after*
        releasing the lock (empty without a persistence directory).
        """
        versions = sorted(self._versions)
        keep = set(versions[-self.retain :])
        if self._current is not None:
            keep.add(self._current)
        collected = 0
        doomed: List[Path] = []
        for version in versions:
            if version in keep:
                continue
            del self._versions[version]
            collected += 1
            if self._directory is not None:
                stem = self._directory / f"{_version_stem(version)}.npz"
                doomed.append(stem)
                doomed.append(stem.with_suffix(".npz.json"))
        return collected, doomed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def current_version(self) -> Optional[int]:
        """The current version number (``None`` before the first publish)."""
        with self._lock:
            return self._current

    def current(self) -> Optional[PublishedVersion]:
        """The current entry, atomically (``None`` before the first publish)."""
        with self._lock:
            if self._current is None:
                return None
            return self._versions[self._current]

    def get(self, version: int) -> PublishedVersion:
        """The retained entry for ``version`` (:class:`KeyError` if collected)."""
        with self._lock:
            try:
                return self._versions[version]
            except KeyError:
                raise KeyError(
                    f"version {version} is not retained (have "
                    f"{sorted(self._versions)})"
                ) from None

    def versions(self) -> List[int]:
        """All retained version numbers, ascending."""
        with self._lock:
            return sorted(self._versions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)

    # ------------------------------------------------------------------ #
    # Rollback
    # ------------------------------------------------------------------ #
    def rollback(self, version: Optional[int] = None) -> PublishedVersion:
        """Move the current pointer back without republishing.

        ``version=None`` steps back to the newest retained version older
        than the current one; an explicit ``version`` must be retained.
        Future publishes keep numbering from the high-water mark, so a
        rollback can never cause a version number to be reused.
        """
        with self._lock:
            if self._current is None:
                raise RuntimeError("nothing published yet; cannot roll back")
            if version is None:
                older = [v for v in self._versions if v < self._current]
                if not older:
                    raise RuntimeError(
                        f"no retained version older than the current "
                        f"({self._current}) to roll back to"
                    )
                version = max(older)
            entry = self.get(int(version))
            previous = self._current
            self._current = entry.version
            if self._directory is not None:
                self._write_pointer(entry.version)
        obs = get_telemetry()
        if obs.enabled:
            obs.count("registry.rollbacks")
            obs.event(
                "registry_rollback", from_version=previous, to_version=entry.version
            )
        return entry

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, directory: Union[str, Path], retain: Optional[int] = None
    ) -> "ModelRegistry":
        """Reopen a persisted registry: load retained versions + the pointer.

        The retention policy is not persisted, so pass the ``retain`` you
        originally configured; when omitted it defaults to the larger of the
        versions found on disk and the class default — reopening never
        immediately garbage-collects anything, and never silently tightens
        retention below the default either.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"registry directory not found: {directory}")
        found: Dict[int, ModelSnapshot] = {}
        mtimes: Dict[int, float] = {}
        for stem in sorted(directory.glob("v*.npz")):
            try:
                version = int(stem.stem.lstrip("v"))
            except ValueError:
                continue
            try:
                found[version] = ModelSnapshot.load(stem)
            except (FileNotFoundError, ValueError, KeyError, OSError):
                # A publish that crashed mid-write leaves a partial version
                # (e.g. the .npz without its sidecar).  Skip it: the intact
                # versions — and the CURRENT pointer, written only after a
                # complete save — must stay reachable.
                continue
            mtimes[version] = stem.stat().st_mtime
        registry = cls(
            retain=retain if retain is not None else max(len(found), _DEFAULT_RETAIN),
            directory=directory,
        )
        for version in sorted(found):
            snapshot = found[version]
            registry._versions[version] = PublishedVersion(
                version=version,
                snapshot=snapshot,
                published_at=mtimes[version],
                metadata=dict(snapshot.metadata),
            )
        if found:
            registry._next_version = max(found) + 1
            pointer = directory / _CURRENT_POINTER
            current = max(found)
            if pointer.exists():
                recorded = int(pointer.read_text(encoding="utf-8").strip())
                if recorded in found:
                    current = recorded
            registry._current = current
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"ModelRegistry(current={self._current}, "
                f"retained={sorted(self._versions)}, retain={self.retain})"
            )
