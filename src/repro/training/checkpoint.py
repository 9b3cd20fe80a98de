"""Resumable training checkpoints built on the serving snapshot format.

A checkpoint directory written by :meth:`Checkpoint.save` contains

* ``snapshot.npz`` / ``snapshot.npz.json`` — a full
  :class:`~repro.serving.snapshot.ModelSnapshot` of the merged model at the
  barrier, so a mid-training checkpoint is *directly servable* (point an
  :class:`~repro.serving.InferenceEngine` at it, no training code needed);
* ``state.npz`` — the numeric worker state: per-shard topic assignments (and,
  for WarpLDA, the proposal buffers) concatenated in corpus token order, plus
  the shard boundaries;
* ``checkpoint.json`` — everything else: format version, the trainer's
  keywords (:attr:`~repro.training.parallel.ParallelTrainer.config`),
  per-worker RNG states and iteration counters, the epoch counter, and a
  corpus fingerprint guarding against resuming on the wrong corpus.

Resume (:meth:`Checkpoint.restore`) is **bit-exact**: the restored trainer
continues the exact random streams and produces the same φ/θ as an
uninterrupted run, which the determinism test suite checks.  A malformed
checkpoint fails :meth:`Checkpoint.load` with ``ValueError``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.corpus.corpus import Corpus
from repro.samplers.base import read_kernel
from repro.serving.snapshot import ModelSnapshot
from repro.training.parallel import CONFIG_KEYS, ParallelTrainer

__all__ = ["Checkpoint", "corpus_fingerprint"]

#: On-disk checkpoint format version.
CHECKPOINT_FORMAT_VERSION = 1

_SNAPSHOT_FILE = "snapshot.npz"
_STATE_FILE = "state.npz"
_META_FILE = "checkpoint.json"


def corpus_fingerprint(corpus: Corpus) -> Dict[str, int]:
    """A cheap identity check for "is this the corpus that run trained on?"."""
    token_words = corpus.token_words
    return {
        "num_documents": int(corpus.num_documents),
        "num_tokens": int(corpus.num_tokens),
        "vocabulary_size": int(corpus.vocabulary_size),
        "token_checksum": int(token_words.sum()) if token_words.size else 0,
    }


class Checkpoint:
    """An in-memory checkpoint: servable snapshot + resumable trainer state.

    Build one from a live trainer with :meth:`capture`, persist it with
    :meth:`save`, read it back with :meth:`load`, and turn it back into a
    running trainer with :meth:`restore`.
    """

    def __init__(
        self,
        snapshot: ModelSnapshot,
        config: Dict[str, Any],
        num_workers: int,
        boundaries: np.ndarray,
        worker_states: List[Dict[str, Any]],
        epochs_completed: int,
        fingerprint: Dict[str, int],
    ) -> None:
        if num_workers != len(worker_states):
            raise ValueError(
                f"{num_workers} workers but {len(worker_states)} worker states"
            )
        self.snapshot = snapshot
        self.config = config
        self.num_workers = int(num_workers)
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.worker_states = worker_states
        self.epochs_completed = int(epochs_completed)
        self.fingerprint = dict(fingerprint)
        #: Directory this checkpoint was loaded from (resume provenance).
        self.source_path: Optional[Path] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def capture(cls, trainer: ParallelTrainer) -> "Checkpoint":
        """Freeze a live trainer at the current epoch barrier."""
        snapshot = trainer.export_snapshot(
            extra_metadata={"checkpoint_epoch": trainer.epochs_completed}
        )
        return cls(
            snapshot=snapshot,
            config=dict(trainer.config),
            num_workers=trainer.num_workers,
            boundaries=trainer.boundaries,
            worker_states=trainer.export_worker_states(),
            epochs_completed=trainer.epochs_completed,
            fingerprint=corpus_fingerprint(trainer.corpus),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> Path:
        """Write the checkpoint into ``directory`` (created if missing).

        The write is crash-safe: everything lands in a temporary sibling
        directory first and is swapped in with renames, so ``directory``
        only ever contains a *complete* checkpoint — a process killed
        mid-save can cost at most the checkpoint being written, never the
        previous one (briefly preserved as ``<directory>.bak`` during the
        swap).
        """
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.with_name(f"{directory.name}.tmp-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            self._write_contents(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        backup = directory.with_name(directory.name + ".bak")
        if directory.exists():
            if backup.exists():
                shutil.rmtree(backup)
            os.replace(directory, backup)
        os.replace(staging, directory)
        shutil.rmtree(backup, ignore_errors=True)
        return directory

    def _write_contents(self, directory: Path) -> None:
        """Write the three checkpoint files into an (empty) directory."""
        self.snapshot.save(directory / _SNAPSHOT_FILE)

        arrays: Dict[str, np.ndarray] = {"boundaries": self.boundaries}
        rng_states = []
        iterations = []
        has_proposals = []
        for index, state in enumerate(self.worker_states):
            arrays[f"assignments_{index}"] = np.asarray(
                state["assignments"], dtype=np.int64
            )
            if "proposals" in state:
                arrays[f"proposals_{index}"] = np.asarray(
                    state["proposals"], dtype=np.int64
                )
            has_proposals.append("proposals" in state)
            rng_states.append(state["rng_state"])
            iterations.append(int(state["iterations_completed"]))
        np.savez(directory / _STATE_FILE, **arrays)

        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config,
            "num_workers": self.num_workers,
            "epochs_completed": self.epochs_completed,
            "fingerprint": self.fingerprint,
            "rng_states": rng_states,
            "iterations_completed": iterations,
            "has_proposals": has_proposals,
        }
        (directory / _META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Checkpoint":
        """Read a checkpoint previously written by :meth:`save`.

        If the directory is missing but a ``<directory>.bak`` exists — the
        save was killed between its two renames — the backup is loaded
        instead, so the crash window of :meth:`save` never loses the last
        complete checkpoint.
        """
        directory = Path(directory)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            backup = directory.with_name(directory.name + ".bak")
            if (backup / _META_FILE).exists():
                directory = backup
                meta_path = backup / _META_FILE
            else:
                raise FileNotFoundError(f"no checkpoint metadata at {meta_path}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint metadata {meta_path} is not a JSON object")
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format version {version!r} "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )

        def field(key: str, kind: Any) -> Any:
            try:
                return kind(meta[key])
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"checkpoint metadata {meta_path} has no valid {key!r}"
                ) from None

        config = field("config", dict)
        unknown = sorted(set(config) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"checkpoint {meta_path} has unknown config keys {unknown}")
        # A checkpoint from before the kernel layer resumes on the scalar path
        # it was trained with; a retired kernel name reads as its successor.
        config["kernel"] = read_kernel(config.get("kernel", "scalar"))
        num_workers = field("num_workers", int)
        per_worker = {
            key: field(key, list)
            for key in ("rng_states", "iterations_completed", "has_proposals")
        }
        for key, values in per_worker.items():
            if len(values) != num_workers:
                raise ValueError(
                    f"checkpoint metadata {meta_path} lists {len(values)} "
                    f"{key} for {num_workers} workers"
                )
        snapshot = ModelSnapshot.load(directory / _SNAPSHOT_FILE)
        worker_states: List[Dict[str, Any]] = []
        state_path = directory / _STATE_FILE
        with np.load(state_path) as arrays:

            def array(name: str) -> np.ndarray:
                if name not in arrays.files:
                    raise ValueError(f"checkpoint state {state_path} lacks {name!r}")
                return arrays[name]

            boundaries = array("boundaries")
            for index in range(num_workers):
                state: Dict[str, Any] = {
                    "assignments": array(f"assignments_{index}"),
                    "rng_state": per_worker["rng_states"][index],
                    "iterations_completed": per_worker["iterations_completed"][index],
                }
                if per_worker["has_proposals"][index]:
                    state["proposals"] = array(f"proposals_{index}")
                worker_states.append(state)
        checkpoint = cls(
            snapshot=snapshot,
            config=config,
            num_workers=num_workers,
            boundaries=boundaries,
            worker_states=worker_states,
            epochs_completed=field("epochs_completed", int),
            fingerprint=field("fingerprint", dict),
        )
        checkpoint.source_path = directory
        return checkpoint

    # ------------------------------------------------------------------ #
    def restore(
        self,
        corpus: Corpus,
        backend: str = "process",
        seed: Optional[int] = 0,
    ) -> ParallelTrainer:
        """Rebuild a running trainer from this checkpoint, bit-exactly.

        ``seed`` only feeds the throwaway initial assignment drawn during
        construction; every worker's real state (assignments, proposal
        buffers, RNG streams, iteration counters) is then overwritten from
        the checkpoint.
        """
        observed = corpus_fingerprint(corpus)
        if observed != self.fingerprint:
            raise ValueError(
                f"corpus does not match the checkpoint: expected "
                f"{self.fingerprint}, got {observed}"
            )
        trainer = ParallelTrainer(
            corpus, self.num_workers, seed=seed, backend=backend, **self.config
        )
        try:
            if not np.array_equal(trainer.boundaries, self.boundaries):
                raise ValueError(
                    "shard boundaries changed between save and restore; "
                    "the partitioning code is not the version that wrote this "
                    "checkpoint"
                )
            trainer.import_worker_states(self.worker_states)
        except BaseException:
            trainer.close()
            raise
        trainer.epochs_completed = self.epochs_completed
        if self.source_path is not None:
            trainer.provenance["resumed_from"] = str(self.source_path)
        trainer.provenance["resumed_at_epoch"] = self.epochs_completed
        return trainer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(sampler={self.config.get('sampler')!r}, "
            f"workers={self.num_workers}, epoch={self.epochs_completed})"
        )
