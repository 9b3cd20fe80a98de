"""Out-of-core benchmark: peak memory vs corpus size for store-backed runs.

The corpus store's whole promise is that memory no longer scales with the
corpus.  This bench measures that promise directly, in child processes so
every number is a clean per-task peak:

* **open/replay flatness** — peak RSS of opening a store and of replaying it
  through :func:`repro.corpus.iter_store_documents`, measured on a base
  store and on one ``--scale``× larger.  Both must stay flat (bounded by the
  chunk size, not the corpus), and smoke mode asserts it.
* **training residency** — anonymous-memory footprint (``VmData``) of
  ``LDA.fit`` on the mapped store vs. on the same corpus materialised in
  RAM.  The store run must sit strictly below the RAM run; smoke asserts
  that too, plus that the two snapshots are byte-identical (same seed, same
  trajectory — out-of-core is a storage change, not a model change).
* **store size** — a store holds the three int64 token arrays, the offsets,
  the vocabulary and the manifest, nothing more; smoke asserts it, so no
  second O(T) index can creep back into the format.
* **the budget demonstration** — a memory budget is set *between* the two
  measured footprints and enforced with ``RLIMIT_DATA`` (Linux ≥ 4.7: brk +
  anonymous mmap; read-only file-backed maps exempt, which is exactly the
  distinction the store trades on).  Under that budget the store-backed
  train must succeed and the in-RAM train must die of ``MemoryError``.

Smoke scale keeps CI fast, so the budget is *calibrated* (midpoint of the
measured footprints) rather than the issue's literal "corpus ≥ 4× budget":
at small ``T`` the interpreter's ~tens-of-MB heap floor dwarfs the corpus
and a fixed 4× coupling would measure the floor, not the subsystem.  The
full run uses a corpus large enough (~48M tokens) that the materialised
corpus exceeds 4× the calibrated budget, making the literal claim — expect
minutes of runtime and ~2 GB of disk, like the other full benches.

Throughput leaves (``tokens_per_sec`` for store-backed training,
``replay_tokens_per_sec`` for the disk replay path) feed the
``check_regression.py`` gate against ``baselines/outofcore.smoke.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_outofcore.py

or quickly (CI smoke, asserts the memory invariants)::

    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

import _harness

REPO_ROOT = _harness.REPO_ROOT

#: Documents appended to the store writer per synthesis batch.
_SYNTH_BATCH_DOCS = 4096

#: Child peak-RSS flatness bound: the scaled store may cost at most this
#: factor of the base store's peak (plus allocator noise already inside it).
_FLAT_RSS_RATIO = 1.3

#: Slack for one ``.npy`` header (numpy writes 128 bytes for a 1-D array).
_NPY_HEADER_BYTES = 1024

#: Minimum anonymous-memory gap (bytes) between the RAM and store training
#: footprints before the rlimit demonstration is attempted — below this the
#: midpoint budget sits inside allocator noise and the check would be flaky.
_MIN_BUDGET_GAP = 16 * 1024 * 1024


# ---------------------------------------------------------------------------
# Store synthesis — chunked through StoreWriter, never materialising a Corpus.
# ---------------------------------------------------------------------------


def synthesize_store(
    directory: Path,
    num_documents: int,
    vocabulary_size: int,
    mean_length: int,
    seed: int,
) -> Dict[str, int]:
    """Write a synthetic store of ``num_documents`` docs without ever holding
    more than one batch of tokens in memory.  Returns the store's shape."""
    from repro.corpus import StoreWriter
    from repro.sampling.rng import ensure_rng

    rng = ensure_rng(seed)
    total_tokens = 0
    with StoreWriter(directory, overwrite=True) as writer:
        remaining = num_documents
        while remaining:
            take = min(_SYNTH_BATCH_DOCS, remaining)
            lengths = rng.poisson(mean_length, take).astype(np.int64) + 1
            flat = rng.integers(
                0, vocabulary_size, int(lengths.sum()), dtype=np.int64
            )
            writer.append_tokens(flat, lengths)
            total_tokens += int(lengths.sum())
            remaining -= take
        writer.finalize()
    return {
        "documents": num_documents,
        "tokens": total_tokens,
        "vocabulary": vocabulary_size,
    }


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _store_bytes_bound(directory: Path, shape: Dict[str, int]) -> int:
    """What a store may hold: three int64 token arrays (``token_words``,
    ``token_docs``, ``word_order``), the two offset arrays, the vocabulary
    and the manifest.  Anything more is a second O(T) index."""
    from repro.corpus.store import MANIFEST_NAME

    arrays = 8 * (3 * shape["tokens"] + shape["documents"] + shape["vocabulary"] + 2)
    metadata = sum(
        (directory / name).stat().st_size for name in ("vocab.json", MANIFEST_NAME)
    )
    return arrays + metadata + 5 * _NPY_HEADER_BYTES


# ---------------------------------------------------------------------------
# Child tasks — each runs in a fresh process so peak RSS / VmData are per-task.
# ---------------------------------------------------------------------------


def _memory_metrics() -> Dict[str, Optional[int]]:
    """Peak RSS plus current anonymous memory (``VmData``) of this process."""
    import resource

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    vmdata: Optional[int] = None
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmData:"):
                    vmdata = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    return {"peak_rss_bytes": peak_rss, "vmdata_bytes": vmdata}


def run_child(args: argparse.Namespace) -> int:
    """Execute one ``--child`` task and print a JSON result line."""
    if args.budget_bytes:
        import resource

        resource.setrlimit(
            resource.RLIMIT_DATA, (args.budget_bytes, args.budget_bytes)
        )

    from repro.corpus import iter_store_documents, open_store

    out: Dict[str, Any] = {"status": "ok", "task": args.child}
    try:
        if args.child == "open":
            corpus = open_store(args.store)
            out["tokens"] = corpus.num_tokens
            out["documents"] = corpus.num_documents
        elif args.child == "replay":
            corpus = open_store(args.store)
            started = time.perf_counter()
            replayed = 0
            for words in iter_store_documents(corpus):
                replayed += words.size
            elapsed = time.perf_counter() - started
            out["tokens"] = replayed
            out["elapsed_seconds"] = elapsed
        elif args.child == "train":
            from repro.api import LDA, ModelSpec

            spec = ModelSpec(
                num_topics=args.topics, algorithm="warplda", seed=args.seed
            )
            corpus: Any = open_store(args.store)
            if args.materialize:
                corpus = corpus.materialize()
            started = time.perf_counter()
            model = LDA(spec).fit(corpus, num_iterations=args.iterations)
            elapsed = time.perf_counter() - started
            phi = model.export_snapshot().phi
            out["tokens"] = open_store(args.store).num_tokens
            out["elapsed_seconds"] = elapsed
            out["phi_sha256"] = hashlib.sha256(phi.tobytes()).hexdigest()
        else:
            raise ValueError(f"unknown child task {args.child!r}")
    except MemoryError:
        out = {"status": "memory_error", "task": args.child}
    out.update(_memory_metrics())
    print(json.dumps(out))
    return 0


def _spawn(
    task: str,
    store: Path,
    *,
    iterations: int = 0,
    topics: int = 0,
    seed: int = 0,
    materialize: bool = False,
    budget_bytes: int = 0,
) -> Dict[str, Any]:
    """Run one child task in a subprocess and parse its JSON result.

    A child that dies without printing JSON (e.g. killed by the rlimit
    before its ``MemoryError`` handler ran) is reported as
    ``{"status": "memory_error"}`` when a budget was set, and raises
    otherwise — a silent crash in an unlimited child is a bench bug.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        task,
        "--store",
        str(store),
        "--iterations",
        str(iterations),
        "--topics",
        str(topics),
        "--seed",
        str(seed),
    ]
    if materialize:
        cmd.append("--materialize")
    if budget_bytes:
        cmd += ["--budget-bytes", str(budget_bytes)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if line:
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            pass
    if budget_bytes:
        return {"status": "memory_error", "task": task}
    raise RuntimeError(
        f"child task {task!r} produced no result "
        f"(exit {proc.returncode}): {proc.stderr[-2000:]}"
    )


# ---------------------------------------------------------------------------
# The bench proper.
# ---------------------------------------------------------------------------


def run_outofcore_bench(
    work_dir: Path,
    num_documents: int,
    vocabulary_size: int,
    mean_length: int,
    scale: int,
    topics: int,
    iterations: int,
    seed: int,
    strict_4x: bool,
    assert_invariants: bool,
) -> Dict[str, Any]:
    base_dir = work_dir / "store_base"
    scaled_dir = work_dir / "store_scaled"
    print(f"synthesizing base store ({num_documents} docs) ...")
    base_shape = synthesize_store(
        base_dir, num_documents, vocabulary_size, mean_length, seed
    )
    print(f"synthesizing {scale}x store ({num_documents * scale} docs) ...")
    scaled_shape = synthesize_store(
        scaled_dir, num_documents * scale, vocabulary_size, mean_length, seed
    )

    open_base = _spawn("open", base_dir)
    open_scaled = _spawn("open", scaled_dir)
    replay_base = _spawn("replay", base_dir)
    replay_scaled = _spawn("replay", scaled_dir)
    train_store = _spawn(
        "train", base_dir, iterations=iterations, topics=topics, seed=seed
    )
    train_ram = _spawn(
        "train",
        base_dir,
        iterations=iterations,
        topics=topics,
        seed=seed,
        materialize=True,
    )
    for result in (open_base, open_scaled, replay_base, replay_scaled,
                   train_store, train_ram):
        if result["status"] != "ok":
            raise RuntimeError(f"unlimited child failed: {result}")

    open_ratio = open_scaled["peak_rss_bytes"] / open_base["peak_rss_bytes"]
    replay_ratio = (
        replay_scaled["peak_rss_bytes"] / replay_base["peak_rss_bytes"]
    )
    snapshots_identical = (
        train_store["phi_sha256"] == train_ram["phi_sha256"]
    )

    store_vmdata = train_store["vmdata_bytes"]
    ram_vmdata = train_ram["vmdata_bytes"]
    budget_bytes = 0
    budget_store: Dict[str, Any] = {"status": "skipped"}
    budget_ram: Dict[str, Any] = {"status": "skipped"}
    rlimit_supported = (
        sys.platform.startswith("linux")
        and store_vmdata is not None
        and ram_vmdata is not None
    )
    if rlimit_supported and ram_vmdata - store_vmdata >= _MIN_BUDGET_GAP:
        budget_bytes = (store_vmdata + ram_vmdata) // 2
        print(
            f"budget demonstration: RLIMIT_DATA={budget_bytes >> 20} MiB "
            f"(store needs ~{store_vmdata >> 20} MiB, "
            f"RAM needs ~{ram_vmdata >> 20} MiB)"
        )
        budget_store = _spawn(
            "train",
            base_dir,
            iterations=iterations,
            topics=topics,
            seed=seed,
            budget_bytes=budget_bytes,
        )
        budget_ram = _spawn(
            "train",
            base_dir,
            iterations=iterations,
            topics=topics,
            seed=seed,
            materialize=True,
            budget_bytes=budget_bytes,
        )

    replay_elapsed = replay_scaled["elapsed_seconds"]
    train_elapsed = train_store["elapsed_seconds"]
    trained_tokens = train_store["tokens"] * iterations
    record: Dict[str, Any] = {
        "corpus": base_shape,
        "scaled_corpus": scaled_shape,
        "config": {
            "scale": scale,
            "topics": topics,
            "iterations": iterations,
            "algorithm": "warplda",
            "seed": seed,
        },
        "results": {
            "store_bytes": {
                "base": _tree_bytes(base_dir),
                "scaled": _tree_bytes(scaled_dir),
            },
            "open_peak_rss_bytes": {
                "base": open_base["peak_rss_bytes"],
                "scaled": open_scaled["peak_rss_bytes"],
                "ratio": round(open_ratio, 3),
            },
            "replay_peak_rss_bytes": {
                "base": replay_base["peak_rss_bytes"],
                "scaled": replay_scaled["peak_rss_bytes"],
                "ratio": round(replay_ratio, 3),
            },
            "replay_tokens_per_sec": round(
                replay_scaled["tokens"] / replay_elapsed, 1
            ),
            "train_seconds": round(train_elapsed, 4),
            "tokens_per_sec": round(trained_tokens / train_elapsed, 1),
            "train_vmdata_bytes": {
                "store": store_vmdata,
                "ram": ram_vmdata,
            },
            "budget_bytes": budget_bytes,
            "train_under_budget": {
                "store": budget_store["status"],
                "ram": budget_ram["status"],
            },
            "snapshots_identical": snapshots_identical,
            # Φ of the store-backed run: equal across two commits means their
            # fixed-seed out-of-core training is byte-identical.
            "phi_sha256": train_store["phi_sha256"],
        },
    }

    if assert_invariants:
        failures = []
        if open_ratio > _FLAT_RSS_RATIO:
            failures.append(
                f"open peak RSS not flat: {scale}x store costs "
                f"{open_ratio:.2f}x the base store (limit {_FLAT_RSS_RATIO})"
            )
        if replay_ratio > _FLAT_RSS_RATIO:
            failures.append(
                f"replay peak RSS not flat: {scale}x store costs "
                f"{replay_ratio:.2f}x the base store (limit {_FLAT_RSS_RATIO})"
            )
        for directory, shape in ((base_dir, base_shape), (scaled_dir, scaled_shape)):
            stored, bound = _tree_bytes(directory), _store_bytes_bound(directory, shape)
            if stored > bound:
                failures.append(
                    f"{directory.name} holds {stored} bytes, more than the "
                    f"{bound} of its token arrays, offsets and metadata"
                )
        if not snapshots_identical:
            failures.append(
                "store-backed and in-RAM training snapshots differ "
                "(phi sha256 mismatch at equal seed)"
            )
        if store_vmdata is not None and ram_vmdata is not None:
            if store_vmdata >= ram_vmdata:
                failures.append(
                    f"store training anonymous memory ({store_vmdata}) not "
                    f"below in-RAM training ({ram_vmdata})"
                )
        if budget_bytes:
            if budget_store["status"] != "ok":
                failures.append(
                    f"store-backed training failed under the "
                    f"{budget_bytes >> 20} MiB budget: {budget_store}"
                )
            if budget_ram["status"] != "memory_error":
                failures.append(
                    f"in-RAM training unexpectedly survived the "
                    f"{budget_bytes >> 20} MiB budget: {budget_ram}"
                )
        if strict_4x:
            corpus_resident = (ram_vmdata or 0) - (store_vmdata or 0)
            if budget_bytes and corpus_resident < 4 * budget_bytes:
                failures.append(
                    f"strict mode: materialised corpus ({corpus_resident}) "
                    f"is below 4x the budget ({budget_bytes}); grow the "
                    f"corpus"
                )
        if failures:
            raise RuntimeError(
                "out-of-core invariants violated:\n  " + "\n  ".join(failures)
            )

    return record


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny corpus (CI)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_outofcore.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--work-dir",
        type=Path,
        default=None,
        help="directory for the synthesized stores (default: a temp dir)",
    )
    # Child-process protocol (internal; used by the bench's own subprocesses).
    parser.add_argument("--child", choices=("open", "replay", "train"))
    parser.add_argument("--store", type=Path)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--topics", type=int, default=8)
    parser.add_argument("--materialize", action="store_true")
    parser.add_argument("--budget-bytes", type=int, default=0)
    args = parser.parse_args(argv)

    if args.child:
        return run_child(args)

    if args.smoke:
        params = dict(
            num_documents=8000,
            vocabulary_size=2000,
            mean_length=120,
            scale=4,
            topics=8,
            iterations=2,
            strict_4x=False,
        )
    else:
        params = dict(
            num_documents=60000,
            vocabulary_size=50000,
            mean_length=800,
            scale=4,
            topics=20,
            iterations=2,
            strict_4x=True,
        )

    with _harness.recording() as session:
        if args.work_dir is not None:
            args.work_dir.mkdir(parents=True, exist_ok=True)
            record = run_outofcore_bench(
                args.work_dir,
                seed=args.seed,
                assert_invariants=True,
                **params,
            )
        else:
            with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
                record = run_outofcore_bench(
                    Path(tmp),
                    seed=args.seed,
                    assert_invariants=True,
                    **params,
                )

    _harness.write_report(
        args.output,
        "outofcore",
        {"smoke": args.smoke, **record},
        telemetry=session,
    )

    results = record["results"]
    print(
        f"base store {record['corpus']['tokens']} tokens, "
        f"scaled {record['scaled_corpus']['tokens']} tokens: "
        f"open RSS ratio {results['open_peak_rss_bytes']['ratio']}, "
        f"replay RSS ratio {results['replay_peak_rss_bytes']['ratio']}"
    )
    print(
        f"store-backed training: {results['tokens_per_sec']} tokens/s, "
        f"replay {results['replay_tokens_per_sec']} tokens/s, "
        f"snapshots identical: {results['snapshots_identical']}, "
        f"phi sha256 {results['phi_sha256']}"
    )
    if results["budget_bytes"]:
        print(
            f"under RLIMIT_DATA={results['budget_bytes'] >> 20} MiB: "
            f"store={results['train_under_budget']['store']}, "
            f"ram={results['train_under_budget']['ram']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
