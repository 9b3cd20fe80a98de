"""Thread-scaling benchmark: the multi-core kernel tier vs the Fig. 9a model.

Measures WarpLDA slab-kernel tokens/second at several thread counts
(``--threads``, default 1/2/4/8), checks that every run is **bit-identical**
to the single-threaded one (the tier's determinism contract), and compares
the measured speedups against :data:`repro.distributed.scaling
.THREAD_SCALING_MODEL` — the contention model calibrated to the paper's
Fig. 9a multi-threading curve.

A second, Table 4-style section relates the slab working-set size to
threaded throughput: the same corpus is swept over several ``max_cells``
chunk budgets (the knob that bounds how much of the MH chain state —
current/proposal topics, per-row counts, pre-drawn uniforms — is live per
task), recording the estimated per-task working set next to the measured
rate.  On a machine with a real cache hierarchy the sweet spot sits where
the working set fits L2/L3; the record makes that relationship inspectable.

Results land in ``BENCH_threads.json`` at the repository root.  Run
directly::

    PYTHONPATH=src python benchmarks/bench_thread_scaling.py

or quickly on a tiny corpus (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_thread_scaling.py --smoke
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import _harness
from repro.core.warplda import WarpLDA
from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.distributed.scaling import THREAD_SCALING_MODEL
from repro.kernels import SlabBucket, corpus_buckets
from repro.kernels.jit import jit_available
from repro.kernels.warp import document_phase, slot_table_width, word_phase

REPO_ROOT = _harness.REPO_ROOT

#: ``max_cells`` budgets for the Table 4-style working-set sweep.
CACHE_SWEEP_CELLS = (1 << 14, 1 << 16, 1 << 18)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=2000)
    parser.add_argument("--vocab-size", type=int, default=2000)
    parser.add_argument("--doc-length", type=int, default=40)
    parser.add_argument("--topics", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per point; the fastest wall time wins "
        "(damps scheduler noise, which dwarfs the signal on small corpora)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="thread counts to sweep (speedups are relative to the first)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_threads.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus / few iterations (CI smoke step)",
    )
    return parser


def bench_corpus(args: argparse.Namespace):
    """Sharp planted topics, same recipe as the sampling-throughput bench."""
    spec = SyntheticCorpusSpec(
        num_documents=args.docs,
        vocabulary_size=args.vocab_size,
        mean_document_length=args.doc_length,
        num_topics=args.topics,
        doc_topic_concentration=0.05,
        topic_word_concentration=0.02,
    )
    return generate_lda_corpus(spec, seed=0)


def timed_fit(
    corpus, args: argparse.Namespace, threads: int, record_obs: bool
) -> Dict[str, object]:
    """Train one WarpLDA model at ``threads`` workers; returns the row.

    The point is measured ``--repeats`` times on identically seeded models
    and the fastest wall time wins.  The first run optionally happens
    inside a ``repro.obs`` recording session so
    the pool's parallel-efficiency instrumentation (per-task span histogram,
    utilization gauge, straggler skew) is captured in the report digest.
    Instrumentation never touches the RNG stream, so the returned
    ``assignments`` stay comparable across rows either way.
    """
    session = None
    elapsed = float("inf")
    assignments: Optional[np.ndarray] = None
    for repeat in range(max(1, args.repeats)):
        model = WarpLDA(
            corpus, num_topics=args.topics, seed=args.seed, threads=threads
        )
        if record_obs and repeat == 0:
            with _harness.recording() as session:
                _, wall = _harness.timed(model.fit, args.iterations)
        else:
            _, wall = _harness.timed(model.fit, args.iterations)
        elapsed = min(elapsed, wall)
        if assignments is None:
            assignments = model.assignments.copy()
    tokens = args.iterations * corpus.num_tokens
    return {
        "threads": threads,
        "seconds": round(elapsed, 4),
        "tokens_per_sec": round(tokens / elapsed, 1),
        "assignments": assignments,
        "session": session,
    }


def working_set_bytes(
    buckets: List[SlabBucket], max_cells: int, num_topics: int, num_mh_steps: int
) -> int:
    """Estimated live bytes of the largest chunk task under a ``max_cells`` budget.

    Counts the chain state one task touches per **real token** of a chunk —
    the kernel never gathers a padded cell: current topics, their target
    term and row id (8 bytes each), and per MH step the stored proposal, its
    target term and the pre-drawn uniform — plus the per-row count table,
    ``rows × W`` cells with ``W`` from
    :func:`repro.kernels.warp.slot_table_width`, the very helper the kernel
    sizes its chunks and tables with, so ``rows`` is capped at ``max_cells //
    W`` here as it is there.  A dense table (``W == K``) is one float64 per
    cell; a slot table adds the int64 owner and the contested flag.  The
    shared stale ``c_k`` vector and its reciprocal are counted once.
    """

    def chunk_bytes(chunk: SlabBucket, width: int) -> int:
        table_cell_bytes = 8 if width == num_topics else 8 + 8 + 1
        return (
            int(chunk.lengths.sum()) * 8 * 3 * (1 + num_mh_steps)
            + chunk.num_rows * width * table_cell_bytes
        )

    largest = 0
    for bucket in buckets:
        width = slot_table_width(num_topics, bucket.slab_len)
        for chunk in bucket.chunks(max_cells, max_rows=max(1, max_cells // max(1, width))):
            largest = max(largest, chunk_bytes(chunk, width))
    return largest + num_topics * 8 * 2  # + stale topic counts and 1 / (c_k + β̄)


def timed_cache_point(
    corpus, args: argparse.Namespace, threads: int, max_cells: int
) -> float:
    """Tokens/second of the two slab phases under a ``max_cells`` budget
    (best of ``--repeats`` identically seeded runs)."""
    best = float("inf")
    for _ in range(max(1, args.repeats)):
        best = min(best, _cache_run_seconds(corpus, args, threads, max_cells))
    return args.iterations * corpus.num_tokens / best


def _cache_run_seconds(
    corpus, args: argparse.Namespace, threads: int, max_cells: int
) -> float:
    model = WarpLDA(
        corpus, num_topics=args.topics, seed=args.seed, threads=threads
    )
    word_buckets = corpus_buckets(corpus, "word")
    doc_buckets = corpus_buckets(corpus, "doc")
    started = time.perf_counter()
    for _ in range(args.iterations):
        word_phase(
            model.assignments,
            model.proposals,
            word_buckets,
            model._stale_topic_counts(),
            model.num_topics,
            model.num_mh_steps,
            model.beta,
            model.beta_sum,
            model.rng,
            threads=threads,
            max_cells=max_cells,
        )
        model.topic_counts = np.bincount(
            model.assignments, minlength=model.num_topics
        )
        document_phase(
            model.assignments,
            model.proposals,
            doc_buckets,
            model._stale_topic_counts(),
            model.alpha,
            model.alpha_sum,
            model.num_topics,
            model.num_mh_steps,
            model.beta_sum,
            model.rng,
            alpha_alias=model._alpha_alias,
            threads=threads,
            max_cells=max_cells,
        )
        model.topic_counts = np.bincount(
            model.assignments, minlength=model.num_topics
        )
    return time.perf_counter() - started


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.docs = min(args.docs, 80)
        args.vocab_size = min(args.vocab_size, 120)
        args.doc_length = min(args.doc_length, 30)
        args.iterations = min(args.iterations, 4)

    corpus = bench_corpus(args)
    print(
        f"corpus: {corpus.num_documents} docs, {corpus.num_tokens} tokens, "
        f"V={corpus.vocabulary_size}; K={args.topics}, "
        f"{args.iterations} iterations, threads {args.threads}, "
        f"cores {_harness.environment()['cpu_logical']}, "
        f"jit {'available' if jit_available() else 'unavailable'}"
    )

    # ---------------------------------------------------------------- #
    # Fig. 9a: measured speedup per thread count vs the contention model.
    # The highest thread count runs recorded, so the pool's utilization /
    # straggler instrumentation lands in the report's telemetry digest.
    # ---------------------------------------------------------------- #
    recorded_threads = max(args.threads)
    rows: List[Dict[str, object]] = [
        timed_fit(corpus, args, threads, record_obs=threads == recorded_threads)
        for threads in args.threads
    ]
    baseline = rows[0]
    master = None
    scaling: Dict[str, Dict[str, float]] = {}
    bit_identical = True
    for row in rows:
        identical = bool(
            np.array_equal(row["assignments"], baseline["assignments"])
        )
        bit_identical = bit_identical and identical
        measured = row["tokens_per_sec"] / baseline["tokens_per_sec"]
        predicted = THREAD_SCALING_MODEL.speedup(int(row["threads"]))
        scaling[f"t{row['threads']}"] = {
            "threads": int(row["threads"]),
            "seconds": row["seconds"],
            "tokens_per_sec": row["tokens_per_sec"],
            "speedup": round(measured, 3),
            "predicted_speedup": round(predicted, 3),
            "efficiency": round(measured / int(row["threads"]), 3),
            "bit_identical_to_t1": identical,
        }
        if row["session"] is not None:
            master = row["session"]
        print(
            f"threads {row['threads']:>2}: "
            f"{row['tokens_per_sec']:>12,.0f} tok/s  "
            f"speedup {measured:5.2f}x (model {predicted:5.2f}x)  "
            f"{'bit-identical' if identical else 'DIVERGED'}"
        )
    if not bit_identical:
        raise SystemExit(
            "determinism violation: threaded runs diverged from threads=1"
        )

    # ---------------------------------------------------------------- #
    # Table 4-style: per-task working set vs threaded throughput.
    # ---------------------------------------------------------------- #
    cache_analysis: Dict[str, Dict[str, object]] = {}
    buckets = corpus_buckets(corpus, "word") + corpus_buckets(corpus, "doc")
    for max_cells in CACHE_SWEEP_CELLS:
        rate = timed_cache_point(corpus, args, recorded_threads, max_cells)
        cache_analysis[f"cells_{max_cells}"] = {
            "max_cells": max_cells,
            "working_set_bytes": working_set_bytes(
                buckets, max_cells, args.topics, 2
            ),
            "tokens_per_sec": round(rate, 1),
        }
        print(
            f"max_cells {max_cells:>8,}: "
            f"working set {cache_analysis[f'cells_{max_cells}']['working_set_bytes']:>12,} B  "
            f"{rate:>12,.0f} tok/s"
        )

    _harness.write_report(
        args.output,
        "thread_scaling",
        {
            "corpus": {
                "documents": corpus.num_documents,
                "tokens": corpus.num_tokens,
                "vocabulary": corpus.vocabulary_size,
            },
            "config": {
                "topics": args.topics,
                "iterations": args.iterations,
                "seed": args.seed,
                "threads": list(args.threads),
                "smoke": bool(args.smoke),
            },
            "bit_identical_across_threads": bit_identical,
            "scaling_model": {
                "contention": THREAD_SCALING_MODEL.contention,
                "numa_penalty": THREAD_SCALING_MODEL.numa_penalty,
                "numa_boundary": THREAD_SCALING_MODEL.numa_boundary,
            },
            "threads": scaling,
            "cache_analysis": cache_analysis,
        },
        telemetry=master,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
