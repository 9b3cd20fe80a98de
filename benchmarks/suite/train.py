"""Workloads ``train_k64`` and ``train_k16k``: serial WarpLDA sweeps.

One seeded planted-topic corpus, one sampler seed, two values of K.  K = 64
is where the MH chain, the proposal draws and the scatter are the whole cost;
K = 16384 is the paper's regime (K far above document length), where the
dense ``(rows, K)`` histograms of ``repro.kernels.warp`` dominate.  A
K-scaling fix claims its gain on ``train_k16k`` and must not slow
``train_k64``.

The traced run drives a second sampler through the public entry points
``run_iteration()`` itself uses -- ``corpus_buckets``, ``kernels.warp.word_phase``,
``kernels.warp.document_phase`` and ``np.bincount`` over the sampler's public
state -- one sweep of it after each sweep of an untraced sampler at the same
seed, and checks at the end that the two are bit-identical.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

import common
from common import Child, median
from spans import Recorder

common.use_repo_sources()

from repro.core.warplda import WarpLDA  # noqa: E402
from repro.corpus.corpus import Corpus, Document  # noqa: E402
from repro.corpus.vocabulary import Vocabulary  # noqa: E402
from repro.kernels.buckets import corpus_buckets  # noqa: E402
from repro.kernels.warp import document_phase, word_phase  # noqa: E402

NUM_TOPICS = {"train_k64": 64, "train_k16k": 16384}
#: Measured sweeps in a RUN_SECONDS run (0.24 s and 1.0 s per sweep here).
SWEEPS = {"train_k64": 60, "train_k16k": 14}
WARMUP_SWEEPS = 2
FULL = {"docs": 8000, "vocab": 20000, "planted": 50, "mean_length": 80}
SMOKE = {"docs": 300, "vocab": 1500, "planted": 10, "mean_length": 40}
#: Above this K ``WarpLDA.log_likelihood()`` is not called: it would build
#: dense D x K and V x K count matrices.
DENSE_LOGLIK_MAX_TOPICS = 1024


def build_sampler(corpus: Corpus, num_topics: int, seed: int) -> WarpLDA:
    return WarpLDA(corpus, num_topics=num_topics, kernel="slab", threads=1, seed=seed)


def replay_sweep(
    sampler: WarpLDA, recorder: Recorder, word_stats: dict, doc_stats: dict
) -> None:
    """One ``run_iteration()`` made of its public parts, a span around each."""
    num_topics = sampler.num_topics
    word_buckets = corpus_buckets(sampler.corpus, "word")
    doc_buckets = corpus_buckets(sampler.corpus, "doc")
    with recorder.span("core.warplda.sweep"):
        stale = sampler.topic_counts.astype(np.float64)
        with recorder.span("kernels.warp.word_phase"):
            word_phase(
                sampler.assignments,
                sampler.proposals,
                word_buckets,
                stale,
                num_topics,
                sampler.num_mh_steps,
                sampler.beta,
                sampler.beta_sum,
                sampler.rng,
                chain_stats=word_stats,
                threads=1,
            )
        sampler.topic_counts = np.bincount(sampler.assignments, minlength=num_topics)
        stale = sampler.topic_counts.astype(np.float64)
        with recorder.span("kernels.warp.doc_phase"):
            document_phase(
                sampler.assignments,
                sampler.proposals,
                doc_buckets,
                stale,
                sampler.alpha,
                sampler.alpha_sum,
                num_topics,
                sampler.num_mh_steps,
                sampler.beta_sum,
                sampler.rng,
                chain_stats=doc_stats,
                threads=1,
            )
        sampler.topic_counts = np.bincount(sampler.assignments, minlength=num_topics)
        sampler.iterations_completed += 1


def same_state(a: WarpLDA, b: WarpLDA) -> bool:
    return (
        np.array_equal(a.assignments, b.assignments)
        and np.array_equal(a.proposals, b.proposals)
        and np.array_equal(a.topic_counts, b.topic_counts)
        and a.rng.bit_generator.state == b.rng.bit_generator.state
    )


def run(child: Child) -> Tuple[int, int, Dict[str, bool], Dict[str, float]]:
    size = SMOKE if child.smoke else FULL
    num_topics = NUM_TOPICS[child.workload]
    recorder = Recorder(child.run_id)

    # ---- set-up: inputs, corpus, both bucket axes, sampler ------------- #
    rng = np.random.default_rng(child.seed)
    planted = common.PlantedTopics(rng, size["vocab"], size["planted"])
    word_ids = planted.documents(rng, size["docs"], size["mean_length"])
    with recorder.span("corpus.build"):
        corpus = Corpus(
            [Document(ids) for ids in word_ids],
            Vocabulary(common.vocabulary_words(size["vocab"])),
        )
    with recorder.span("kernels.buckets.build"):
        buckets = corpus_buckets(corpus, "word") + corpus_buckets(corpus, "doc")
    with recorder.span("core.warplda.init"):
        sampler = build_sampler(corpus, num_topics, child.seed)
    num_tokens = corpus.num_tokens

    def nll_per_token(model: WarpLDA) -> float:
        return -common.log_joint_sparse(
            corpus.token_documents,
            corpus.token_words,
            model.assignments,
            corpus.document_lengths(),
            corpus.vocabulary_size,
            num_topics,
            model.alpha,
            model.beta,
        ) / num_tokens

    random_nll = nll_per_token(sampler)
    replayed = build_sampler(corpus, num_topics, child.seed) if child.trace else None
    child.ready()

    # ---- measured work: frozen sweep counts ---------------------------- #
    measured = common.units(SWEEPS[child.workload], child.seconds)
    word_stats = {"proposed": 0, "accepted": 0}
    doc_stats = {"proposed": 0, "accepted": 0}
    sweep_seconds = []
    if replayed is None:
        for sweep in range(WARMUP_SWEEPS + measured):
            started = time.perf_counter()
            sampler.run_iteration()
            if sweep >= WARMUP_SWEEPS:
                sweep_seconds.append(time.perf_counter() - started)
    else:
        # Each sampler gets half the sweeps.  They take turns going first, so a
        # burst on the host, or what the other left in the caches, lands on
        # both sides of the overhead ratio.
        measured = max(2, measured // 2)
        unreported = ({"proposed": 0, "accepted": 0}, {"proposed": 0, "accepted": 0})
        for sweep in range(WARMUP_SWEEPS + measured):
            warm = sweep < WARMUP_SWEEPS
            stats = unreported if warm else (word_stats, doc_stats)
            if sweep % 2:
                replay_sweep(replayed, recorder, *stats)
            started = time.perf_counter()
            sampler.run_iteration()
            elapsed = time.perf_counter() - started
            if not sweep % 2:
                replay_sweep(replayed, recorder, *stats)
            if not warm:
                sweep_seconds.append(elapsed)

    # ---- checks --------------------------------------------------------- #
    final_nll = nll_per_token(sampler)
    checks = {
        "topic_counts_match_assignments": bool(
            np.array_equal(
                sampler.topic_counts, np.bincount(sampler.assignments, minlength=num_topics)
            )
        ),
        "nll_below_random_init": final_nll < random_nll,
        "all_sweeps_ran": sampler.iterations_completed == WARMUP_SWEEPS + measured,
    }
    dense_loglik_seconds = 0.0
    if num_topics <= DENSE_LOGLIK_MAX_TOPICS:
        started = time.perf_counter()
        dense = sampler.log_likelihood()
        dense_loglik_seconds = time.perf_counter() - started
        checks["sparse_loglik_equals_dense"] = bool(
            abs(-final_nll * num_tokens - dense) <= 1e-9 * abs(dense)
        )

    sweep = median(sweep_seconds)
    if replayed is None:
        metrics = {
            "tokens_per_s": num_tokens / sweep,
            "docs_per_s": corpus.num_documents / sweep,
            "rps": 1.0 / sweep,
            "latency_p50_ms": sweep * 1e3,
            "servable_p50_ms": sweep * 1e3,
            "nll_per_token": final_nll,
            "peak_rss_mb": common.vm_hwm_mib(),
        }
        return measured, 0, checks, metrics

    checks["replay_bit_identical"] = same_state(sampler, replayed)
    # The last ``measured`` spans of each name: warm-up sweeps are not reported.
    traced_sweep = median(recorder.durations("core.warplda.sweep")[-measured:])
    real_cells = sum(int(bucket.mask.sum()) for bucket in buckets)
    padded_cells = sum(bucket.mask.size for bucket in buckets)
    metrics = {
        "corpus.build_s": recorder.durations("corpus.build")[0],
        "kernels.buckets.build_s": recorder.durations("kernels.buckets.build")[0],
        "core.warplda.init_s": recorder.durations("core.warplda.init")[0],
        "kernels.buckets.fill_ratio": real_cells / padded_cells,
        "kernels.warp.word_phase_s": median(recorder.self_times("kernels.warp.word_phase")[-measured:]),
        "kernels.warp.doc_phase_s": median(recorder.self_times("kernels.warp.doc_phase")[-measured:]),
        "core.warplda.rest_s": median(recorder.self_times("core.warplda.sweep")[-measured:]),
        "kernels.warp.word_phase_accept_ratio": word_stats["accepted"] / word_stats["proposed"],
        "kernels.warp.doc_phase_accept_ratio": doc_stats["accepted"] / doc_stats["proposed"],
        "evaluation.loglik_s": dense_loglik_seconds,
        "bench.trace_overhead_ratio": traced_sweep / sweep,
    }
    recorder.dump(common.OUT / f"trace-{child.workload}-{child.seed}.jsonl")
    return measured, 0, checks, metrics


if __name__ == "__main__":
    common.child_main(run)
