"""Fig. 6: distributed convergence on a ClueWeb12-subset-like corpus.

The paper runs WarpLDA (M=4) and LightLDA (M=16) on 32 machines and shows
WarpLDA reaching the same log likelihood roughly 10x sooner.  This benchmark
runs both samplers on a scaled corpus and puts them on a modelled cluster time
axis: WarpLDA uses the simulated-cluster model directly (its delayed updates
make distributed execution equivalent to the single-process run), and LightLDA
uses the same compute-scaling model plus the parameter-server synchronisation
of its globally shared word-topic matrix.

Shape to reproduce: WarpLDA reaches LightLDA's final likelihood in a small
fraction of LightLDA's modelled time.
"""

import time

import pytest

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.distributed import ClusterConfig, DistributedWarpLDA, SimulatedCluster
from repro.distributed.scaling import MACHINE_SCALING_MODEL
from repro.evaluation import ConvergenceTracker, speedup_ratio, time_to_reach
from repro.report import format_table
from repro.samplers import LightLDASampler

NUM_WORKERS = 8
NUM_TOPICS = 50


def run_distributed_lightlda(corpus, num_iterations, tracker):
    """LightLDA under the same cluster model, plus parameter synchronisation.

    Every iteration the globally shared C_w matrix (V x K counts) has to be
    synchronised across workers — the cost WarpLDA avoids by only sharing the
    K-vector c_k (Sec. 5).
    """
    config = ClusterConfig(num_workers=NUM_WORKERS)
    # The scalar kernel is the paper's instant-update LightLDA; the slab kernel
    # is the delayed-count sweep, i.e. Fig. 7's LightLDA+DW+DD ablation point.
    sampler = LightLDASampler(
        corpus, num_topics=NUM_TOPICS, num_mh_steps=2, kernel="scalar", seed=0
    )
    sync_bytes = corpus.vocabulary_size * NUM_TOPICS * 8 * 2  # push + pull
    modelled = 0.0
    tracker.start()
    for iteration in range(1, num_iterations + 1):
        start = time.perf_counter()
        sampler.run_iteration()
        measured = time.perf_counter() - start
        compute = measured / MACHINE_SCALING_MODEL.speedup(NUM_WORKERS)
        communication = sync_bytes / config.network_bandwidth_bytes
        modelled += compute + communication
        tracker.record(
            iteration=iteration,
            log_likelihood=sampler.log_likelihood(),
            tokens_processed=iteration * corpus.num_tokens,
            elapsed_seconds=modelled,
        )
    return sampler


def run_figure6():
    # A ClueWeb12-subset-shaped corpus (T/D = 367) with genuine topical
    # structure, which is what the convergence comparison needs; the pure
    # power-law preset is reserved for the partitioning / cache benches.
    corpus = generate_lda_corpus(
        SyntheticCorpusSpec(
            num_documents=120,
            vocabulary_size=800,
            mean_document_length=367,
            num_topics=NUM_TOPICS,
        ),
        seed=0,
    )
    warp_tracker = ConvergenceTracker("WarpLDA (distributed)")
    DistributedWarpLDA(
        corpus,
        ClusterConfig(num_workers=NUM_WORKERS),
        num_topics=NUM_TOPICS,
        num_mh_steps=4,
        seed=0,
    ).fit(60, tracker=warp_tracker)

    light_tracker = ConvergenceTracker("LightLDA (distributed)")
    run_distributed_lightlda(corpus, num_iterations=8, tracker=light_tracker)
    return corpus, warp_tracker, light_tracker


def test_fig6_distributed_convergence(benchmark, emit):
    corpus, warp_tracker, light_tracker = benchmark.pedantic(
        run_figure6, rounds=1, iterations=1
    )

    rows = []
    for tracker in (warp_tracker, light_tracker):
        rows.append(
            {
                "Algorithm": tracker.label,
                "iterations": tracker.iterations[-1],
                "modelled seconds": round(tracker.times[-1], 3),
                "final log-likelihood": round(tracker.final_log_likelihood, 1),
            }
        )
    target = light_tracker.final_log_likelihood
    ratio = speedup_ratio(light_tracker, warp_tracker, target, metric="time")
    rows.append(
        {
            "Algorithm": "speedup of WarpLDA to reach LightLDA's final likelihood",
            "modelled seconds": ratio,
        }
    )
    emit(
        "fig6_distributed_convergence",
        format_table(rows, title=f"Fig. 6: distributed convergence ({NUM_WORKERS} simulated workers)"),
    )

    warp_time = time_to_reach(warp_tracker, target)
    assert warp_time is not None, "WarpLDA never reached LightLDA's final likelihood"
    assert ratio is not None and ratio > 2.0
