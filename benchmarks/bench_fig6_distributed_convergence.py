"""Fig. 6: distributed convergence on a ClueWeb12-subset-like corpus.

The paper runs WarpLDA (M=4) and LightLDA (M=16) on 32 machines and shows
WarpLDA reaching the same log likelihood roughly 10x sooner.  This benchmark
trains both samplers through the same data-parallel trainer
(:class:`repro.training.ParallelTrainer`, two process workers, document
shards merged at every epoch barrier) on a scaled corpus.  The time axis is
the wall clock ``ParallelTrainer.train`` records, including the barriers.

Shape to reproduce: WarpLDA reaches LightLDA's final likelihood in a small
fraction of LightLDA's measured time.
"""

from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.evaluation import ConvergenceTracker, speedup_ratio, time_to_reach
from repro.report import format_table
from repro.training import ParallelTrainer

NUM_WORKERS = 2
NUM_TOPICS = 50


def train_parallel(corpus, label, num_epochs, **config):
    tracker = ConvergenceTracker(label)
    with ParallelTrainer(
        corpus,
        num_workers=NUM_WORKERS,
        num_topics=NUM_TOPICS,
        seed=0,
        backend="process",
        **config,
    ) as trainer:
        trainer.train(num_epochs, tracker=tracker)
    return tracker


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
    warp_tracker = train_parallel(
        corpus, "WarpLDA (M=4)", 60, sampler="warplda", num_mh_steps=4
    )
    # The paper's instant-update LightLDA; its delayed-count form is Fig. 7's
    # LightLDA+DW+DD ablation point (repro.core.variants).
    light_tracker = train_parallel(
        corpus, "LightLDA (M=2)", 8, sampler="lightlda", num_mh_steps=2
    )
    return corpus, warp_tracker, light_tracker


def test_fig6_distributed_convergence(benchmark, emit):
    corpus, warp_tracker, light_tracker = benchmark.pedantic(
        run_figure6, rounds=1, iterations=1
    )

    target = light_tracker.final_log_likelihood
    rows = []
    for tracker in (warp_tracker, light_tracker):
        reached = time_to_reach(tracker, target)
        rows.append(
            {
                "Algorithm": tracker.label,
                "epochs": tracker.iterations[-1],
                "seconds": round(tracker.times[-1], 3),
                "final log-likelihood": round(tracker.final_log_likelihood, 1),
                "seconds to LightLDA's final": (
                    "never" if reached is None else round(reached, 3)
                ),
            }
        )
    ratio = speedup_ratio(light_tracker, warp_tracker, target, metric="time")
    rows.append(
        {
            "Algorithm": "speedup of WarpLDA to reach LightLDA's final likelihood",
            "seconds": ratio,
        }
    )
    emit(
        "fig6_distributed_convergence",
        format_table(
            rows,
            title=(
                f"Fig. 6: distributed convergence, measured "
                f"({NUM_WORKERS} process workers, {corpus.num_tokens} tokens)"
            ),
        ),
    )

    assert time_to_reach(warp_tracker, target) is not None, (
        "WarpLDA never reached LightLDA's final likelihood"
    )
    assert ratio is not None and ratio > 2.0
