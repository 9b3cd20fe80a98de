"""Fig. 9: scalability of data-parallel WarpLDA, measured.

The paper's panels are thread scaling on one machine (9a), machine scaling
(9b), convergence on ClueWeb12 with K=10^6 (9c) and throughput at 256
machines (9d).  This benchmark measures what the repository can run:

* 9a/9b — one table: serial ``WarpLDA``, then
  :class:`repro.training.ParallelTrainer` with 1 and 2 process workers, each
  with wall-clock seconds, speed-up over serial and held-out perplexity gap
  to the serial model after the same number of sweeps;
* 9c — a ClueWeb-like convergence run through the 2-worker trainer, on the
  wall clock ``ParallelTrainer.train`` records.

9d is not reproduced: nothing here can measure 256 machines.  The paper's
reported speed-ups are printed as quoted reference points, not asserted.

The script asserts quality parity (every parallel model within 2% of the
serial held-out perplexity) and 9c's likelihood progress.  It asserts no
speed-up bound: the epoch-barrier trainer exchanges a dense V x K count
matrix per worker per epoch, and its 2-worker speed-up stays near 1x and
moves with host load (0.6-1.2x on a 2-core VM).  A speed-up bound arrives
with lockstep shared-memory workers (ROADMAP item 1).
"""

import _harness
from repro.core import WarpLDA
from repro.corpus import load_preset
from repro.evaluation import ConvergenceTracker
from repro.evaluation.perplexity import held_out_perplexity
from repro.report import format_table
from repro.training import ParallelTrainer

NUM_TOPICS = 20
NUM_EPOCHS = 20
WORKER_COUNTS = (1, 2)
SCALE = 0.6
SEED = 0

#: The speed-ups the paper reports in Fig. 9, quoted for reference.
PAPER_THREAD_SPEEDUP = (24, 17.0)  # (cores, speed-up) on one machine
PAPER_MACHINE_SPEEDUP = (16, 13.5)  # (machines, speed-up) on PubMed


def run_scaling_table():
    corpus = load_preset("nytimes_like", scale=SCALE, seed=SEED)
    train, heldout = corpus.split(train_fraction=0.85, seed=SEED)

    serial = WarpLDA(train, num_topics=NUM_TOPICS, seed=SEED)
    _, serial_seconds = _harness.timed(serial.fit, NUM_EPOCHS)
    serial_perplexity = held_out_perplexity(heldout, serial.phi(), serial.alpha)
    rows = [
        {
            "trainer": "serial WarpLDA",
            "seconds": serial_seconds,
            "speedup": 1.0,
            "perplexity": serial_perplexity,
            "gap_pct": 0.0,
        }
    ]
    for workers in WORKER_COUNTS:
        with ParallelTrainer(
            train,
            num_workers=workers,
            num_topics=NUM_TOPICS,
            seed=SEED,
            backend="process",
        ) as trainer:
            _, seconds = _harness.timed(trainer.train, NUM_EPOCHS)
            perplexity = held_out_perplexity(heldout, trainer.phi(), trainer.alpha)
        rows.append(
            {
                "trainer": f"ParallelTrainer, {workers} process worker(s)",
                "seconds": seconds,
                "speedup": serial_seconds / seconds,
                "perplexity": perplexity,
                "gap_pct": 100.0 * (perplexity - serial_perplexity) / serial_perplexity,
            }
        )
    return train, rows


def run_clueweb_panel():
    corpus = load_preset("clueweb_like", scale=0.2, seed=SEED)
    tracker = ConvergenceTracker("ClueWeb-like, 2 process workers")
    with ParallelTrainer(
        corpus,
        num_workers=2,
        num_topics=100,
        num_mh_steps=1,
        beta=0.001,
        seed=SEED,
        backend="process",
    ) as trainer:
        trainer.train(15, tracker=tracker)
    return tracker


def test_fig9_scalability(benchmark, emit):
    corpus, rows = benchmark.pedantic(run_scaling_table, rounds=1, iterations=1)
    clueweb_tracker = run_clueweb_panel()

    cores, thread_speedup = PAPER_THREAD_SPEEDUP
    machines, machine_speedup = PAPER_MACHINE_SPEEDUP
    blocks = [
        format_table(
            [
                {
                    "trainer": row["trainer"],
                    "seconds": f"{row['seconds']:.2f}",
                    "speedup": f"{row['speedup']:.2f}x",
                    "perplexity": f"{row['perplexity']:.1f}",
                    "vs serial": f"{row['gap_pct']:+.2f}%",
                }
                for row in rows
            ],
            title=(
                f"Fig. 9a/9b: measured scaling ({corpus.num_documents} docs, "
                f"{corpus.num_tokens} tokens, K={NUM_TOPICS}, {NUM_EPOCHS} epochs)\n"
                f"paper (reference only): {thread_speedup}x at {cores} cores, "
                f"{machine_speedup}x at {machines} machines"
            ),
        ),
        format_table(
            [
                {
                    "epoch": record.iteration,
                    "seconds": round(record.elapsed_seconds, 3),
                    "log likelihood": round(record.log_likelihood, 1),
                }
                for record in clueweb_tracker.records[::3]
            ],
            title=f"Fig. 9c: {clueweb_tracker.label}, measured convergence",
        ),
    ]
    emit("fig9_scalability", "\n\n".join(blocks))

    # Quality parity is hardware-independent: every parallel model must land
    # within 2% of the serial sampler's held-out perplexity.
    for row in rows[1:]:
        assert abs(row["gap_pct"]) < 2.0, row
    assert clueweb_tracker.log_likelihoods[-1] > clueweb_tracker.log_likelihoods[0]
