"""Walkthrough: shard → train → checkpoint → resume → serve.

Trains WarpLDA with the multiprocess data-parallel trainer, interrupts the
run at a checkpoint, resumes it bit-exactly, and serves the final model with
the micro-batching topic server — the full production loop in one script.

Run with::

    PYTHONPATH=src python examples/parallel_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.corpus import load_preset
from repro.serving import InferenceEngine, TopicServer
from repro.training import ParallelTrainer, contiguous_shards

NUM_TOPICS = 15
NUM_WORKERS = 4
SEED = 0


def main() -> None:
    corpus = load_preset("nytimes_like", scale=0.2, seed=SEED)
    print(f"corpus: {corpus.num_documents} docs, {corpus.num_tokens} tokens")

    # 1. Sharding — contiguous document ranges with balanced token counts,
    #    each a zero-copy view of the corpus.
    boundaries = contiguous_shards(corpus.document_lengths(), NUM_WORKERS)
    for worker in range(NUM_WORKERS):
        shard = corpus.slice(int(boundaries[worker]), int(boundaries[worker + 1]))
        print(
            f"  shard {worker}: docs [{boundaries[worker]}, "
            f"{boundaries[worker + 1]}), {shard.num_tokens} tokens"
        )

    checkpoint_dir = Path(tempfile.mkdtemp()) / "checkpoint"

    # 2. Train for 6 epochs across real worker processes, then checkpoint.
    with ParallelTrainer(
        corpus, num_workers=NUM_WORKERS, num_topics=NUM_TOPICS, seed=SEED
    ) as trainer:
        trainer.train(6, checkpoint_dir=checkpoint_dir)
        print(f"\nafter 6 epochs: log likelihood {trainer.log_likelihood():.1f}")
        print(f"checkpoint written to {checkpoint_dir}")

    # 3. Resume from disk — the trainer continues the exact RNG streams, so
    #    this run is bit-identical to one that never stopped.
    with ParallelTrainer.resume(checkpoint_dir, corpus) as trainer:
        trainer.train(6)
        print(f"after resume +6 epochs: log likelihood {trainer.log_likelihood():.1f}")
        snapshot = trainer.export_snapshot()

    print(f"snapshot provenance: {snapshot.metadata['resumed_from']}")

    # 4. Serve the merged model: the snapshot drops straight into the
    #    serving stack from the model-serving subsystem.
    server = TopicServer(InferenceEngine(snapshot, seed=SEED))
    queries = [corpus.document_words(d) for d in range(4)]
    theta = server.infer_batch(queries)
    for row, proportions in enumerate(theta):
        top = np.argsort(proportions)[::-1][:3]
        formatted = ", ".join(f"topic {t}: {proportions[t]:.2f}" for t in top)
        print(f"  doc {row}: {formatted}")
    print("\n" + server.stats().summary())


if __name__ == "__main__":
    main()
