"""Real multiprocess data-parallel training (the paper's Sec. 5, executed).

* :class:`~repro.training.parallel.ParallelTrainer` shards a corpus by
  document across N ``multiprocessing`` workers, samples every shard locally
  against counts frozen at the epoch barrier, and merges the word-topic count
  deltas — the synchronous data-parallel recipe of distributed online LDA
  (Hoffman et al., 2010; gensim's ``ldamulticore``) that WarpLDA's delayed
  count updates make principled;
* :class:`~repro.training.checkpoint.Checkpoint` persists a mid-training
  state (serving snapshot + per-worker sampler state + RNG streams) so a run
  can be resumed bit-exactly (``python -m repro train --backend parallel
  --checkpoint-dir DIR [--resume]`` is the command-line door).
"""

from repro.training.checkpoint import Checkpoint
from repro.training.parallel import (
    SAMPLER_REGISTRY,
    ParallelTrainer,
    contiguous_shards,
)

__all__ = [
    "Checkpoint",
    "ParallelTrainer",
    "SAMPLER_REGISTRY",
    "contiguous_shards",
]
