"""Where a WarpLDA sweep's time goes at K = 64, 1024 and 16384.

The paper claims O(1) work per token whatever K is.  The suite's
``train_k64`` / ``train_k16k`` workloads show the end-to-end gap; this
script splits one sweep of the same planted-topic corpus into the
sub-steps of ``repro.kernels.warp`` and reports each as ms per sweep:

* ``layout``  -- the chunk's per-token rows and flat token indices;
* ``build``   -- building the chunk's row counts (``_slot_counts``), plus
  releasing its slot-table workspace;
* ``lookup``  -- the chain's count reads at the proposals;
* ``chain``   -- the rest of the MH chain (Eq. 7's test, accept, carry);
* ``draw``    -- the next phase's proposals (random positioning mixture);
* ``gather``  -- everything else inside a chunk: gathering assignments
  and proposals, scattering them back;
* ``phase``   -- outside the chunks: chunk list, RNG spawn, ``c_k``.

The K values run interleaved, sweep by sweep, in one process, so a slow
stretch of the host lands on all of them.  The timers wrap module
functions and never touch an RNG; the script checks that every
instrumented trajectory hashes equal to an uninstrumented run of the same
seed, and exits non-zero otherwise.

Run::

    python benchmarks/bench_k_scaling.py            # suite-sized corpus
    python benchmarks/bench_k_scaling.py --smoke    # tiny, a few seconds
    python benchmarks/bench_k_scaling.py --src ../other-checkout/src
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "suite"))

import common  # noqa: E402

NUM_TOPICS = (64, 1024, 16384)
STEPS = ("layout", "build", "lookup", "chain", "draw", "gather", "phase")


class Timers:
    """Wall-clock totals of the wrapped kernel functions, per K."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.enabled = False

    def wrap(self, owner, name: str, step: str, inner: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        timers = self

        def timed(*args, **kwargs):
            if not timers.enabled:
                return original(*args, **kwargs)
            started = time.perf_counter()
            result = original(*args, **kwargs)
            timers.seconds[step] += time.perf_counter() - started
            return inner(result) if inner is not None else result

        setattr(owner, name, timed)

    def timed_lookup(self, built):
        """Time the lookup ``_slot_counts`` returns, separately from the build."""
        lookup, count_current = built

        def timed(topics):
            started = time.perf_counter()
            counts = lookup(topics)
            self.seconds["lookup"] += time.perf_counter() - started
            return counts

        return timed, count_current


def instrument(timers: Timers) -> None:
    from repro.kernels import buckets, warp

    timers.wrap(warp, "_chunk_body", "body")
    timers.wrap(warp, "token_layout", "layout")
    timers.wrap(buckets.SlabBucket, "token_indices", "layout")
    timers.wrap(warp, "_slot_counts", "build", inner=timers.timed_lookup)
    workspace = getattr(warp, "_SlotWorkspace", None)
    if workspace is not None:  # checkouts whose tables are built per chunk have none
        timers.wrap(workspace, "release", "build")
    timers.wrap(warp, "_run_chain", "chain_and_lookup")
    timers.wrap(warp, "positioning_mixture_proposal", "draw")


def split(seconds: Dict[str, float], sweep: float) -> Dict[str, float]:
    """The STEPS of one sweep, from the raw wrapped totals."""
    body = seconds["body"]
    steps = {
        "layout": seconds["layout"],
        "build": seconds["build"],
        "lookup": seconds["lookup"],
        "chain": seconds["chain_and_lookup"] - seconds["lookup"],
        "draw": seconds["draw"],
    }
    steps["gather"] = body - sum(steps.values())
    steps["phase"] = sweep - body
    return steps


def state_hash(sampler) -> str:
    digest = hashlib.sha256(sampler.assignments.tobytes())
    digest.update(sampler.proposals.tobytes())
    digest.update(repr(sampler.rng.bit_generator.state).encode())
    return digest.hexdigest()[:16]


def build_corpus(size: Dict[str, int], seed: int):
    from repro.corpus.corpus import Corpus, Document
    from repro.corpus.vocabulary import Vocabulary

    rng = np.random.default_rng(seed)
    planted = common.PlantedTopics(rng, size["vocab"], size["planted"])
    word_ids = planted.documents(rng, size["docs"], size["mean_length"])
    return Corpus(
        [Document(ids) for ids in word_ids],
        Vocabulary(common.vocabulary_words(size["vocab"])),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, few sweeps")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=None, help="the repro sources to time")
    args = parser.parse_args(argv)
    if args.src is None:
        common.use_repo_sources()
    else:
        sys.path.insert(0, str(args.src.resolve()))
    from repro.core.warplda import WarpLDA
    from train import FULL, SMOKE, WARMUP_SWEEPS

    size = SMOKE if args.smoke else FULL
    sweeps = 3 if args.smoke else 10
    corpus = build_corpus(size, args.seed)
    timers = Timers()
    instrument(timers)

    def sampler(num_topics):
        return WarpLDA(corpus, num_topics=num_topics, kernel="slab", threads=1, seed=args.seed)

    samplers = {k: sampler(k) for k in NUM_TOPICS}
    per_sweep: Dict[int, List[Dict[str, float]]] = {k: [] for k in NUM_TOPICS}
    for sweep in range(WARMUP_SWEEPS + sweeps):
        for num_topics, model in samplers.items():
            timers.seconds.clear()
            timers.enabled = True
            started = time.perf_counter()
            model.run_iteration()
            elapsed = time.perf_counter() - started
            timers.enabled = False
            if sweep >= WARMUP_SWEEPS:
                per_sweep[num_topics].append({"sweep": elapsed, **split(timers.seconds, elapsed)})

    print(
        f"corpus: {corpus.num_documents} docs, {corpus.num_tokens} tokens, "
        f"V = {corpus.vocabulary_size}; median of {sweeps} sweeps, ms per sweep"
    )
    print(f"{'K':>6} " + " ".join(f"{s:>7}" for s in STEPS) + f" {'sweep':>7} {'vs K=64':>8}")
    medians = {
        k: {key: float(np.median([row[key] for row in rows])) for key in rows[0]}
        for k, rows in per_sweep.items()
    }
    for num_topics, row in medians.items():
        ratio = medians[NUM_TOPICS[0]]["sweep"] / row["sweep"]
        cells = " ".join(f"{row[s] * 1e3:7.1f}" for s in STEPS)
        print(f"{num_topics:>6} {cells} {row['sweep'] * 1e3:7.1f} {ratio:8.2f}x")

    failed = []
    for num_topics, model in samplers.items():
        plain = sampler(num_topics)
        for _ in range(model.iterations_completed):
            plain.run_iteration()
        if state_hash(plain) != state_hash(model):
            failed.append(num_topics)
    if failed:
        print(f"FAILED: the instrumented trajectory differs from a plain run at K = {failed}")
        return 1
    print("trajectory hashes equal with and without the timers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
