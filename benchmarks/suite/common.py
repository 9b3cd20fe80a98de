"""What the workload processes share: paths, the child protocol, seeded inputs.

A workload module (``train.py``, ``serve.py``, ``stream.py``) is started by
``run.py`` as a plain child process.  It builds its inputs from ``--seed``,
calls :meth:`Child.ready` when set-up is over (the first measured unit comes
next), runs frozen unit counts, checks its outputs and prints one JSON object
on its last line: ``ready_at``, ``attempted``, ``failed``, ``checks`` (name ->
bool) and ``metrics`` (name -> value).  Units and bounds live in
``BENCHMARK.json`` only; the runner attaches them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

import procs

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"

#: The run length every unit count below was frozen for; ``--seconds`` scales
#: the counts in proportion, it never stops a loop by the clock.
RUN_SECONDS = 15

WORKLOADS = {
    "train_k64": "train.py",
    "train_k16k": "train.py",
    "serve_cold": "serve.py",
    "serve_hot": "serve.py",
    "stream_replay": "stream.py",
}


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the only place units and bounds are written down."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark needs the repo sources at {SRC}; none found")
    sys.path.insert(0, str(SRC))


def units(base: int, seconds: float, minimum: int = 2) -> int:
    """The frozen unit count for a run of ``seconds`` (``base`` at RUN_SECONDS)."""
    return max(minimum, round(base * seconds / RUN_SECONDS))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# ---------------------------------------------------------------------- #
# The child side of the runner <-> workload protocol
# ---------------------------------------------------------------------- #
class Child:
    """Arguments and clock of one workload process."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.trace: bool = bool(args.trace)
        self.smoke: bool = args.smoke
        self.run_id: str = args.run_id
        self.ready_at = 0.0

    def ready(self) -> None:
        """Set-up is over; the first measured unit comes next."""
        self.ready_at = time.monotonic()

    @property
    def scratch(self) -> Path:
        """This run's private directory under ``out/`` (removed by the runner)."""
        path = OUT / self.run_id
        path.mkdir(parents=True, exist_ok=True)
        return path


Workload = Callable[[Child], Tuple[int, int, Dict[str, bool], Dict[str, float]]]


def child_main(workload: Workload) -> None:
    """Entry point of a workload module: parse, run, print the result line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--parent", type=int, required=True)
    args = parser.parse_args()
    procs.die_with_parent(args.parent)
    # The traced serve_* staircase forks a WorkerPool in this process.
    procs.arm_forked_children()
    # Leave through the workload's ``finally`` blocks, not past them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = Child(args)
    attempted, failed, checks, metrics = workload(child)
    print(
        json.dumps(
            {
                "ready_at": child.ready_at,
                "attempted": attempted,
                "failed": failed,
                "checks": checks,
                "metrics": metrics,
            }
        )
    )


def remove_scratch(run_id: str) -> None:
    shutil.rmtree(OUT / run_id, ignore_errors=True)


def remove_orphaned_scratch() -> None:
    """Remove run directories whose runner is gone (it was SIGKILLed).

    A run id starts with its runner's pid; a killed runner cannot clean up.
    """
    for path in OUT.glob("*-*/"):
        pid = path.name.split("-")[0]
        if pid.isdigit() and not Path("/proc", pid).exists():
            shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Memory, read from /proc
# ---------------------------------------------------------------------- #
def _status_kib(path: Path, field: str) -> float:
    for line in path.read_text().splitlines():
        if line.startswith(field):
            return float(line.split()[1])
    raise KeyError(f"{field} not in {path}")


def vm_hwm_mib() -> float:
    """Peak resident set size of this process."""
    return _status_kib(Path("/proc/self/status"), "VmHWM:") / 1024.0


def pss_mib(pids: Iterable[int]) -> float:
    """Proportional set size summed over ``pids`` (shared pages counted once)."""
    return sum(
        _status_kib(Path(f"/proc/{pid}/smaps_rollup"), "Pss:") for pid in pids
    ) / 1024.0


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
class PlantedTopics:
    """``P`` planted topics over ``V`` words, each a Zipf law in its own word order.

    Every topic has a few heavy words of its own and a long tail shared with
    all the others, which is the shape that makes a corpus's word rows mostly
    short (thousands of words seen a handful of times) and a few very long.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, num_topics: int) -> None:
        weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -1.07
        self.rank_probabilities = weights / weights.sum()
        self._rank_cdf = np.cumsum(self.rank_probabilities)
        #: ``order[k, r]`` is the word at Zipf rank ``r`` of topic ``k``.
        self.order = np.stack([rng.permutation(vocab_size) for _ in range(num_topics)])
        self.vocab_size = vocab_size
        self.num_topics = num_topics

    def phi(self) -> np.ndarray:
        """The topics as a dense ``P x V`` matrix of word probabilities."""
        phi = np.empty((self.num_topics, self.vocab_size))
        np.put_along_axis(
            phi, self.order, np.broadcast_to(self.rank_probabilities, phi.shape), axis=1
        )
        return phi

    def documents(
        self,
        rng: np.random.Generator,
        num_documents: int,
        mean_length: int,
        concentration: float = 0.1,
    ) -> List[np.ndarray]:
        """Draw documents from the LDA generative process over these topics."""
        lengths = np.maximum(rng.poisson(mean_length, size=num_documents), 1)
        token_doc = np.repeat(np.arange(num_documents), lengths)
        theta = rng.dirichlet(np.full(self.num_topics, concentration), size=num_documents)
        # One searchsorted over all documents' topic CDFs laid end to end:
        # document d's CDF occupies (d, d + 1].
        stacked = (np.cumsum(theta, axis=1) + np.arange(num_documents)[:, None]).ravel()
        topics = np.searchsorted(stacked, rng.random(token_doc.size) + token_doc)
        topics = np.minimum(topics - token_doc * self.num_topics, self.num_topics - 1)
        ranks = np.minimum(
            np.searchsorted(self._rank_cdf, rng.random(token_doc.size)), self.vocab_size - 1
        )
        words = self.order[topics, ranks]
        return np.split(words, np.cumsum(lengths)[:-1])


def vocabulary_words(vocab_size: int) -> List[str]:
    return [f"w{index}" for index in range(vocab_size)]


def log_joint_sparse(
    token_documents: np.ndarray,
    token_words: np.ndarray,
    assignments: np.ndarray,
    doc_lengths: np.ndarray,
    vocab_size: int,
    num_topics: int,
    alpha: np.ndarray,
    beta: float,
) -> float:
    """``log p(W, Z | alpha, beta)`` from the non-zero counts only.

    The same quantity as ``WarpLDA.log_likelihood()``, which builds dense
    ``D x K`` and ``V x K`` count matrices (3.7 GB at K = 16384); here the
    non-zero cells come from sorting ``row * K + topic`` keys, so the cost is
    O(T log T) whatever K is.
    """
    from scipy.special import gammaln

    alpha_sum = float(alpha.sum())
    beta_sum = float(beta * vocab_size)
    doc_keys, doc_counts = np.unique(token_documents * num_topics + assignments, return_counts=True)
    doc_alpha = alpha[doc_keys % num_topics]
    total = float(np.sum(gammaln(doc_alpha + doc_counts) - gammaln(doc_alpha)))
    total += float(np.sum(gammaln(alpha_sum) - gammaln(alpha_sum + doc_lengths)))
    _, word_counts = np.unique(token_words * num_topics + assignments, return_counts=True)
    total += float(np.sum(gammaln(beta + word_counts) - gammaln(beta)))
    topic_counts = np.bincount(assignments, minlength=num_topics)
    total += float(np.sum(gammaln(beta_sum) - gammaln(beta_sum + topic_counts)))
    return total
