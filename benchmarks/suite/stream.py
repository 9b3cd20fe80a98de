"""Workload ``stream_replay``: writes beside reads, in one process.

Raw-token documents go through ``DocumentStream.batches`` (128 per batch) ->
``StreamingPipeline.ingest`` (WarpLDA, K = 64, a 2048-document window, two
sweeps per batch, a publish per batch) -> ``ModelRegistry.publish`` ->
``TopicServer.refresh``, and between batches 16 queries go to the same
hot-swapping ``TopicServer``.  It uses the warp kernels the training
workloads use, but differently (small windows, incremental bucket
maintenance, per-call overhead), and the ``TopicServer`` the serving
workloads use, but while the model under it is being rewritten: a gain bought
by deferring work to the publish, or to the first query after a swap, shows
here as a loss.

The traced run replays the same documents through a second pipeline made of
the four public calls ``StreamingPipeline.ingest`` makes
(``trainer.ingest``, ``trainer.export_snapshot``, ``registry.publish``,
``server.refresh``), one step of it after each step of the real pipeline, and
checks that every publish carries the same phi bytes.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, Iterator, List, Tuple

import numpy as np

import common
from common import Child, median, percentile
from spans import Recorder

common.use_repo_sources()

from repro.serving.infer import InferenceEngine  # noqa: E402
from repro.serving.server import TopicServer  # noqa: E402
from repro.streaming import (  # noqa: E402
    DocumentStream,
    MiniBatch,
    ModelRegistry,
    OnlineTrainer,
    StreamingPipeline,
)

FULL = {"vocab": 10000, "planted": 32, "mean_length": 60, "held_out": 500}
SMOKE = {"vocab": 1000, "planted": 8, "mean_length": 30, "held_out": 40}
#: Measured replay steps (batches) in a RUN_SECONDS run, after one set-up batch.
BATCHES = 80
BATCH_DOCS = 128
QUERIES_PER_BATCH = 16
NUM_TOPICS = 64
WINDOW_DOCS = 2048
SWEEPS_PER_BATCH = 2


class Replay:
    """One trainer, registry, stream and hot-swapping server over the documents."""

    def __init__(self, documents: List[List[str]], seed: int, window_docs: int) -> None:
        self.trainer = OnlineTrainer(
            num_topics=NUM_TOPICS,
            sampler="warplda",
            kernel="slab",
            threads=1,
            window_docs=window_docs,
            sweeps_per_batch=SWEEPS_PER_BATCH,
            seed=seed,
        )
        self.registry = ModelRegistry()
        self.pipeline = StreamingPipeline(self.trainer, self.registry, publish_every=1)
        self.stream = DocumentStream(self.trainer.corpus.vocabulary, batch_docs=BATCH_DOCS)
        self.batches: Iterator[MiniBatch] = self.stream.batches(documents)
        self.seed = seed
        self.server: TopicServer
        self.phi_digests: List[str] = []

    def serve_from_registry(self) -> None:
        """Bring the server up on the first published version and keep it hot."""
        self.server = TopicServer.from_registry(self.registry, seed=self.seed)
        self.pipeline.server = self.server

    def digest_current(self) -> None:
        """Remember the phi bytes of the version just published (traced runs)."""
        phi = self.registry.current().snapshot.phi
        self.phi_digests.append(hashlib.sha256(phi.tobytes()).hexdigest())


def run(child: Child) -> Tuple[int, int, Dict[str, bool], Dict[str, float]]:
    size = SMOKE if child.smoke else FULL
    steps = common.units(BATCHES, child.seconds, minimum=4)
    if child.trace:
        steps = max(4, steps // 2)  # two pipelines share the run
    window_docs = WINDOW_DOCS // 8 if child.smoke else WINDOW_DOCS
    recorder = Recorder(child.run_id)

    # ---- set-up: documents, pipeline, first batch trained+published+served -- #
    rng = np.random.default_rng(child.seed)
    planted = common.PlantedTopics(rng, size["vocab"], size["planted"])
    words = np.array(common.vocabulary_words(size["vocab"]), dtype=object)
    num_documents = (1 + steps) * BATCH_DOCS

    def raw(count: int) -> List[List[str]]:
        return [words[ids].tolist() for ids in planted.documents(rng, count, size["mean_length"])]

    documents = raw(num_documents)
    queries = raw((1 + steps) * QUERIES_PER_BATCH)
    held_out = raw(size["held_out"])

    real = Replay(documents, child.seed, window_docs)
    real.pipeline.ingest(next(real.batches))
    real.serve_from_registry()
    real.server.infer_batch(queries[:QUERIES_PER_BATCH])
    replayed = None
    if child.trace:
        replayed = Replay(documents, child.seed, window_docs)
        replayed.pipeline.ingest(next(replayed.batches))
        replayed.serve_from_registry()
        # Seen from outside: every call into the corpus layer gets a span.
        append = replayed.trainer.corpus.append

        def traced_append(batch_documents):
            with recorder.span("streaming.corpus.append"):
                return append(batch_documents)

        replayed.trainer.corpus.append = traced_append
    child.ready()

    # ---- measured work: frozen batch count --------------------------------- #
    step_seconds, batch_seconds, query_seconds, first_query_seconds = [], [], [], []
    reports = []
    failed = 0
    def real_step(step_queries: List[List[str]]) -> None:
        nonlocal failed
        started = time.perf_counter()
        batch = next(real.batches)
        assembled = time.perf_counter()
        reports.append(real.pipeline.ingest(batch))
        for position, query in enumerate(step_queries):
            asked = time.perf_counter()
            theta = real.server.infer_batch([query])
            answered = time.perf_counter()
            (first_query_seconds if position == 0 else query_seconds).append(answered - asked)
            if theta.shape != (1, NUM_TOPICS) or abs(theta.sum() - 1.0) > 1e-9:
                failed += 1
        step_seconds.append(time.perf_counter() - started)
        batch_seconds.append(assembled - started)

    for step in range(1, steps + 1):
        step_queries = queries[step * QUERIES_PER_BATCH : (step + 1) * QUERIES_PER_BATCH]
        if replayed is None:
            real_step(step_queries)
            continue
        # The two pipelines take turns going first, so neither always runs on
        # what the other left in the caches and the allocator.
        if step % 2:
            real_step(step_queries)
            traced_step(replayed, recorder, step_queries)
        else:
            traced_step(replayed, recorder, step_queries)
            real_step(step_queries)
        real.digest_current()
        replayed.digest_current()

    # ---- checks ----------------------------------------------------------- #
    engine = InferenceEngine(real.registry.current().snapshot)
    held_out_nll = math.log(engine.held_out_perplexity(held_out))
    servable = [report.ingest_to_servable_seconds for report in reports]
    checks = {
        "every_document_ingested": real.trainer.documents_ingested == num_documents
        and real.stream.stats.documents == num_documents,
        "every_batch_published": all(report.published is not None for report in reports)
        and real.registry.current_version == 1 + steps,
        "served_version_is_last_publish": real.server.served_version == 1 + steps,
        "no_query_failed": failed == 0,
    }
    attempted = steps * (1 + QUERIES_PER_BATCH)

    if replayed is None:
        step = median(step_seconds)
        batch_tokens = median(report.update.tokens_added for report in reports)
        query = median(query_seconds + first_query_seconds)
        metrics = {
            "docs_per_s": BATCH_DOCS / step,
            "tokens_per_s": batch_tokens / step,
            "servable_p50_ms": median(servable) * 1e3,
            "rps": 1.0 / query,
            "latency_p50_ms": query * 1e3,
            "nll_per_token": held_out_nll,
            "peak_rss_mb": common.vm_hwm_mib(),
        }
        return attempted, failed, checks, metrics

    checks["replay_published_same_phi"] = replayed.phi_digests == real.phi_digests
    corpus = replayed.trainer.corpus
    reuses = sum(corpus.bucket_reuses.values())
    rebuilds = sum(corpus.bucket_rebuilds.values())
    metrics = {
        "streaming.stream.batch_s": median(batch_seconds),
        "streaming.online.train_s": median(report.update.train_seconds for report in reports),
        "streaming.corpus.append_s": median(recorder.durations("streaming.corpus.append")),
        "streaming.corpus.bucket_reuse_ratio": reuses / max(1, reuses + rebuilds),
        "streaming.online.export_s": median(recorder.durations("streaming.online.export_snapshot")),
        "streaming.registry.publish_s": median(recorder.durations("streaming.registry.publish")),
        "serving.server.refresh_s": median(recorder.durations("serving.server.refresh")),
        "serving.server.query_ms": median(query_seconds) * 1e3,
        "serving.server.first_query_after_swap_ms": median(first_query_seconds) * 1e3,
        "streaming.pipeline.self_s": median(
            report.ingest_seconds - report.update.train_seconds - report.publish_seconds
            for report in reports
        ),
        "streaming.pipeline.servable_p90_ms": percentile(servable, 90) * 1e3,
        "bench.trace_overhead_ratio": median(recorder.durations("bench.replay.step"))
        / median(step_seconds),
    }
    recorder.dump(common.OUT / f"trace-{child.workload}-{child.seed}.jsonl")
    return attempted, failed, checks, metrics


def traced_step(replay: Replay, recorder: Recorder, queries: List[List[str]]) -> None:
    """One replay step as ``StreamingPipeline.ingest`` makes it, a span per call."""
    with recorder.span("bench.replay.step"):
        with recorder.span("streaming.stream.batch"):
            batch = next(replay.batches)
        with recorder.span("streaming.pipeline.ingest"):
            with recorder.span("streaming.online.ingest"):
                update = replay.trainer.ingest(batch)
            with recorder.span("streaming.online.export_snapshot"):
                snapshot = replay.trainer.export_snapshot()
            with recorder.span("streaming.registry.publish"):
                replay.registry.publish(snapshot, batch_index=update.batch_index)
            with recorder.span("serving.server.refresh"):
                replay.server.refresh()
        for query in queries:
            with recorder.span("serving.server.infer_batch"):
                replay.server.infer_batch([query])


if __name__ == "__main__":
    common.child_main(run)
