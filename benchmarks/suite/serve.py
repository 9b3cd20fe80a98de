"""Workloads ``serve_cold`` and ``serve_hot``: ``TopicService`` over loopback.

One synthetic snapshot (K = 256, V = 20000), one service with the shipped
``ServiceConfig`` (two workers, EM fold-in), one single-threaded load
generator with two keep-alive connections.  ``serve_cold`` sends requests of
16 never-repeated documents, so every request crosses HTTP parse, admission,
the pipe, fold-in, the pipe and JSON, and fold-in is most of the work.
``serve_hot`` cycles 64 single-document requests that every worker's LRU
already holds, so fold-in is bypassed and only ``repro.service.http`` +
``repro.service.pool`` + pickle/JSON remain: a fold-in optimisation must show
on the first and not on the second, a front-end one the other way round.

Each run has a closed-loop phase (a connection sends its next request when
the previous answer lands; capacity) and an open-loop phase (seeded Poisson
arrivals at a frozen rate of about a quarter of that capacity, each request timed
from when it was *due*; latency).  Request counts are frozen.

The traced run adds the serving staircase: the same documents, one request at
a time, through ``InferenceEngine.infer_ids``, ``TopicServer.infer_batch``, a
direct ``WorkerPool.submit`` -> ``get_result`` and the HTTP round trip, so
each layer's own cost is the difference to the step below it.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

import common
from common import Child, median, percentile
from spans import Recorder

common.use_repo_sources()

from repro.corpus.vocabulary import Vocabulary  # noqa: E402
from repro.service import ServiceConfig, WorkerPool  # noqa: E402
from repro.serving.infer import InferenceEngine, perplexity_from_theta  # noqa: E402
from repro.serving.server import TopicServer  # noqa: E402
from repro.serving.snapshot import ModelSnapshot  # noqa: E402

FULL = {"topics": 256, "vocab": 20000}
SMOKE = {"topics": 32, "vocab": 2000}
#: Per workload: documents per request, mean document length, requests of the
#: warm-up, closed-loop and open-loop phases in a RUN_SECONDS run, open-loop
#: arrivals per second (a quarter of the closed-loop capacity measured on this
#: host, so that queueing does not amplify the host's noise into the latency),
#: and one-at-a-time requests per staircase step of the traced run.
#: The warm-up is two seconds of closed-loop traffic: completions per second
#: climb by a fifth over the first two seconds of load and are level after.
TRAFFIC = {
    "serve_cold": {
        "docs": 16, "length": 120, "warmup": 200, "closed": 600, "open": 250, "rate": 25.0,
        "stair": 40,
    },
    "serve_hot": {
        "docs": 1, "length": 40, "warmup": 4000, "closed": 20000, "open": 3000, "rate": 500.0,
        "stair": 400,
    },
}  # fmt: skip
HOT_POOL = 64
#: Cold requests whose every row is compared with an in-process engine; the
#: rest are checked for shape and normalisation only (a fold-in costs as much
#: to check as it cost to serve).
COLD_VERIFIED = 48
ALPHA = 0.1
BETA = 0.01


# ---------------------------------------------------------------------- #
# A minimal HTTP/1.1 client: keep-alive, Content-Length bodies only
# ---------------------------------------------------------------------- #
def infer_request(documents: Sequence[np.ndarray]) -> bytes:
    body = json.dumps({"documents": [doc.tolist() for doc in documents]}).encode()
    return _request(b"POST /infer", body)


def _request(line: bytes, body: bytes = b"") -> bytes:
    head = line + b" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


class Connection:
    """One keep-alive connection; the caller decides when to read."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def send(self, request: bytes) -> None:
        self.sock.sendall(request)

    def receive(self) -> Optional[Tuple[int, bytes]]:
        """Read what has arrived; ``(status, body)`` once a response is whole."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk
        head_end = self._buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self._buffer[:head_end]).decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = head_end + 4 + length
        if len(self._buffer) < total:
            return None
        body = bytes(self._buffer[head_end + 4 : total])
        del self._buffer[:total]
        return int(head.split(" ", 2)[1]), body

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """One blocking round trip."""
        self.send(request)
        while True:
            response = self.receive()
            if response is not None:
                return response

    def close(self) -> None:
        self.sock.close()


class Exchange:
    """One request of a loaded phase, as the generator saw it."""

    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index: int, due: float, sent: float) -> None:
        self.index = index
        self.due = due
        self.sent = sent
        self.done = 0.0
        self.status = 0
        self.body = b""


def drive(
    connections: Sequence[Connection],
    requests: Sequence[bytes],
    due_offsets: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> Tuple[float, List[Exchange]]:
    """Send ``requests`` over ``connections`` from one thread.

    Closed loop (``due_offsets`` is None): a connection sends the next request
    as soon as its previous answer has landed.  Open loop: request ``i`` is
    due at ``start + due_offsets[i]`` and goes out then if a connection is
    free, else as soon as one is; its clock starts when it was due either way.
    Returns the phase start and one :class:`Exchange` per request.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    idle: Deque[Connection] = deque(connections)
    in_flight: Dict[Connection, Exchange] = {}
    exchanges: List[Exchange] = []
    start = time.perf_counter()
    try:
        while len(exchanges) < len(requests) or in_flight:
            now = time.perf_counter()
            index = len(exchanges)
            while idle and index < len(requests):
                due = start + due_offsets[index] if due_offsets is not None else now
                if due > now:
                    break
                connection = idle.popleft()
                exchange = Exchange(index, due, now)
                connection.send(requests[index])
                in_flight[connection] = exchange
                exchanges.append(exchange)
                index += 1
                now = time.perf_counter()
            wait = None
            if due_offsets is not None and idle and index < len(requests):
                wait = max(0.0, start + due_offsets[index] - now)
            for key, _ in selector.select(wait):
                connection = key.data
                response = connection.receive()
                if response is None:
                    continue
                exchange = in_flight.pop(connection)
                exchange.done = time.perf_counter()
                exchange.status, exchange.body = response
                idle.append(connection)
                if recorder is not None:
                    recorder.record("bench.loadgen.request", exchange.sent, exchange.done)
    finally:
        selector.close()
    return start, exchanges


def per_window(start: float, exchanges: Sequence[Exchange], weights: Sequence[float]) -> float:
    """Median over whole 1-s windows of the weight completed in each."""
    last = max(exchange.done for exchange in exchanges)
    windows = int(last - start)
    if windows < 1:  # a smoke-sized phase: the one partial window, scaled
        return sum(weights) / (last - start)
    totals = [0.0] * windows
    for exchange in exchanges:
        window = int(exchange.done - start)
        if window < windows:
            totals[window] += weights[exchange.index]
    return median(totals)


# ---------------------------------------------------------------------- #
# The service host child
# ---------------------------------------------------------------------- #
class Host:
    """The ``serve_host.py`` child: started in set-up, closed by EOF on stdin."""

    def __init__(self, snapshot_path: str) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(common.SUITE / "serve_host.py"),
                "--snapshot", snapshot_path,
                "--parent", str(os.getpid()),
            ],  # fmt: skip
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.close_s = 0.0
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("service host exited before it was ready")
        self.ready: Dict[str, Any] = json.loads(line)
        self.port: int = self.ready["port"]

    def close(self) -> None:
        """Ask the host to close and wait for it (idempotent)."""
        if self.process.stdout.closed:
            return
        self.process.stdin.close()
        try:
            self.process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for line in self.process.stdout:
            self.close_s = json.loads(line)["close_s"]
        self.process.stdout.close()


# ---------------------------------------------------------------------- #
# Checking what came back
# ---------------------------------------------------------------------- #
def parse_theta(exchange: Exchange, rows: int, num_topics: int) -> Optional[np.ndarray]:
    """The response's θ if it is a 200 with ``rows`` normalised rows of K, else None."""
    if exchange.status != 200:
        return None
    try:
        theta = np.asarray(json.loads(exchange.body)["theta"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return None
    if theta.shape != (rows, num_topics) or not np.all(np.isfinite(theta)):
        return None
    if np.abs(theta.sum(axis=1) - 1.0).max() > 1e-9:
        return None
    return theta


def check_answers(
    traffic: Traffic,
    engine: InferenceEngine,
    closed: List[Exchange],
    opened: List[Exchange],
    hot: bool,
    checks: Dict[str, bool],
) -> Tuple[int, List[np.ndarray], np.ndarray]:
    """Check every answer; returns the failures and a (documents, served θ) sample.

    ``serve_hot`` compares every row with the in-process engine (64 fold-ins
    cover them all); ``serve_cold`` compares the rows of ``COLD_VERIFIED``
    evenly spaced closed-loop requests and checks the rest for shape and
    normalisation.  The sample is what ``nll_per_token`` is computed on.
    """
    num_topics = engine.num_topics
    requests = traffic.requests
    served = {
        phase: [parse_theta(exchange, traffic.docs_per_request, num_topics) for exchange in exchanges]
        for phase, exchanges in (("closed", closed), ("open", opened))
    }
    failed = sum(theta is None for thetas in served.values() for theta in thetas)
    answered = [
        (exchange, theta)
        for exchange, theta in zip(closed, served["closed"])
        if theta is not None
    ]
    if hot:
        reference = engine.infer_ids(traffic.pool)
        matches = all(
            theta is None or np.abs(theta[0] - reference[exchange.index % HOT_POOL]).max() <= 1e-9
            for phase, exchanges in (("closed", closed), ("open", opened))
            for exchange, theta in zip(exchanges, served[phase])
        )
        sample = answered[:HOT_POOL]
    else:
        flat = [doc for phase in requests.values() for request in phase for doc in request]
        checks["no_document_repeated"] = len({np.sort(doc).tobytes() for doc in flat}) == len(flat)
        sample = answered[:: max(1, len(answered) // COLD_VERIFIED)]
        matches = all(
            np.abs(theta - engine.infer_ids(requests["closed"][exchange.index])).max() <= 1e-9
            for exchange, theta in sample
        )
    checks["theta_matches_in_process_engine"] = bool(matches)
    checks["no_request_failed"] = failed == 0
    sample_docs = [doc for exchange, _ in sample for doc in requests["closed"][exchange.index]]
    return failed, sample_docs, np.concatenate([theta for _, theta in sample])


class Traffic:
    """Everything the load generator sends, built from the seed in set-up."""

    def __init__(self, child: Child, planted: common.PlantedTopics, rng: np.random.Generator) -> None:
        spec = TRAFFIC[child.workload]
        self.docs_per_request: int = spec["docs"]
        closed = common.units(spec["closed"], child.seconds, minimum=40)
        opened = common.units(spec["open"], child.seconds, minimum=20)
        if child.smoke:
            closed, opened = closed // 4, opened // 4
        self.counts = {
            "warmup": common.units(spec["warmup"], child.seconds, minimum=20),
            "stair": common.units(spec["stair"], child.seconds, minimum=8) if child.trace else 0,
            "closed": closed,
            "open": opened,
        }
        #: Per phase, the documents of each request and its bytes on the wire.
        self.requests: Dict[str, List[List[np.ndarray]]] = {}
        self.wire: Dict[str, List[bytes]] = {}
        if child.workload == "serve_hot":
            # Request i of every phase carries document i mod 64 of the pool.
            self.pool = planted.documents(rng, HOT_POOL, spec["length"])
            pool_wire = [infer_request([doc]) for doc in self.pool]
            for phase, count in self.counts.items():
                self.requests[phase] = [[self.pool[i % HOT_POOL]] for i in range(count)]
                self.wire[phase] = [pool_wire[i % HOT_POOL] for i in range(count)]
        else:
            documents = planted.documents(
                rng, sum(self.counts.values()) * self.docs_per_request, spec["length"]
            )
            taken = 0
            for phase, count in self.counts.items():
                starts = range(taken, taken + count * self.docs_per_request, self.docs_per_request)
                self.requests[phase] = [
                    documents[start : start + self.docs_per_request] for start in starts
                ]
                self.wire[phase] = [infer_request(request) for request in self.requests[phase]]
                taken += count * self.docs_per_request
        self.due_offsets = np.cumsum(rng.exponential(1.0 / spec["rate"], size=opened))


def run(child: Child) -> Tuple[int, int, Dict[str, bool], Dict[str, float]]:
    size = SMOKE if child.smoke else FULL

    # ---- set-up: snapshot, documents, request bytes, service ------------ #
    rng = np.random.default_rng(child.seed)
    planted = common.PlantedTopics(rng, size["vocab"], size["topics"])
    snapshot = ModelSnapshot(
        planted.phi(), ALPHA, BETA, Vocabulary(common.vocabulary_words(size["vocab"]))
    )
    snapshot_path = str(snapshot.save(child.scratch / "model.npz"))
    traffic = Traffic(child, planted, rng)
    host = Host(snapshot_path)
    connections: List[Connection] = []
    try:
        connections = [Connection(host.port) for _ in range(2)]
        while connections[0].exchange(_request(b"GET /healthz"))[0] != 200:
            time.sleep(0.01)
        child.ready()
        return measure(child, snapshot, host, connections, traffic)
    finally:
        for connection in connections:
            connection.close()
        host.close()


def measure(
    child: Child,
    snapshot: ModelSnapshot,
    host: Host,
    connections: List[Connection],
    traffic: Traffic,
) -> Tuple[int, int, Dict[str, bool], Dict[str, float]]:
    hot = child.workload == "serve_hot"
    wire = traffic.wire
    closed_count = traffic.counts["closed"]
    engine = InferenceEngine(snapshot)
    recorder = Recorder(child.run_id)
    checks: Dict[str, bool] = {}
    metrics: Dict[str, float] = {}

    # ---- warm-up (not reported) ----------------------------------------- #
    if hot:
        # Two whole-pool requests in flight at once land on both workers, so
        # each fills its LRU with all 64 documents; the answer names the worker.
        whole_pool = infer_request(traffic.pool)
        warmed = set()
        for _ in range(10):
            _, answers = drive(connections, [whole_pool, whole_pool])
            warmed.update(json.loads(answer.body)["worker"] for answer in answers)
            if len(warmed) == 2:
                break
        checks["both_workers_warmed"] = len(warmed) == 2
    drive(connections, wire["warmup"])

    if child.trace:
        staircase(child, snapshot, engine, connections[0], traffic, recorder, metrics)

    # ---- closed loop: capacity ------------------------------------------ #
    stats_before = json.loads(connections[0].exchange(_request(b"GET /stats"))[1])
    each = [1.0] * closed_count
    if child.trace:
        # Half with client-side spans off, half on: their ratio is what
        # tracing from outside costs the headline number.
        half = closed_count // 2
        closed_start, closed = drive(connections, wire["closed"][:half])
        traced_start, traced = drive(connections, wire["closed"][half:], recorder=recorder)
        for exchange in traced:
            exchange.index += half
        overhead = per_window(closed_start, closed, each) / per_window(traced_start, traced, each)
        closed += traced
    else:
        closed_start, closed = drive(connections, wire["closed"])
    stats_after = json.loads(connections[0].exchange(_request(b"GET /stats"))[1])
    service_pss = common.pss_mib(host.ready["pids"])

    # ---- open loop: latency ---------------------------------------------- #
    _, opened = drive(connections, wire["open"], due_offsets=traffic.due_offsets)
    stats_final = json.loads(connections[0].exchange(_request(b"GET /stats"))[1])

    failed, sample_docs, sample_theta = check_answers(traffic, engine, closed, opened, hot, checks)
    attempted = len(closed) + len(opened)
    checks["service_rejected_none"] = stats_final["rejected"] == 0 and stats_final["errors"] == 0

    if not child.trace:
        tokens = [
            float(sum(doc.size for doc in request)) for request in traffic.requests["closed"]
        ]
        rps = per_window(closed_start, closed, each)
        metrics.update(
            {
                "rps": rps,
                "docs_per_s": rps * traffic.docs_per_request,
                "tokens_per_s": per_window(closed_start, closed, tokens),
                "latency_p50_ms": median(e.done - e.due for e in opened) * 1e3,
                "servable_p50_ms": median(e.done - e.sent for e in closed) * 1e3,
                # -log p(w | theta, phi) per token, under the theta the service returned.
                "nll_per_token": math.log(
                    perplexity_from_theta(sample_docs, sample_theta, snapshot.phi)
                ),
                "peak_rss_mb": service_pss,
            }
        )
        return attempted, failed, checks, metrics

    busy = sum(
        stats_after["worker_utilization"].get(worker, 0.0) * stats_after["uptime_seconds"]
        - stats_before["worker_utilization"].get(worker, 0.0) * stats_before["uptime_seconds"]
        for worker in stats_after["worker_utilization"]
    )
    elapsed = stats_after["uptime_seconds"] - stats_before["uptime_seconds"]
    metrics.update(
        {
            "serving.snapshot.load_s": host.ready["load_s"],
            "service.http.start_s": host.ready["start_s"],
            "service.http.latency_p95_ms": percentile([e.done - e.due for e in opened], 95) * 1e3,
            "service.http.rejected": float(stats_final["rejected"]),
            "service.http.worker_utilization": busy / (elapsed * stats_after["workers"]),
            "bench.loadgen.late_p95_ms": percentile([e.sent - e.due for e in opened], 95) * 1e3,
            "bench.trace_overhead_ratio": overhead,
        }
    )
    for connection in connections:
        connection.close()
    host.close()
    metrics["service.http.close_s"] = host.close_s
    recorder.dump(common.OUT / f"trace-{child.workload}-{child.seed}.jsonl")
    return attempted, failed, checks, metrics


def staircase(
    child: Child,
    snapshot: ModelSnapshot,
    engine: InferenceEngine,
    connection: Connection,
    traffic: Traffic,
    recorder: Recorder,
    metrics: Dict[str, float],
) -> None:
    """The same requests, one at a time, through each layer from the inside out."""
    hot = child.workload == "serve_hot"
    config = ServiceConfig(num_workers=2)
    requests, wire = traffic.requests["stair"], traffic.wire["stair"]

    for request in requests:
        with recorder.span("serving.infer.infer_ids"):
            engine.infer_ids(request)

    server = TopicServer(
        InferenceEngine(snapshot),
        max_batch_size=config.max_batch_size,
        cache_capacity=config.cache_capacity,
    )
    if hot:
        server.infer_batch(traffic.pool)
        server.reset_stats()
    for request in requests:
        inferring = server.stats().inference_seconds
        with recorder.span("serving.server.infer_batch"):
            server.infer_batch(request)
            recorder.add("serving.infer.inside_server", server.stats().inference_seconds - inferring)
    metrics["serving.server.cache_hit_ratio"] = server.stats().cache_hit_rate

    pool = WorkerPool(snapshot, num_workers=2, options=config.worker_options())
    try:
        if hot:
            # Two whole-pool tasks before the first pump: one per worker.
            for request_id in (-1, -2):
                pool.submit(request_id, [doc.tolist() for doc in traffic.pool])
            for _ in range(2):
                pool.get_result(timeout=30.0)
        worker_seconds, queue_seconds = [], []
        for request_id, request in enumerate(requests):
            documents = [doc.tolist() for doc in request]
            with recorder.span("service.pool.round_trip"):
                pool.submit(request_id, documents)
                kind, _, payload = pool.get_result(timeout=30.0)
                if kind != "result":
                    raise RuntimeError(f"pool staircase request failed: {payload}")
                recorder.add("service.pool.worker", payload["seconds"])
            worker_seconds.append(payload["seconds"])
            queue_seconds.append(payload["queue_seconds"])
    finally:
        pool.close()

    sizes = []
    for request in wire:
        with recorder.span("service.http.round_trip"):
            status, body = connection.exchange(request)
        if status != 200:
            raise RuntimeError(f"HTTP staircase request answered {status}")
        sizes.append(len(body))

    pool_round_trip = median(recorder.durations("service.pool.round_trip"))
    metrics.update(
        {
            "serving.infer.fold_in_ms": median(recorder.durations("serving.infer.infer_ids")) * 1e3,
            "serving.server.self_ms": median(recorder.self_times("serving.server.infer_batch")) * 1e3,
            "service.pool.worker_ms": median(worker_seconds) * 1e3,
            "service.pool.queue_ms": median(queue_seconds) * 1e3,
            "service.pool.self_ms": median(recorder.self_times("service.pool.round_trip")) * 1e3,
            "service.http.self_ms": (
                median(recorder.durations("service.http.round_trip")) - pool_round_trip
            ) * 1e3,
            "service.http.response_bytes": median(sizes),
        }
    )


if __name__ == "__main__":
    common.child_main(run)
