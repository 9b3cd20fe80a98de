"""The asyncio HTTP front end of the serving tier.

:class:`TopicService` is the network face of the repo: a stdlib-only
(``asyncio`` + hand-rolled HTTP/1.1, zero new dependencies) front end that
routes requests into a :class:`~repro.service.pool.WorkerPool` sharing one
phi copy across N processes.  The split follows the HTAP lesson: the serving
path (workers folding in θ) and the update path (registry publishes swapping
snapshots) are isolated so neither degrades the other.

Endpoints
---------
* ``POST /infer`` — body ``{"documents": [[token|id, ...], ...]}`` → θ rows
  plus the snapshot version and worker that served them;
* ``GET /top-topics?words=N`` — top words per topic of the current snapshot;
* ``GET /healthz`` — liveness (workers alive, served version);
* ``GET /stats`` — JSON serving stats (p50/p95/p99 latency, utilization);
* ``GET /metrics`` — Prometheus 0.0.4 text from the ``repro.obs`` registry.

Production mechanics
--------------------
* **Admission control** — at most ``max_pending`` requests in flight; excess
  load is shed immediately with 503 rather than queued into a latency cliff.
* **Per-request timeouts** — an admitted request past
  ``request_timeout`` answers 504 and its future is abandoned (the worker's
  late result is dropped on the floor, not delivered to a closed socket).
* **Hot swap** — a background poller watches the attached
  :class:`~repro.streaming.registry.ModelRegistry`; when the current version
  moves it broadcasts the swap across the pool.  In-flight requests finish
  on their starting snapshot; later requests see the new version — the
  in-process :meth:`TopicServer.refresh` contract, held across processes.
* **Self-healing** — the poller also recycles dead workers onto the current
  generation.

Threading model: all service state (pending futures, counters) and every
pool interaction live on the event loop — worker pipes are plain fds, so
results arrive through ``loop.add_reader`` callbacks rather than a pump
thread.  One reader means no locks anywhere in the tier.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.evaluation.coherence import top_words
from repro.obs import Histogram, Telemetry
from repro.serving.snapshot import ModelSnapshot
from repro.service.pool import WorkerError, WorkerPool
from repro.streaming.registry import ModelRegistry

__all__ = ["ServiceConfig", "ServiceStats", "TopicService", "parse_http_address"]

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def parse_http_address(address: Any) -> Tuple[str, int]:
    """Normalise ``--http`` style addresses to ``(host, port)``.

    Accepts ``"HOST:PORT"``, a bare port (``"8080"`` or ``8080``, host
    defaults to 127.0.0.1) or an existing ``(host, port)`` tuple.
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    if isinstance(address, int):
        return "127.0.0.1", int(address)
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        return host or "127.0.0.1", int(port_text)
    return "127.0.0.1", int(text)


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


@dataclass
class ServiceConfig:
    """Tunables of one :class:`TopicService` (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; read it back from ``service.port``.
    port: int = 0
    num_workers: int = 2
    #: Admission-control bound: requests in flight beyond this are shed (503).
    max_pending: int = 64
    #: Seconds an admitted request may take end to end before 504.
    request_timeout: float = 30.0
    #: Registry/worker poll cadence of the background maintenance task.
    poll_interval: float = 0.25
    strategy: str = "em"
    num_iterations: int = 30
    num_mh_steps: int = 2
    seed: int = 0
    max_batch_size: int = 64
    cache_capacity: int = 4096
    max_body_bytes: int = 8 << 20

    def worker_options(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "num_iterations": self.num_iterations,
            "num_mh_steps": self.num_mh_steps,
            "seed": self.seed,
            "max_batch_size": self.max_batch_size,
            "cache_capacity": self.cache_capacity,
        }


@dataclass
class ServiceStats:
    """Front-end counters since service start (workers keep their own)."""

    requests: int = 0
    rejected: int = 0
    timed_out: int = 0
    errors: int = 0
    hot_swaps: int = 0
    recycled_workers: int = 0


class _BadRequest(ValueError):
    """A request the front end answers with ``status`` and then hangs up on."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """One parsed HTTP/1.1 request."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = {
            key: values[-1] for key, values in parse_qs(parts.query).items()
        }
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class TopicService:
    """HTTP serving over a shared-memory worker pool.

    Parameters
    ----------
    snapshot:
        The model to serve.  Omit when following a ``registry`` that already
        has a published version.
    registry:
        Optional :class:`ModelRegistry` to follow: new published versions are
        broadcast to the pool as hot swaps.
    config:
        :class:`ServiceConfig` tunables.
    telemetry:
        An existing ``repro.obs`` session to record into; by default the
        service owns a buffered session so ``/metrics`` is live out of the
        box.  Probe sites are gated on ``enabled`` either way.
    """

    def __init__(
        self,
        snapshot: Optional[ModelSnapshot] = None,
        registry: Optional[ModelRegistry] = None,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._registry = registry
        version = 0
        if snapshot is None:
            if registry is None:
                raise ValueError("pass a snapshot or a registry to serve")
            entry = registry.current()
            if entry is None:
                raise ValueError(
                    "registry has no published version; publish a snapshot first"
                )
            snapshot = entry.snapshot
            version = entry.version
        elif registry is not None and registry.current_version is not None:
            version = registry.current_version
        self._snapshot = snapshot
        self._version = version
        self._obs: Telemetry = telemetry if telemetry is not None else Telemetry()
        self._owns_obs = telemetry is None
        self.stats = ServiceStats()
        self._latency = Histogram()
        self._worker_busy: Dict[int, float] = {}
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_request_id = 0
        self._pool: Optional[WorkerPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional["asyncio.Server"] = None
        self._poller: Optional["asyncio.Task[None]"] = None
        self._thread: Optional[threading.Thread] = None
        self._reader_fds: set = set()
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._started_at = 0.0
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "TopicService":
        """Boot the pool, bind the socket and serve from a background thread."""
        if self._thread is not None:
            raise RuntimeError("TopicService already started")
        self._pool = WorkerPool(
            self._snapshot,
            num_workers=self.config.num_workers,
            options=self.config.worker_options(),
            version=self._version,
        )
        self._started_at = time.monotonic()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            self.close()
            raise RuntimeError("TopicService failed to start within 30s")
        return self

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._startup())
        finally:
            self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    async def _startup(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], int(sockname[1])
        self._sync_readers()
        self._poller = asyncio.get_running_loop().create_task(self._poll_forever())

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def served_version(self) -> int:
        return self._version

    def close(self) -> None:
        """Stop accepting, fail in-flight futures, stop the pool (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(
                    timeout=10.0
                )
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._pool is not None:
            stopped = self._pool.close()
            obs = self._obs
            if obs.enabled:
                for payload in stopped:
                    obs.absorb(payload.get("telemetry"))
        if self._owns_obs:
            self._obs.close()

    async def _shutdown(self) -> None:
        if self._poller is not None:
            self._poller.cancel()
        if self._loop is not None:
            for fd in list(self._reader_fds):
                self._loop.remove_reader(fd)
            self._reader_fds.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    def __enter__(self) -> "TopicService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Background maintenance: results, registry, worker health
    # ------------------------------------------------------------------ #
    def _sync_readers(self) -> None:
        """Register every usable worker pipe with the event loop.

        Pipes of dead/EOF workers are dropped from the reader set (their
        callbacks would spin on EOF); fresh pipes from recycles are added.
        """
        assert self._pool is not None and self._loop is not None
        usable = {
            worker.conn.fileno()
            for worker in self._pool.workers
            if not worker.eof and not worker.conn.closed and worker.alive()
        }
        for fd in list(self._reader_fds - usable):
            self._loop.remove_reader(fd)
            self._reader_fds.discard(fd)
        for fd in usable - self._reader_fds:
            self._loop.add_reader(fd, self._on_worker_readable)
            self._reader_fds.add(fd)

    def _on_worker_readable(self) -> None:
        """A worker pipe has data: drain the pool and settle futures.

        Runs on the event loop (fd-readiness callback), so it may touch the
        pool and the pending map directly.
        """
        if self._pool is None:
            return
        try:
            self._pool.pump(0)
        except (EOFError, OSError):  # pragma: no cover - torn pipe
            pass
        for kind, request_id, payload in self._pool.take_results():
            self._resolve(kind, request_id, payload)

    def _resolve(self, kind: str, request_id: int, payload: Dict[str, Any]) -> None:
        future = self._pending.pop(request_id, None)
        worker = payload.get("worker")
        if worker is not None and "seconds" in payload:
            self._worker_busy[int(worker)] = self._worker_busy.get(
                int(worker), 0.0
            ) + float(payload["seconds"])
        obs = self._obs
        if obs.enabled:
            obs.gauge("service.queue_depth", float(len(self._pending)))
            if "queue_seconds" in payload:
                obs.observe("service.queue_seconds", float(payload["queue_seconds"]))
            if "seconds" in payload:
                obs.observe("service.worker_task_seconds", float(payload["seconds"]))
        if future is None or future.done():
            # Timed out (504 already sent) or cancelled at shutdown: the
            # late result is dropped, never delivered to a closed exchange.
            return
        if kind == "result":
            future.set_result(payload)
        else:
            future.set_exception(WorkerError(payload.get("error", "worker failed")))

    async def _poll_forever(self) -> None:
        assert self._pool is not None
        while True:
            await asyncio.sleep(self.config.poll_interval)
            try:
                drained = self._pool.poll_control()
            except (EOFError, OSError):  # pragma: no cover - torn pipe
                drained = []
            for kind, request_id, payload in self._pool.take_results():
                self._resolve(kind, request_id, payload)
            obs = self._obs
            if obs.enabled:
                for message in drained:
                    if message.get("telemetry"):
                        obs.absorb(message["telemetry"])
            # Drop readers for corpses before check_workers closes their
            # pipes, then re-register whatever pipes the recycle created.
            self._sync_readers()
            recycled = self._pool.check_workers()
            if recycled:
                self.stats.recycled_workers += recycled
                if obs.enabled:
                    obs.count("service.worker_recycles", recycled)
                for kind, request_id, payload in self._pool.take_results():
                    self._resolve(kind, request_id, payload)
                self._sync_readers()
            self._maybe_hot_swap()

    def _maybe_hot_swap(self) -> None:
        assert self._pool is not None
        if self._registry is None:
            return
        current = self._registry.current_version
        if current is None or current == self._version:
            return
        entry = self._registry.current()
        if entry is None or entry.version == self._version:
            return
        previous = self._version
        self._pool.swap(entry.snapshot, entry.version)
        self._snapshot = entry.snapshot
        self._version = entry.version
        self.stats.hot_swaps += 1
        obs = self._obs
        if obs.enabled:
            obs.count("service.hot_swaps")
            obs.event(
                "service_hot_swap", from_version=previous, to_version=entry.version
            )

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                await self._dispatch(request, writer)
                if not request.keep_alive:
                    break
        except _BadRequest as error:
            # Answer, unread body and all, then close: the stream position
            # is unknown, so the connection cannot carry another request.
            try:
                await self._respond_json(
                    writer, None, error.status, {"error": str(error)}
                )
            except ConnectionError:
                pass
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, http_version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(
                400, f"content-length {raw_length!r} is not an integer"
            ) from None
        if length < 0:
            raise _BadRequest(400, f"content-length {length} is negative")
        if length > self.config.max_body_bytes:
            raise _BadRequest(
                413,
                f"content-length {length} exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if http_version.upper() != "HTTP/1.0"
            else connection == "keep-alive"
        )
        return _Request(method.upper(), target, headers, body, keep_alive)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        request: Optional[_Request],
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        """Write one response; ``request=None`` answers an unparsed request
        and always closes."""
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Content Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(status, "OK")
        keep_alive = request is not None and request.keep_alive
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        request: Optional[_Request],
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        await self._respond(
            writer, request, status, json.dumps(payload).encode("utf-8")
        )

    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        route = (request.method, request.path)
        if route == ("POST", "/infer"):
            await self._handle_infer(request, writer)
        elif route == ("GET", "/top-topics"):
            await self._handle_top_topics(request, writer)
        elif route == ("GET", "/healthz"):
            await self._handle_healthz(request, writer)
        elif route == ("GET", "/stats"):
            await self._handle_stats(request, writer)
        elif route == ("GET", "/metrics"):
            await self._handle_metrics(request, writer)
        elif request.path in ("/infer", "/top-topics", "/healthz", "/stats", "/metrics"):
            await self._respond_json(
                writer, request, 405, {"error": f"method {request.method} not allowed"}
            )
        else:
            await self._respond_json(
                writer, request, 404, {"error": f"no route {request.path}"}
            )

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    async def _handle_infer(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        assert self._pool is not None
        obs = self._obs
        # Admission control first: shedding costs O(1), queueing costs a
        # latency cliff for everyone already admitted.
        if len(self._pending) >= self.config.max_pending:
            self.stats.rejected += 1
            if obs.enabled:
                obs.count("service.admission_rejects")
            await self._respond_json(
                writer,
                request,
                503,
                {
                    "error": "overloaded",
                    "in_flight": len(self._pending),
                    "max_pending": self.config.max_pending,
                },
            )
            return
        try:
            documents = self._parse_infer_body(request.body)
        except ValueError as error:
            await self._respond_json(writer, request, 400, {"error": str(error)})
            return
        started = time.monotonic()
        request_id = self._next_request_id
        self._next_request_id += 1
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._pending[request_id] = future
        if obs.enabled:
            obs.gauge("service.queue_depth", float(len(self._pending)))
        self._pool.submit(request_id, documents)
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), timeout=self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            self.stats.timed_out += 1
            if obs.enabled:
                obs.count("service.timeouts")
            await self._respond_json(
                writer,
                request,
                504,
                {"error": "timeout", "timeout_seconds": self.config.request_timeout},
            )
            return
        except (WorkerError, asyncio.CancelledError) as error:
            self.stats.errors += 1
            if obs.enabled:
                obs.count("service.errors")
            await self._respond_json(
                writer, request, 500, {"error": str(error) or "service stopping"}
            )
            return
        elapsed = time.monotonic() - started
        self.stats.requests += 1
        self._latency.record(elapsed)
        if obs.enabled:
            obs.count("service.requests")
            obs.observe("service.request_seconds", elapsed)
        await self._respond_json(
            writer,
            request,
            200,
            {
                "theta": payload["theta"],
                "version": payload["version"],
                "worker": payload["worker"],
                "num_topics": self._snapshot.num_topics,
            },
        )

    def _parse_infer_body(self, body: bytes) -> List[List[Any]]:
        try:
            parsed = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"body is not valid JSON: {error}") from None
        documents = parsed.get("documents") if isinstance(parsed, dict) else None
        if not isinstance(documents, list) or not documents:
            raise ValueError('body must be {"documents": [[token|id, ...], ...]}')
        for document in documents:
            if not isinstance(document, list):
                raise ValueError("each document must be a list of tokens or ids")
            for token in document:
                if not isinstance(token, (str, int)):
                    raise ValueError("tokens must be strings or integer word ids")
        return documents

    async def _handle_top_topics(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        try:
            num_words = int(request.query.get("words", "10"))
            if num_words <= 0:
                raise ValueError
        except ValueError:
            await self._respond_json(
                writer, request, 400, {"error": "words must be a positive integer"}
            )
            return
        topics = top_words(self._snapshot.phi, self._snapshot.vocabulary, num_words)
        await self._respond_json(
            writer,
            request,
            200,
            {"version": self._version, "topics": topics},
        )

    async def _handle_healthz(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        assert self._pool is not None
        alive = self._pool.alive_workers()
        healthy = alive > 0
        await self._respond_json(
            writer,
            request,
            200 if healthy else 503,
            {
                "status": "ok" if healthy else "degraded",
                "workers_alive": alive,
                "workers": self._pool.num_workers,
                "version": self._version,
            },
        )

    def _stats_payload(self) -> Dict[str, Any]:
        assert self._pool is not None
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        utilization = {
            str(worker): busy / uptime for worker, busy in sorted(self._worker_busy.items())
        }
        percentiles = (
            {f"p{q}_ms": self._latency.percentile(q) * 1e3 for q in (50, 95, 99)}
            if self._latency.count
            else {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        )
        return {
            "requests": self.stats.requests,
            "rejected": self.stats.rejected,
            "timed_out": self.stats.timed_out,
            "errors": self.stats.errors,
            "in_flight": len(self._pending),
            "max_pending": self.config.max_pending,
            "workers": self._pool.num_workers,
            "workers_alive": self._pool.alive_workers(),
            "recycled_workers": self.stats.recycled_workers,
            "worker_utilization": utilization,
            "hot_swaps": self.stats.hot_swaps,
            "served_version": self._version,
            "live_generations": self._pool.live_generations,
            "uptime_seconds": uptime,
            "latency_ms": percentiles,
        }

    async def _handle_stats(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        await self._respond_json(writer, request, 200, self._stats_payload())

    async def _handle_metrics(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        obs = self._obs
        if obs.enabled:
            # Point-in-time gauges are synced at scrape, matching Prometheus
            # pull semantics.
            obs.gauge("service.queue_depth", float(len(self._pending)))
            obs.gauge("service.in_flight", float(len(self._pending)))
            obs.gauge(
                "service.workers_alive",
                float(self._pool.alive_workers() if self._pool else 0),
            )
            obs.gauge(
                "service.uptime_seconds",
                float(max(time.monotonic() - self._started_at, 0.0)),
            )
        text = self._obs.registry.to_prometheus()
        await self._respond(
            writer,
            request,
            200,
            text.encode("utf-8"),
            content_type=_PROMETHEUS_CONTENT_TYPE,
        )

    # ------------------------------------------------------------------ #
    def diagnostics(self) -> List[Dict[str, Any]]:
        """Per-worker identity blocks (segment name, zero-copy proof).

        Served from each worker's last ready/swap ack — the event loop owns
        the pipes, so a cross-thread round-trip here would race it, and the
        ack already carries the full identity block.
        """
        assert self._pool is not None
        return self._pool.worker_infos()

    def serve_forever(self) -> None:
        """Block the calling thread until interrupted (CLI foreground mode).

        SIGTERM ends it the way Ctrl-C does, through :meth:`close`, so the
        pool workers and the shared segment never outlive the host.  The
        handler can only be installed on the main thread, and is restored
        before closing.
        """
        if self._thread is None:
            self.start()
        assert self._thread is not None
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            previous = signal.signal(signal.SIGTERM, _interrupt)
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            if on_main:
                signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopicService(url={self.url!r}, workers={self.config.num_workers}, "
            f"version={self._version}, requests={self.stats.requests})"
        )
