"""A micro-batching topic server over a frozen model snapshot.

:class:`TopicServer` is the in-process front door of the serving layer:
requests (raw token documents or pre-encoded id arrays) are answered with
folded-in θ rows.  The HTTP tier (:mod:`repro.service`) does not run it: its
workers call the engine directly and its front end keeps the one cache.
Three production mechanisms sit between a request and the
:class:`~repro.serving.infer.InferenceEngine`:

* **Micro-batching** — :meth:`TopicServer.infer_batch` dispatches a request
  batch to the engine in chunks of at most ``max_batch_size``, amortising
  the vectorised kernels across the documents of a call instead of paying
  per-document overheads.  The server holds no request queue: whoever owns
  the concurrency (a caller's loop) collects the batch and hands it over
  whole.
* **Result caching** — an LRU cache keyed on the document's bag of words,
  :func:`bow_key`: the document's sorted distinct word ids followed by their
  counts, as the raw bytes of two equal-length int64 arrays.  Fold-in is
  exchangeable (token order never enters the math), so two permutations of
  the same document share one cache entry; repeated requests (the common case
  under heavy traffic) skip inference entirely.  The HTTP tier's one
  service-wide cache (:mod:`repro.service.http`) uses the same key.
* **Observability** — per-request latencies and batch sizes are recorded and
  summarised as throughput plus p50/p95/p99 latency percentiles in
  :meth:`TopicServer.stats`.
* **Hot-swap serving** — :meth:`TopicServer.attach_registry` subscribes the
  server to a :class:`~repro.streaming.registry.ModelRegistry`.  When the
  registry's current version moves, the server swaps in a fresh engine over
  the new snapshot *between micro-batches*: a dispatched micro-batch always
  finishes against the snapshot it started with, the result cache (keyed on
  the old model's θ) is dropped, and requests keep flowing throughout.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs import Histogram, get_telemetry
from repro.sampling.rng import RngLike
from repro.serving.infer import DocumentLike, InferenceEngine, encode_document

if TYPE_CHECKING:  # avoids the serving <-> streaming import cycle at runtime
    from repro.streaming.registry import ModelRegistry

__all__ = ["LRUCache", "ServerStats", "TopicServer", "bow_key"]

#: Cache key type: the raw bytes of a document's sorted distinct word ids
#: followed by their counts (both int64).
BowKey = bytes


def bow_key(word_ids: np.ndarray) -> BowKey:
    """The cache key of a document: its bag of words as compact bytes.

    The key is ``unique.tobytes() + counts.tobytes()``, the sorted distinct
    word ids and their multiplicities as int64.  Canonicalisation contract
    (relied on by every result cache keyed on it):

    * **order-insensitive** — any permutation of the same tokens maps to the
      same key, matching the exchangeability of fold-in inference (token
      order never enters the math);
    * **multiplicity-exact** — repeated tokens are keyed by their counts, so
      ``[a, a, b]`` and ``[a, b, b]`` can never alias;
    * **collision-free** — the key is the exact ids and counts, not a hash.
      Both halves have the same length, so equal keys split at the same
      point and two distinct bags always produce distinct keys, whatever the
      input array's dtype.  The empty document's key is ``b""``.
    """
    unique, counts = np.unique(np.asarray(word_ids, dtype=np.int64), return_counts=True)
    return unique.tobytes() + counts.astype(np.int64, copy=False).tobytes()


class LRUCache:
    """A fixed-capacity least-recently-used map from bag-of-words keys to θ.

    Values are opaque: :class:`TopicServer` caches read-only θ arrays, the
    HTTP front end caches each row's JSON text.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        #: Entries dropped because the cache was full (cleared resets count
        #: nothing — evictions are a lifetime counter, cache clears are not
        #: evictions).
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        """Return the cached value for ``key`` (marking it recently used), or
        ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used entry if full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


#: Sliding-window size for per-request latency records: percentiles are
#: computed over the most recent ``LATENCY_WINDOW`` requests only, keeping
#: memory O(1) under sustained traffic.  The window is a deque, so the
#: (window+1)-th request silently drops the oldest record — percentiles
#: always describe *recent* traffic, never the full lifetime.
LATENCY_WINDOW = 8192


@dataclass
class ServerStats:
    """Aggregate serving statistics since construction (or :meth:`reset`)."""

    requests: int = 0
    cache_hits: int = 0
    batches: int = 0
    documents_inferred: int = 0
    tokens_inferred: int = 0
    inference_seconds: float = 0.0
    #: Live cache occupancy and lifetime eviction count, synced from the
    #: server's LRU cache by :meth:`TopicServer.stats`.
    cache_size: int = 0
    cache_evictions: int = 0
    #: Registry hot-swaps performed, and the version currently served
    #: (``None`` when no registry is attached or nothing is published).
    hot_swaps: int = 0
    served_version: Optional[int] = None
    #: Per-request wall-clock latencies in seconds (cache hits included),
    #: most recent :data:`LATENCY_WINDOW` requests only.  A request's latency
    #: is the duration of the serving call that answered it — under
    #: micro-batching every request in a call waits for the whole call.
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def throughput_docs_per_s(self) -> float:
        return (
            self.documents_inferred / self.inference_seconds
            if self.inference_seconds > 0
            else 0.0
        )

    @property
    def throughput_tokens_per_s(self) -> float:
        return (
            self.tokens_inferred / self.inference_seconds
            if self.inference_seconds > 0
            else 0.0
        )

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the per-request latencies, in milliseconds.

        Computed through :class:`repro.obs.Histogram` so serving reports the
        *same* deterministic rank-then-interpolate percentiles as every other
        layer's telemetry (one rule everywhere, not ``np.percentile`` here
        and bucket interpolation there).  Pinned behavior:

        * **0 samples** (zero requests, or a fresh
          :meth:`TopicServer.reset_stats`): every percentile is exactly
          ``0.0`` — never an exception on the empty window.
        * **1 sample**: every percentile is exactly that sample (the
          histogram clamps interpolation to the observed min/max).
        * **2 samples**: p50 lands on rank 1 (the lower sample's bucket) and
          interpolates to that bucket's position, clamped into the observed
          range — never ``np.percentile``'s midpoint average of the two raw
          samples, and never below the smaller or above the larger sample.
        * **window boundary**: only the most recent :data:`LATENCY_WINDOW`
          records enter — the (window+1)-th request evicts the oldest, so a
          latency spike ages out of the percentiles after one full window.
        """
        if not self.latencies:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        histogram = Histogram()
        for seconds in self.latencies:
            histogram.record(seconds)
        return {
            f"p{q}_ms": histogram.percentile(q) * 1e3 for q in (50, 95, 99)
        }

    def summary(self) -> str:
        """A one-block human-readable report.

        The model-version line only appears for registry-served models
        (``served_version`` set); plain snapshot servers keep the original
        report shape.
        """
        pct = self.latency_percentiles()
        version_lines = (
            [
                f"model version       {self.served_version} "
                f"({self.hot_swaps} hot swaps)"
            ]
            if self.served_version is not None
            else []
        )
        return "\n".join(
            [
                f"requests            {self.requests}",
                f"cache hits          {self.cache_hits} "
                f"({self.cache_hit_rate:.1%})",
                f"cache               {self.cache_size} entries, "
                f"{self.cache_evictions} evictions",
                f"micro-batches       {self.batches}",
                *version_lines,
                f"documents inferred  {self.documents_inferred}",
                f"tokens inferred     {self.tokens_inferred}",
                f"throughput          {self.throughput_docs_per_s:.1f} docs/s, "
                f"{self.throughput_tokens_per_s:.0f} tokens/s",
                f"latency             p50 {pct['p50_ms']:.2f} ms, "
                f"p95 {pct['p95_ms']:.2f} ms, p99 {pct['p99_ms']:.2f} ms",
            ]
        )


class TopicServer:
    """Serve θ inference requests with micro-batching and an LRU cache.

    Parameters
    ----------
    engine:
        The inference engine (and, through it, the frozen snapshot) to serve.
    max_batch_size:
        Maximum number of documents dispatched to the engine per micro-batch.
    cache_capacity:
        LRU result-cache capacity in documents; ``0`` disables caching.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import WarpLDA
    >>> from repro.corpus import load_preset
    >>> from repro.serving import InferenceEngine, TopicServer
    >>> corpus = load_preset("nytimes_like", scale=0.05, seed=0)
    >>> snapshot = WarpLDA(corpus, num_topics=10, seed=0).fit(5).export_snapshot()
    >>> server = TopicServer(InferenceEngine(snapshot))
    >>> theta = server.infer_batch([corpus.document_words(0)])
    >>> theta.shape
    (1, 10)
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_size: int = 64,
        cache_capacity: int = 4096,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        self.engine = engine
        self.max_batch_size = int(max_batch_size)
        self.cache = LRUCache(cache_capacity)
        self.stats_ = ServerStats()
        self._closed = False
        self._registry: Optional[ModelRegistry] = None
        #: Registry version currently served (``None`` = the engine the
        #: server was constructed with, or no registry attached).
        self.served_version: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Registry hot-swap
    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(
        cls,
        registry: "ModelRegistry",
        strategy: str = "em",
        num_iterations: int = 30,
        num_mh_steps: int = 2,
        seed: RngLike = None,
        **server_kwargs: Any,
    ) -> "TopicServer":
        """Build a server over a registry's current version and follow it.

        The registry must have at least one published version.
        """
        entry = registry.current()
        if entry is None:
            raise ValueError(
                "registry has no published version; publish a snapshot first"
            )
        engine = InferenceEngine(
            entry.snapshot,
            strategy=strategy,
            num_iterations=num_iterations,
            num_mh_steps=num_mh_steps,
            seed=seed,
        )
        server = cls(engine, **server_kwargs)
        # The constructor engine *is* the current version: record it before
        # attaching so adoption is not miscounted (or rebuilt) as a hot swap.
        server.served_version = entry.version
        server.attach_registry(registry)
        return server

    def attach_registry(self, registry: "ModelRegistry") -> None:
        """Follow ``registry``: serve its current version, swap as it moves.

        The swap happens *between micro-batches* (checked at the start of
        every serving call and between dispatched micro-batches within one
        call), so a micro-batch that is already in flight always completes
        against the snapshot it started with.  If nothing is published yet,
        the server keeps its constructor engine until a version appears.
        """
        self._registry = registry
        self.refresh()

    def detach_registry(self) -> None:
        """Stop following the registry; the current engine keeps serving."""
        self._registry = None

    def refresh(self) -> bool:
        """Swap in the registry's current version if it moved; True if swapped.

        Called automatically by the serving paths; call it directly to bound
        the ingest-to-servable latency without waiting for the next request.
        """
        if self._registry is None:
            return False
        entry = self._registry.current()
        if entry is None or entry.version == self.served_version:
            return False
        self.engine = InferenceEngine(
            entry.snapshot,
            strategy=self.engine.strategy,
            num_iterations=self.engine.num_iterations,
            num_mh_steps=self.engine.num_mh_steps,
            seed=self.engine.rng,
        )
        # Cached θ rows were folded in under the old Φ; drop them (this is a
        # model change, not a capacity eviction).
        self.cache.clear()
        previous = self.served_version
        self.served_version = entry.version
        self.stats_.hot_swaps += 1
        obs = get_telemetry()
        if obs.enabled:
            obs.count("serving.hot_swaps")
            obs.event(
                "server_hot_swap", from_version=previous, to_version=entry.version
            )
        return True

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def encode(self, document: DocumentLike) -> np.ndarray:
        """Normalise one request to a word-id array (OOV tokens dropped)."""
        return encode_document(document, self.engine.snapshot.vocabulary)

    def infer_batch(self, documents: Sequence[DocumentLike]) -> np.ndarray:
        """Serve a batch of requests; returns the ``len(documents) x K`` θ."""
        self._ensure_open()
        return self._serve([self.encode(doc) for doc in documents])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed server rejects requests."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("TopicServer is closed")

    def close(self) -> None:
        """Shut the server down: detach any registry and reject new requests.

        Idempotent; a later :meth:`infer_batch` raises :class:`RuntimeError`.
        """
        self._registry = None
        self._closed = True

    def __enter__(self) -> "TopicServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Serving core
    # ------------------------------------------------------------------ #
    def _serve(self, documents: List[np.ndarray]) -> np.ndarray:
        obs = get_telemetry()
        self.refresh()
        call_engine = self.engine
        num_topics = call_engine.num_topics
        theta = np.zeros((len(documents), num_topics))
        if not documents:
            return theta

        request_started = time.perf_counter()
        cache_hits_before = self.stats_.cache_hits
        keys = [bow_key(doc) for doc in documents]
        misses: List[int] = []
        # First occurrence of each missing key infers; duplicates within the
        # batch piggyback on it, counted as cache hits.
        miss_key_to_row: Dict[BowKey, int] = {}
        duplicate_rows: List[Tuple[int, int]] = []
        for row, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is not None:
                theta[row] = cached
                self.stats_.cache_hits += 1
            elif key in miss_key_to_row:
                duplicate_rows.append((row, miss_key_to_row[key]))
                self.stats_.cache_hits += 1
            else:
                miss_key_to_row[key] = row
                misses.append(row)

        for start in range(0, len(misses), self.max_batch_size):
            if start:
                # Between micro-batches is the hot-swap point: a new registry
                # version published mid-call serves the remaining batches.
                self.refresh()
            # The dispatched micro-batch runs against one engine even if a
            # swap lands while it is in flight.  A mid-call swap to a model
            # with a *different topic count* cannot fill this call's θ rows:
            # the rest of the call stays on the engine it started with (the
            # swap still holds for future calls), and those rows are not
            # cached — they would poison the new model's cache.
            engine = self.engine
            cacheable = engine.num_topics == num_topics
            if not cacheable:
                engine = call_engine
            batch_rows = misses[start : start + self.max_batch_size]
            batch_docs = [documents[row] for row in batch_rows]
            if self._registry is not None:
                # Registry-served models can move underneath a request: a
                # rollback (or a request encoded just before a swap) may
                # leave ids the dispatched snapshot has never seen.  Those
                # words are out-of-vocabulary *for this model* — drop them,
                # exactly like encode-time OOV handling, instead of letting
                # the engine reject the whole batch.
                vocab_size = engine.snapshot.vocabulary_size
                batch_docs = [
                    doc if doc.size == 0 or doc.max() < vocab_size
                    else doc[doc < vocab_size]
                    for doc in batch_docs
                ]
            batch_started = time.perf_counter()
            batch_theta = engine.infer_ids(batch_docs)
            elapsed = time.perf_counter() - batch_started
            self.stats_.batches += 1
            self.stats_.documents_inferred += len(batch_rows)
            self.stats_.tokens_inferred += int(sum(doc.size for doc in batch_docs))
            self.stats_.inference_seconds += elapsed
            if obs.enabled:
                obs.observe("serving.batch_seconds", elapsed)
                obs.observe("serving.batch_size", len(batch_rows))
            for row, theta_row in zip(batch_rows, batch_theta):
                theta[row] = theta_row
                if cacheable:
                    cache_row = theta_row.copy()
                    cache_row.flags.writeable = False
                    self.cache.put(keys[row], cache_row)

        for row, source_row in duplicate_rows:
            theta[row] = theta[source_row]

        # Every request in this call observed the full call duration.
        call_latency = time.perf_counter() - request_started
        self.stats_.requests += len(documents)
        self.stats_.latencies.extend([call_latency] * len(documents))
        if obs.enabled:
            obs.count("serving.requests", len(documents))
            obs.count(
                "serving.cache_hits",
                self.stats_.cache_hits - cache_hits_before,
            )
            # Same latency accounting as ServerStats: each request in the
            # call observed the whole call.
            for _ in range(len(documents)):
                obs.observe("serving.request_seconds", call_latency)
        return theta

    # ------------------------------------------------------------------ #
    def stats(self) -> ServerStats:
        """The live statistics object (see :class:`ServerStats`).

        Cache occupancy, eviction count and the served registry version are
        synced from their owners on every call, so the returned object is
        always current.
        """
        self.stats_.cache_size = len(self.cache)
        self.stats_.cache_evictions = self.cache.evictions
        self.stats_.served_version = self.served_version
        return self.stats_

    def reset_stats(self) -> None:
        """Zero all counters and latency records (cache is kept)."""
        self.stats_ = ServerStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopicServer(K={self.engine.num_topics}, "
            f"max_batch_size={self.max_batch_size}, cached={len(self.cache)}, "
            f"requests={self.stats_.requests})"
        )
