"""Shared result cache (positive + negative).

Batch workloads repeat queries heavily (the paper's evaluation itself
replays random workloads), so :class:`PathService` memoizes finished
:class:`~repro.core.path.PathResult` objects keyed by
``(graph, source, target, method, sql_style, shard_id)`` — the trailing
shard identity (``None`` on unsharded services) keeps keys disjoint across
the shards of a :class:`repro.shard.ShardRouter`.  The cache is an LRU over
an :class:`~collections.OrderedDict` with three eviction policies layered
on top of the entry-count bound:

* **TTL** — entries older than ``ttl_seconds`` are dropped on access (and
  swept opportunistically on insert), so long-lived services do not serve
  arbitrarily old answers;
* **memory footprint** — an approximate per-entry byte estimate
  (:func:`estimate_result_bytes`) is summed, and the LRU tail is evicted
  until the total fits ``max_bytes``;
* **negative results** — unreachable-pair verdicts get their own bounded
  LRU (``negative_capacity``), so repeated misses skip the full
  bidirectional fixpoint, which runs to exhaustion precisely when no path
  exists and is therefore the *most* expensive outcome to recompute.

Hit/miss/eviction counters live in a :class:`repro.obs.MetricsRegistry`
(the service's, when one is passed in, so ``/metrics`` sees them live);
:class:`CacheStats` is a point-in-time *view* over those counters rather
than parallel bookkeeping.

The cache is thread-safe: parallel batch workers share one
:class:`ResultCache`, and every operation runs under an internal lock.
Identical members of one batch never race for a key: the batch executor
groups them before anything runs (see :mod:`repro.service.executor`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.path import PathResult
from repro.obs import MetricsRegistry
from repro.obs.schema import (
    METRIC_CACHE_EVICTIONS,
    METRIC_CACHE_HITS,
    METRIC_CACHE_MEMORY,
    METRIC_CACHE_MISSES,
    METRIC_CACHE_NEGATIVE_HITS,
    METRIC_CACHE_NEGATIVE_SIZE,
    METRIC_CACHE_SIZE,
)

CacheKey = Tuple[Hashable, ...]


def estimate_result_bytes(result: PathResult) -> int:
    """Approximate the retained-heap cost of caching ``result``.

    Deliberately a cheap model, not ``sys.getsizeof`` recursion: a fixed
    overhead for the result object and its cache slot, one pointer-plus-int
    per path hop, and a flat charge for the stats record plus its two
    timing dicts.  The absolute numbers matter less than being monotone in
    path length, which is what dominates real footprints.
    """
    size = 256 + 28 * len(result.path)
    stats = result.stats
    if stats is not None:
        size += 512 + 64 * (len(stats.time_by_phase)
                            + len(stats.time_by_operator))
    return size


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    negative_hits: int = 0
    negative_size: int = 0
    negative_capacity: int = 0
    ttl_evictions: int = 0
    memory_evictions: int = 0
    memory_bytes: int = 0
    max_bytes: Optional[int] = None
    ttl_seconds: Optional[float] = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The documented snake_case payload (see
        :mod:`repro.obs.schema`): every dataclass field plus the computed
        ``hit_rate``."""
        doc = asdict(self)
        doc["hit_rate"] = self.hit_rate
        return doc


class _Entry:
    """One positive cache slot: the result, its insertion time (for TTL)
    and its estimated footprint (for the memory bound)."""

    __slots__ = ("result", "inserted_at", "size_bytes")

    def __init__(self, result: PathResult, inserted_at: float,
                 size_bytes: int) -> None:
        self.result = result
        self.inserted_at = inserted_at
        self.size_bytes = size_bytes


class ResultCache:
    """A bounded LRU mapping of query keys to :class:`PathResult` objects,
    with optional TTL and memory-footprint eviction and a sibling negative
    cache for unreachable-pair verdicts.

    Safe to share across threads: lookups, inserts, invalidation, and stats
    snapshots each run under one internal lock.

    Args:
        capacity: maximum positive entries (``0`` disables positive
            caching).
        ttl_seconds: drop entries older than this on access (``None``
            disables TTL eviction).  Applies to negative entries too.
        max_bytes: approximate memory budget for positive entries; the LRU
            tail is evicted until the estimated total fits (``None``
            disables the bound).
        negative_capacity: maximum unreachable-pair verdicts (``0``
            disables negative caching).
        registry: the :class:`~repro.obs.MetricsRegistry` to publish
            counters into (a private one is created when omitted).
        name: the ``cache`` label on every published metric, so several
            caches (per-shard, shared router cache) stay distinguishable
            in one registry.
    """

    def __init__(self, capacity: int = 1024,
                 ttl_seconds: Optional[float] = None,
                 max_bytes: Optional[int] = None,
                 negative_capacity: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 name: str = "local") -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        if negative_capacity < 0:
            raise ValueError("negative cache capacity must be non-negative")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("cache TTL must be positive (or None)")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("cache memory bound must be positive (or None)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.max_bytes = max_bytes
        self.negative_capacity = negative_capacity
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        # key -> (verdict message, inserted_at)
        self._negative: "OrderedDict[CacheKey, Tuple[str, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self._clock = time.monotonic  # overridable in tests
        self._bytes = 0
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        labels = {"cache": name}
        self._hit_counter = self.registry.counter(
            METRIC_CACHE_HITS, labels, help="Positive result-cache hits")
        self._miss_counter = self.registry.counter(
            METRIC_CACHE_MISSES, labels, help="Positive result-cache misses")
        self._negative_hit_counter = self.registry.counter(
            METRIC_CACHE_NEGATIVE_HITS, labels,
            help="Unreachable-verdict cache hits")
        self._evict_lru = self.registry.counter(
            METRIC_CACHE_EVICTIONS, {**labels, "reason": "lru"},
            help="Cache evictions by reason")
        self._evict_ttl = self.registry.counter(
            METRIC_CACHE_EVICTIONS, {**labels, "reason": "ttl"})
        self._evict_memory = self.registry.counter(
            METRIC_CACHE_EVICTIONS, {**labels, "reason": "memory"})
        size_gauge = self.registry.gauge(
            METRIC_CACHE_SIZE, labels, help="Positive entries held")
        negative_gauge = self.registry.gauge(
            METRIC_CACHE_NEGATIVE_SIZE, labels,
            help="Negative verdicts held")
        memory_gauge = self.registry.gauge(
            METRIC_CACHE_MEMORY, labels,
            help="Estimated bytes held by positive entries")

        def _collect() -> None:
            with self._lock:
                size_gauge.set(len(self._entries))
                negative_gauge.set(len(self._negative))
                memory_gauge.set(self._bytes)

        self.registry.register_collector(_collect)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- positive entries --------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[PathResult]:
        """Return the cached result for ``key`` (refreshing its recency) or
        ``None`` on a miss.  An entry past its TTL is evicted and counts as
        a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry.inserted_at):
                self._drop(key, ttl=True)
                entry = None
            if entry is None:
                self._miss_counter.inc()
                return None
            self._entries.move_to_end(key)
            self._hit_counter.inc()
            return entry.result

    def put(self, key: CacheKey, result: PathResult) -> None:
        """Insert ``result``, evicting expired entries, then the
        least-recently-used entries past the count or memory bound.  A
        zero-capacity cache stores nothing."""
        if self.capacity == 0:
            return
        entry = _Entry(result, self._clock(), estimate_result_bytes(result))
        with self._lock:
            self._sweep_expired()
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.size_bytes
            self._entries[key] = entry
            self._bytes += entry.size_bytes
            while len(self._entries) > self.capacity:
                self._drop(next(iter(self._entries)))
            if self.max_bytes is not None:
                # Never evict the entry just inserted: an oversized result
                # simply passes through without poisoning the whole cache.
                while self._bytes > self.max_bytes and len(self._entries) > 1:
                    self._drop(next(iter(self._entries)), memory=True)

    # -- negative entries --------------------------------------------------------

    def get_negative(self, key: CacheKey) -> Optional[str]:
        """Return the cached unreachable-verdict message for ``key``
        (refreshing its recency), or ``None`` when the pair is not known to
        be unreachable.  Does not touch the positive hit/miss counters."""
        with self._lock:
            cached = self._negative.get(key)
            if cached is None:
                return None
            message, inserted_at = cached
            if self._expired(inserted_at):
                del self._negative[key]
                self._evict_ttl.inc()
                return None
            self._negative.move_to_end(key)
            self._negative_hit_counter.inc()
            return message

    def put_negative(self, key: CacheKey, message: str) -> None:
        """Record that ``key``'s endpoints are not connected.  A
        zero-capacity negative cache stores nothing."""
        if self.negative_capacity == 0:
            return
        with self._lock:
            if key in self._negative:
                self._negative.move_to_end(key)
            self._negative[key] = (message, self._clock())
            while len(self._negative) > self.negative_capacity:
                self._negative.popitem(last=False)
                self._evict_lru.inc()

    # -- maintenance -------------------------------------------------------------

    def invalidate_graph(self, graph: str) -> int:
        """Drop every entry belonging to ``graph`` (its first key field),
        negative verdicts included; returns how many were dropped."""
        with self._lock:
            stale = [key for key in self._entries if key and key[0] == graph]
            for key in stale:
                self._bytes -= self._entries.pop(key).size_bytes
            stale_negative = [key for key in self._negative
                              if key and key[0] == graph]
            for key in stale_negative:
                del self._negative[key]
            return len(stale) + len(stale_negative)

    def clear(self) -> None:
        """Drop all entries, negative verdicts included (counters are
        kept)."""
        with self._lock:
            self._entries.clear()
            self._negative.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` view over the registry
        counters plus the live structural sizes."""
        ttl_evictions = int(self._evict_ttl.value)
        memory_evictions = int(self._evict_memory.value)
        evictions = (int(self._evict_lru.value) + ttl_evictions
                     + memory_evictions)
        with self._lock:
            return CacheStats(hits=int(self._hit_counter.value),
                              misses=int(self._miss_counter.value),
                              evictions=evictions,
                              size=len(self._entries),
                              capacity=self.capacity,
                              negative_hits=int(
                                  self._negative_hit_counter.value),
                              negative_size=len(self._negative),
                              negative_capacity=self.negative_capacity,
                              ttl_evictions=ttl_evictions,
                              memory_evictions=memory_evictions,
                              memory_bytes=self._bytes,
                              max_bytes=self.max_bytes,
                              ttl_seconds=self.ttl_seconds)

    # -- internals (call with the lock held) -------------------------------------

    def _expired(self, inserted_at: float) -> bool:
        return (self.ttl_seconds is not None
                and self._clock() - inserted_at > self.ttl_seconds)

    def _drop(self, key: CacheKey, ttl: bool = False,
              memory: bool = False) -> None:
        self._bytes -= self._entries.pop(key).size_bytes
        if ttl:
            self._evict_ttl.inc()
        elif memory:
            self._evict_memory.inc()
        else:
            self._evict_lru.inc()

    def _sweep_expired(self) -> None:
        if self.ttl_seconds is None:
            return
        expired = [key for key, entry in self._entries.items()
                   if self._expired(entry.inserted_at)]
        for key in expired:
            self._drop(key, ttl=True)
        expired_negative = [key for key, (_, inserted_at)
                            in self._negative.items()
                            if self._expired(inserted_at)]
        for key in expired_negative:
            del self._negative[key]
            self._evict_ttl.inc()


__all__ = ["CacheKey", "CacheStats", "ResultCache", "estimate_result_bytes"]
