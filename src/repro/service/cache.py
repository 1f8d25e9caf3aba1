"""Shared result cache (positive + negative).

Batch workloads repeat queries heavily (the paper's evaluation itself
replays random workloads), so :class:`PathService` memoizes finished
:class:`~repro.core.path.PathResult` objects keyed by
``(graph, source, target, method, sql_style, shard_id)`` — the trailing
shard identity (``None`` on unsharded services) keeps keys disjoint across
the shards of a :class:`repro.shard.ShardRouter`.  The cache is two LRUs
over :class:`~collections.OrderedDict`, each bounded by ``capacity``:

* **positive results** — finished answers;
* **negative results** — unreachable-pair verdicts, so repeated misses
  skip the full bidirectional fixpoint, which runs to exhaustion precisely
  when no path exists and is therefore the *most* expensive outcome to
  recompute.

Nothing in the cache can go stale by age: a hosted graph is frozen,
:meth:`PathService.drop_graph` invalidates the graph's entries, and the
router's shared cache is keyed by graph fingerprint.  So the entry bound
is the only eviction policy, and it also bounds memory.

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
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.path import PathResult
from repro.obs import MetricsRegistry
from repro.obs.schema import (
    METRIC_CACHE_EVICTIONS,
    METRIC_CACHE_HITS,
    METRIC_CACHE_MISSES,
    METRIC_CACHE_NEGATIVE_HITS,
    METRIC_CACHE_NEGATIVE_SIZE,
    METRIC_CACHE_SIZE,
)

CacheKey = Tuple[Hashable, ...]


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


class ResultCache:
    """A bounded LRU mapping of query keys to :class:`PathResult` objects,
    with a sibling LRU of unreachable-pair verdicts.

    Safe to share across threads: lookups, inserts, invalidation, and stats
    snapshots each run under one internal lock.

    Args:
        capacity: maximum entries in each of the positive and negative
            LRUs (``0`` disables caching altogether).
        registry: the :class:`~repro.obs.MetricsRegistry` to publish
            counters into (a private one is created when omitted).
        name: the ``cache`` label on every published metric, so several
            caches (per-shard, shared router cache) stay distinguishable
            in one registry.
    """

    def __init__(self, capacity: int = 1024,
                 registry: Optional[MetricsRegistry] = None,
                 name: str = "local") -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, PathResult]" = OrderedDict()
        # key -> the unreachable verdict's message
        self._negative: "OrderedDict[CacheKey, str]" = OrderedDict()
        self._lock = threading.Lock()
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
        size_gauge = self.registry.gauge(
            METRIC_CACHE_SIZE, labels, help="Positive entries held")
        negative_gauge = self.registry.gauge(
            METRIC_CACHE_NEGATIVE_SIZE, labels,
            help="Negative verdicts held")

        def _collect() -> None:
            with self._lock:
                size_gauge.set(len(self._entries))
                negative_gauge.set(len(self._negative))

        self.registry.register_collector(_collect)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- positive entries --------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[PathResult]:
        """Return the cached result for ``key`` (refreshing its recency) or
        ``None`` on a miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._miss_counter.inc()
                return None
            self._entries.move_to_end(key)
            self._hit_counter.inc()
            return result

    def put(self, key: CacheKey, result: PathResult) -> None:
        """Insert ``result``, evicting the least-recently-used entries past
        the capacity.  A zero-capacity cache stores nothing."""
        if self.capacity == 0:
            return
        with self._lock:
            self._insert(self._entries, key, result)

    # -- negative entries --------------------------------------------------------

    def get_negative(self, key: CacheKey) -> Optional[str]:
        """Return the cached unreachable-verdict message for ``key``
        (refreshing its recency), or ``None`` when the pair is not known to
        be unreachable.  Does not touch the positive hit/miss counters."""
        with self._lock:
            message = self._negative.get(key)
            if message is None:
                return None
            self._negative.move_to_end(key)
            self._negative_hit_counter.inc()
            return message

    def put_negative(self, key: CacheKey, message: str) -> None:
        """Record that ``key``'s endpoints are not connected.  A
        zero-capacity cache stores nothing."""
        if self.capacity == 0:
            return
        with self._lock:
            self._insert(self._negative, key, message)

    # -- maintenance -------------------------------------------------------------

    def invalidate_graph(self, graph: str) -> int:
        """Drop every entry belonging to ``graph`` (its first key field),
        negative verdicts included; returns how many were dropped."""
        dropped = 0
        with self._lock:
            for entries in (self._entries, self._negative):
                stale = [key for key in entries if key and key[0] == graph]
                for key in stale:
                    del entries[key]
                dropped += len(stale)
        return dropped

    def clear(self) -> None:
        """Drop all entries, negative verdicts included (counters are
        kept)."""
        with self._lock:
            self._entries.clear()
            self._negative.clear()

    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` view over the registry
        counters plus the live structural sizes."""
        with self._lock:
            return CacheStats(hits=int(self._hit_counter.value),
                              misses=int(self._miss_counter.value),
                              evictions=int(self._evict_lru.value),
                              size=len(self._entries),
                              capacity=self.capacity,
                              negative_hits=int(
                                  self._negative_hit_counter.value),
                              negative_size=len(self._negative))

    # -- internals (call with the lock held) -------------------------------------

    def _insert(self, entries: "OrderedDict[CacheKey, object]",
                key: CacheKey, value: object) -> None:
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self._evict_lru.inc()


__all__ = ["CacheKey", "CacheStats", "ResultCache"]
