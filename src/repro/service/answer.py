"""The answer path: how one query meets a result cache.

Every answer the library hands out — a :class:`PathService` query, each
member of a batch, a :class:`repro.shard.ShardRouter` query over its
cross-shard cache — goes through an :class:`AnswerPath`.  Callers differ
only in the key and in what "run" means (a store execution for a
service, a routed shard call for a router); the cache and replay policy
lives here.  The cache keeps a pristine copy of every answer and a replay
hands out a fresh one (:func:`copy_result`), so whatever a caller is
handed it may mutate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Callable, Optional, Tuple, Union

from repro.core.path import PathResult
from repro.core.stats import BatchStats
from repro.errors import PathNotFoundError
from repro.obs import MetricsRegistry
from repro.obs import span as obs_span
from repro.obs.schema import METRIC_SINGLE_FLIGHT
from repro.service.cache import CacheKey, ResultCache

# What answering a query produced: its result, or the exception it raised.
Outcome = Union[PathResult, BaseException]


def copy_result(result: PathResult) -> PathResult:
    """A fresh result object per handout, so callers can mutate what they
    receive (path or stats) without corrupting a cached original."""
    stats = result.stats
    if stats is not None:
        stats = replace(stats,
                        time_by_phase=defaultdict(float, stats.time_by_phase),
                        time_by_operator=defaultdict(
                            float, stats.time_by_operator))
    # trace=None: a trace describes ONE execution; a copy handed out for a
    # cache hit did not run, so the trace root's owner re-attaches.
    return replace(result, path=list(result.path), stats=stats, trace=None)


class AnswerPath:
    """Lookup → replay → run → fill over one result cache.

    Args:
        cache: the result cache; ``None`` when the owner has none, in
            which case every key passed in must be ``None`` too.
        registry: where replays (and ``hit_metric``) count.
        hit_metric: an extra counter bumped on every cache answer,
            positive or negative (the router's
            :data:`~repro.obs.schema.METRIC_SHARED_CACHE_HITS`).
    """

    def __init__(self, cache: Optional[ResultCache],
                 registry: MetricsRegistry,
                 hit_metric: Optional[str] = None) -> None:
        self.cache = cache
        self._registry = registry
        self._hit_metric = hit_metric

    def lookup(self, key: Optional[CacheKey],
               stats: Optional[BatchStats] = None) -> Optional[PathResult]:
        """The counted cache lookup of ``key`` (``None``: no lookup).

        Returns a copy of the cached answer, or ``None`` on a miss.

        Raises:
            PathNotFoundError: the pair is a remembered unreachable one —
                answered without re-running the full search, which runs to
                exhaustion precisely because no path exists.
        """
        if key is None:
            return None
        assert self.cache is not None
        with obs_span("cache.lookup") as lookup_span:
            cached = self.cache.get(key)
            if cached is not None:
                lookup_span.tag(outcome="hit")
                self._hit(stats, "cache_hits")
                return copy_result(cached)
            verdict = self.cache.get_negative(key)
            if verdict is not None:
                lookup_span.tag(outcome="negative_hit")
                self._hit(stats, "negative_hits")
                raise PathNotFoundError(verdict)
            lookup_span.tag(outcome="miss")
        return None

    def remember(self, key: Optional[CacheKey], result: PathResult,
                 stats: Optional[BatchStats] = None
                 ) -> Optional[PathResult]:
        """Cache a pristine copy of ``result`` under ``key`` and return
        that copy; ``result`` stays the caller's.  With ``key=None``
        nothing is copied or cached and ``None`` is returned."""
        if key is None:
            return None
        assert self.cache is not None
        pristine = copy_result(result)
        self.cache.put(key, pristine)
        if stats is not None:
            stats.add(cache_misses=1)
        return pristine

    def remember_unreachable(self, key: Optional[CacheKey],
                             message: str) -> None:
        """Record that ``key``'s endpoints are not connected (``None``:
        record nothing)."""
        if key is not None:
            assert self.cache is not None
            self.cache.put_negative(key, message)

    def answer(self, key: Optional[CacheKey], run: Callable[[], PathResult],
               *, replay: Optional[Outcome] = None,
               stats: Optional[BatchStats] = None
               ) -> Tuple[PathResult, bool]:
        """Answer one query: from the cache, from ``replay``, or by
        calling ``run()`` and remembering its outcome — in that order.

        ``replay`` stands in only where no cache key does: with a key, the
        cache remembers the first occurrence's outcome, and one it has
        dropped since (evicted, or an unreachable verdict with no negative
        cache) runs again, exactly as it would in a serial batch.

        Returns ``(result, replayed)``: ``replayed`` is ``True`` when the
        answer came from the cache or from ``replay`` rather than from
        ``run()`` here.

        Args:
            key: the cache key, or ``None`` to neither consult nor fill
                the cache (cache off, ``use_cache=False``, or a query whose
                answer must never be reused).
            run: produces the answer; a :class:`PathNotFoundError` it
                raises is remembered as an unreachable verdict.
            replay: the outcome of an identical query answered before
                this one (a batch's duplicate member gets its leader's
                result or exception); with ``key=None`` it is handed back
                as a copy, or re-raised.
            stats: batch counters to bump (hits, negative hits, replays,
                and a miss per answer cached).
        """
        cached = self.lookup(key, stats)
        if cached is not None:
            return cached, True
        if replay is not None and key is None:
            self._registry.counter(METRIC_SINGLE_FLIGHT).inc()
            if stats is not None:
                stats.add(single_flight_hits=1)
            if isinstance(replay, BaseException):
                raise replay
            return copy_result(replay), True
        try:
            result = run()
        except PathNotFoundError as exc:
            self.remember_unreachable(key, str(exc))
            raise
        self.remember(key, result, stats)
        return result, False

    def _hit(self, stats: Optional[BatchStats], counter: str) -> None:
        if self._hit_metric is not None:
            self._registry.counter(self._hit_metric).inc()
        if stats is not None:
            stats.add(**{counter: 1})


__all__ = ["AnswerPath", "Outcome", "copy_result"]
