"""Tests for cache eviction policies (TTL, memory footprint) and the
negative result cache."""

import pytest

from repro.core.path import PathResult
from repro.errors import PathNotFoundError
from repro.graph.generators import path_graph
from repro.service import PathService
from repro.service.cache import ResultCache, estimate_result_bytes


def _result(source=0, target=1, hops=1):
    path = list(range(source, source + hops + 1))
    return PathResult(source, target, float(hops), path, None)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTTLEviction:
    def test_expired_entry_is_a_miss(self):
        cache = ResultCache(capacity=8, ttl_seconds=10.0)
        clock = FakeClock()
        cache._clock = clock
        cache.put(("g", 0, 1), _result())
        assert cache.get(("g", 0, 1)) is not None
        clock.advance(11.0)
        assert cache.get(("g", 0, 1)) is None
        stats = cache.stats()
        assert stats.ttl_evictions == 1
        assert stats.evictions == 1
        assert stats.size == 0

    def test_fresh_entry_survives(self):
        cache = ResultCache(capacity=8, ttl_seconds=10.0)
        clock = FakeClock()
        cache._clock = clock
        cache.put(("g", 0, 1), _result())
        clock.advance(9.0)
        assert cache.get(("g", 0, 1)) is not None
        assert cache.stats().ttl_evictions == 0

    def test_put_sweeps_expired_entries(self):
        cache = ResultCache(capacity=8, ttl_seconds=10.0)
        clock = FakeClock()
        cache._clock = clock
        cache.put(("g", 0, 1), _result())
        cache.put(("g", 0, 2), _result(target=2))
        clock.advance(11.0)
        cache.put(("g", 0, 3), _result(target=3))
        stats = cache.stats()
        assert stats.size == 1
        assert stats.ttl_evictions == 2

    def test_negative_entries_expire_too(self):
        cache = ResultCache(capacity=8, ttl_seconds=10.0,
                            negative_capacity=8)
        clock = FakeClock()
        cache._clock = clock
        cache.put_negative(("g", 0, 9), "no path")
        assert cache.get_negative(("g", 0, 9)) == "no path"
        clock.advance(11.0)
        assert cache.get_negative(("g", 0, 9)) is None
        stats = cache.stats()
        # A negative expiry counts in both the TTL and aggregate counters
        # (ttl_evictions can never exceed evictions).
        assert stats.ttl_evictions == 1
        assert stats.evictions == 1

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=8, ttl_seconds=0.0)


class TestMemoryEviction:
    def test_lru_tail_evicted_past_budget(self):
        entry_size = estimate_result_bytes(_result())
        cache = ResultCache(capacity=100, max_bytes=3 * entry_size)
        for target in range(1, 5):  # four entries, budget fits three
            cache.put(("g", 0, target), _result(target=target))
        stats = cache.stats()
        assert stats.size == 3
        assert stats.memory_evictions == 1
        assert stats.memory_bytes <= 3 * entry_size
        assert cache.get(("g", 0, 1)) is None  # oldest went first
        assert cache.get(("g", 0, 4)) is not None

    def test_oversized_result_passes_through(self):
        cache = ResultCache(capacity=100, max_bytes=64)
        cache.put(("g", 0, 1), _result(hops=50))
        # The single entry exceeds the budget but is never self-evicted.
        assert cache.get(("g", 0, 1)) is not None
        assert cache.stats().size == 1

    def test_memory_accounting_tracks_replacements(self):
        cache = ResultCache(capacity=100, max_bytes=10_000)
        cache.put(("g", 0, 1), _result(hops=1))
        small = cache.stats().memory_bytes
        cache.put(("g", 0, 1), _result(hops=30))
        grown = cache.stats().memory_bytes
        assert grown > small
        cache.clear()
        assert cache.stats().memory_bytes == 0

    def test_service_exposes_eviction_knobs(self, small_grid_graph):
        with PathService(cache_size=100, cache_max_bytes=3000) as service:
            service.add_graph("default", small_grid_graph)
            for target in range(1, 10):
                service.shortest_path(0, target)
            info = service.cache_info()
            assert info.max_bytes == 3000
            # The budget holds only a couple of results; the LRU tail went.
            assert info.size < 9
            assert info.memory_evictions > 0

    def test_batch_stats_surface_evictions(self, small_grid_graph):
        with PathService(cache_size=2) as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many(
                [(0, t) for t in range(1, 6)])
            assert batch.stats.evictions == 3


class TestNegativeCache:
    def _disconnected_service(self, negative_cache_size=1024, **kwargs):
        graph = path_graph(3)
        graph.add_node(9)
        service = PathService(negative_cache_size=negative_cache_size,
                              **kwargs)
        service.add_graph("default", graph)
        return service

    def test_repeat_miss_skips_execution(self):
        with self._disconnected_service() as service:
            with pytest.raises(PathNotFoundError):
                service.shortest_path(0, 9)
            with pytest.raises(PathNotFoundError) as second:
                service.shortest_path(0, 9)
            info = service.cache_info()
            assert info.negative_hits == 1
            assert info.negative_size == 1
            # The replayed verdict carries the original message.
            assert "9" in str(second.value)

    def test_negative_capacity_bounds_entries(self):
        cache = ResultCache(capacity=8, negative_capacity=2)
        for target in range(5):
            cache.put_negative(("g", 0, target), "no path")
        assert cache.stats().negative_size == 2

    def test_zero_negative_capacity_disables(self):
        cache = ResultCache(capacity=8, negative_capacity=0)
        cache.put_negative(("g", 0, 9), "no path")
        assert cache.get_negative(("g", 0, 9)) is None

    def test_invalidate_graph_drops_negative_entries(self):
        cache = ResultCache(capacity=8, negative_capacity=8)
        cache.put_negative(("g", 0, 9), "no path")
        cache.put_negative(("h", 0, 9), "no path")
        assert cache.invalidate_graph("g") == 1
        assert cache.get_negative(("g", 0, 9)) is None
        assert cache.get_negative(("h", 0, 9)) == "no path"

    def test_drop_graph_invalidates_negative_verdicts(self):
        with self._disconnected_service() as service:
            with pytest.raises(PathNotFoundError):
                service.shortest_path(0, 9)
            service.drop_graph("default")
            # Re-register with a connecting edge: the old verdict must not
            # shadow the now-reachable pair.
            graph = path_graph(3)
            graph.add_edge(2, 9, 1.0)
            service.add_graph("default", graph)
            result = service.shortest_path(0, 9)
            assert result.distance > 0

    def test_parallel_batch_hits_negative_cache(self):
        with self._disconnected_service(cache_size=1024) as service:
            with pytest.raises(PathNotFoundError):
                service.shortest_path(0, 9)
            batch = service.shortest_path_many(
                [(0, 9), (0, 9), (0, 2), (0, 9)], concurrency=3)
            assert batch.stats.not_found == 3
            assert batch.stats.negative_hits == 3
            assert batch.results[2] is not None

    def test_parallel_batch_populates_negative_cache(self):
        with self._disconnected_service(cache_size=1024) as service:
            batch = service.shortest_path_many(
                [(0, 9), (1, 9)], concurrency=2)
            assert batch.stats.not_found == 2
            assert service.cache_info().negative_size == 2

    def test_max_iterations_never_caches_negatively(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            with pytest.raises(PathNotFoundError):
                service.shortest_path(0, 24, method="BDJ", max_iterations=1)
            # A capped run's failure is not a verdict about reachability.
            assert service.cache_info().negative_size == 0
            assert service.shortest_path(0, 24).distance > 0
