"""Tests for LRU cache eviction and the negative result cache."""

import pytest

from repro.errors import PathNotFoundError
from repro.graph.generators import path_graph
from repro.service import PathService
from repro.service.cache import ResultCache


class TestMemoryEviction:
    """The entry-count bound is what bounds the cache's memory."""

    def test_batch_stats_surface_evictions(self, small_grid_graph):
        with PathService(cache_size=2) as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many(
                [(0, t) for t in range(1, 6)])
            assert batch.stats.evictions == 3


class TestNegativeCache:
    def _disconnected_service(self, cache_size=1024):
        graph = path_graph(3)
        graph.add_node(9)
        service = PathService(cache_size=cache_size)
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

    def test_capacity_bounds_negative_entries(self):
        cache = ResultCache(capacity=2)
        for target in range(5):
            cache.put_negative(("g", 0, target), "no path")
        assert cache.stats().negative_size == 2

    def test_zero_capacity_disables_negative_entries(self):
        cache = ResultCache(capacity=0)
        cache.put_negative(("g", 0, 9), "no path")
        assert cache.get_negative(("g", 0, 9)) is None

    def test_invalidate_graph_drops_negative_entries(self):
        cache = ResultCache(capacity=8)
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
