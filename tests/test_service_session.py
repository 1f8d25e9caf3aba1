"""Tests for PathService: multi-graph hosting, lifecycle, caching, memoization."""

import pytest

from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore
from repro.errors import (
    DuplicateGraphError,
    InvalidQueryError,
    NodeNotFoundError,
    UnknownGraphError,
)
from repro.graph.generators import grid_graph, path_graph, power_law_graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService


class TestGraphHosting:
    def test_multi_graph_hosting(self):
        with PathService() as service:
            service.add_graph("path", path_graph(6, weight_range=(2, 2)))
            service.add_graph("grid", grid_graph(3, 3, seed=1),
                              backend="sqlite")
            assert service.graphs() == ("path", "grid")
            assert service.shortest_path(0, 5, graph="path").distance == 10
            expected = dijkstra_shortest_path(service.graph("grid"), 0, 8).distance
            assert service.shortest_path(0, 8, graph="grid").distance == expected

    def test_backend_per_graph(self):
        with PathService() as service:
            service.add_graph("a", path_graph(3), backend="minidb")
            service.add_graph("b", path_graph(3), backend="sqlite")
            assert isinstance(service.store("a"), MiniDBGraphStore)
            assert isinstance(service.store("b"), SQLiteGraphStore)

    def test_duplicate_graph_name_raises(self):
        with PathService() as service:
            service.add_graph("g", path_graph(3))
            with pytest.raises(DuplicateGraphError):
                service.add_graph("g", path_graph(4))

    def test_unknown_graph_raises(self):
        with PathService() as service:
            with pytest.raises(UnknownGraphError):
                service.shortest_path(0, 1, graph="nope")

    def test_drop_graph(self):
        with PathService() as service:
            service.add_graph("g", path_graph(4, weight_range=(1, 1)))
            service.shortest_path(0, 3, graph="g")
            service.drop_graph("g")
            assert service.graphs() == ()
            with pytest.raises(UnknownGraphError):
                service.shortest_path(0, 3, graph="g")
            # Re-adding under the same name works and serves fresh results.
            service.add_graph("g", path_graph(4, weight_range=(2, 2)))
            assert service.shortest_path(0, 3, graph="g",
                                         use_cache=False).distance == 6

    def test_node_validation(self):
        with PathService() as service:
            service.add_graph("g", path_graph(3))
            with pytest.raises(NodeNotFoundError):
                service.shortest_path(0, 99, graph="g")
            # In-memory methods validate identically.
            with pytest.raises(NodeNotFoundError):
                service.shortest_path(0, 99, graph="g", method="MDJ")

    def test_unknown_method(self):
        with PathService() as service:
            service.add_graph("g", path_graph(3))
            with pytest.raises(InvalidQueryError):
                service.shortest_path(0, 2, graph="g", method="ASTAR")

    def test_close_is_idempotent(self):
        service = PathService()
        service.add_graph("g", path_graph(3))
        service.close()
        service.close()

    def test_statistics_memoized(self):
        with PathService() as service:
            service.add_graph("g", grid_graph(3, 3, seed=1))
            assert service.statistics("g") is service.statistics("g")
            assert service.statistics("g").num_nodes == 9


class TestSegTableMemoization:
    def test_same_parameters_reuse_build(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.build_segtable(lthd=5)
            second = service.build_segtable(lthd=5)
            assert second is first

    def test_different_lthd_rebuilds(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.build_segtable(lthd=5)
            second = service.build_segtable(lthd=8)
            assert second is not first
            assert service.segtable_stats() is second

    def test_force_rebuilds(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.build_segtable(lthd=5)
            second = service.build_segtable(lthd=5, force=True)
            assert second is not first

    def test_segtable_stats_none_until_built(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            assert service.segtable_stats() is None

    def test_catalog_less_builds_never_hash_the_graph(
            self, small_grid_graph, tmp_path, monkeypatch):
        """The memo lives on the graph's host, whose graph is frozen, so
        neither a build, its memoized repeat, nor adopting a built
        database fingerprints the graph."""
        import repro.service.session as session_module

        def refuse(graph):
            raise AssertionError("a catalog-less build hashed the graph")

        monkeypatch.setattr(session_module, "fingerprint_graph", refuse)
        db_path = str(tmp_path / "g.db")
        with PathService() as service:
            service.add_graph("g", small_grid_graph, backend="sqlite",
                              db_path=db_path)
            first = service.build_segtable("g", lthd=5)
            assert service.build_segtable("g", lthd=5) is first
        with PathService() as service:
            service.adopt_graph("g", backend="sqlite", dsn=db_path)
            assert service.segtable_stats("g") is not None

    def test_readded_graph_under_same_name_rebuilds(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.build_segtable(lthd=5)
            service.drop_graph("default")
            service.add_graph("default", grid_graph(4, 4, seed=3))
            second = service.build_segtable(lthd=5)
            assert second is not first
            assert service.segtable_builds == 2

    def test_bseg_runs_after_build(self, small_grid_graph):
        expected = dijkstra_shortest_path(small_grid_graph, 0, 24).distance
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            service.build_segtable(lthd=10)
            result = service.shortest_path(0, 24, method="BSEG")
            assert abs(result.distance - expected) < 1e-6


class TestResultCache:
    def test_repeat_query_hits_cache(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.shortest_path(0, 24)
            info = service.cache_info()
            assert info.hits == 0 and info.misses == 1
            second = service.shortest_path(0, 24)
            info = service.cache_info()
            assert info.hits == 1
            # A hit replays the one execution's record in a fresh result
            # object, so callers cannot corrupt the cache.
            assert second.stats is not first.stats
            assert second.stats.total_time == first.stats.total_time
            assert second.stats.expansions == first.stats.expansions
            assert second.path == first.path

    def test_cache_hit_is_mutation_safe(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.shortest_path(0, 24)
            expected = list(first.path)
            expected_time = first.stats.total_time
            first.path.reverse()  # a careless caller mutates the result...
            first.stats.total_time = 999.0  # ...and its stats
            second = service.shortest_path(0, 24)
            assert second.path == expected
            assert second.stats.total_time == expected_time

    def test_use_cache_false_bypasses(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            first = service.shortest_path(0, 24, use_cache=False)
            second = service.shortest_path(0, 24, use_cache=False)
            assert second is not first
            assert service.cache_info().hits == 0

    def test_methods_cached_separately(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            a = service.shortest_path(0, 24, method="BDJ")
            b = service.shortest_path(0, 24, method="BSDJ")
            assert a.distance == b.distance
            assert service.cache_info().misses == 2

    def test_auto_and_explicit_share_entries(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            auto_plan = service.explain(0, 24)
            service.shortest_path(0, 24, method="auto")
            service.shortest_path(0, 24, method=auto_plan.method)
            assert service.cache_info().hits == 1

    def test_max_iterations_never_cached(self, small_grid_graph):
        from repro.errors import PathNotFoundError
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            try:
                service.shortest_path(0, 24, method="BDJ", max_iterations=1)
            except PathNotFoundError:
                pass
            info = service.cache_info()
            assert info.misses == 0 and info.size == 0

    def test_clear_cache(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            service.shortest_path(0, 24)
            service.clear_cache()
            assert service.cache_info().size == 0

    def test_zero_capacity_disables_caching(self, small_grid_graph):
        with PathService(cache_size=0) as service:
            service.add_graph("default", small_grid_graph)
            first = service.shortest_path(0, 24)
            second = service.shortest_path(0, 24)
            assert second is not first
            assert service.cache_info().size == 0

    def test_lru_eviction(self, small_grid_graph):
        with PathService(cache_size=2) as service:
            service.add_graph("default", small_grid_graph)
            service.shortest_path(0, 10)
            service.shortest_path(0, 11)
            service.shortest_path(0, 12)  # evicts (0, 10)
            info = service.cache_info()
            assert info.size == 2
            assert info.evictions == 1
            service.shortest_path(0, 10)  # miss again
            assert service.cache_info().hits == 0


class TestClosedService:
    def test_add_graph_after_close_rejected(self):
        from repro.errors import ServiceError
        service = PathService()
        service.close()
        with pytest.raises(ServiceError):
            service.add_graph("g", path_graph(3))

    def test_disabled_cache_reports_no_misses(self, small_grid_graph):
        # capacity 0 must not report misses-then-cached for queries that
        # were never cached; a duplicate pair inside one batch is still
        # deduplicated (single-flight replay), not re-executed serially.
        with PathService(cache_size=0) as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([(0, 24), (0, 24)])
            assert batch.stats.cache_misses == 0
            assert batch.stats.cache_hits == 0
            assert batch.stats.executed == 1
            assert batch.stats.single_flight_hits == 1
            assert batch.results[0] is not None
            assert batch.results[1] is not None
            assert batch.results[0].distance == batch.results[1].distance
            assert batch.results[0].path == batch.results[1].path
            info = service.cache_info()
            assert info.misses == 0 and info.hits == 0
