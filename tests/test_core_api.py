"""Tests for the single-graph query surface of PathService: one hosted
graph, explicit methods, and the throwaway load-query-close pattern."""

import pytest

from repro.errors import InvalidQueryError, NodeNotFoundError, PathNotFoundError
from repro.graph.generators import grid_graph, path_graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import METHODS, PathService, run_in_memory


def hosted(graph, **add_graph_options):
    """A cache-less service hosting ``graph`` as the default graph."""
    service = PathService(cache_size=0)
    service.add_graph("default", graph, **add_graph_options)
    return service


def _one_shot(graph, source, target, method="BSDJ", lthd=None,
              max_iterations=None, **add_graph_options):
    """Load, (optionally) index, query, close."""
    with hosted(graph, **add_graph_options) as service:
        if lthd is not None:
            service.build_segtable(lthd=lthd)
        return service.shortest_path(source, target, method=method,
                                     max_iterations=max_iterations)


class TestSingleGraphService:
    def test_methods_constant(self):
        assert set(METHODS) == {"DJ", "BDJ", "BSDJ", "BBFS", "BSEG", "MDJ", "MBDJ"}

    def test_context_manager(self):
        graph = path_graph(6, weight_range=(2, 2))
        with hosted(graph) as service:
            result = service.shortest_path(0, 5, method="BSDJ")
            assert result.distance == 10

    def test_unknown_backend(self):
        with PathService() as service:
            with pytest.raises(InvalidQueryError):
                service.add_graph("default", path_graph(3), backend="oracle")

    def test_unknown_method(self):
        with hosted(path_graph(3)) as service:
            with pytest.raises(InvalidQueryError):
                service.shortest_path(0, 2, method="ASTAR")

    def test_unknown_node(self):
        with hosted(path_graph(3)) as service:
            with pytest.raises(NodeNotFoundError):
                service.shortest_path(0, 99, method="BSDJ")

    def test_bseg_without_segtable(self):
        with hosted(path_graph(4)) as service:
            with pytest.raises(InvalidQueryError):
                service.shortest_path(0, 3, method="BSEG")

    def test_memory_methods_through_service(self):
        graph = grid_graph(3, 3, seed=1)
        expected = dijkstra_shortest_path(graph, 0, 8).distance
        with hosted(graph) as service:
            for method in ("MDJ", "MBDJ"):
                result = service.shortest_path(0, 8, method=method)
                assert result.distance == expected
                assert result.stats.method == method

    def test_method_names_case_insensitive(self):
        with hosted(path_graph(4, weight_range=(1, 1))) as service:
            assert service.shortest_path(0, 3, method="bsdj").distance == 3

    def test_segtable_stats_exposed(self):
        with hosted(grid_graph(3, 3, seed=2)) as service:
            stats = service.build_segtable(lthd=5)
            assert service.segtable_stats() is stats
            assert stats.encoding_number > 0


class TestOneShotHelpers:
    def test_shortest_path_default_method(self):
        graph = path_graph(5, weight_range=(1, 1))
        result = _one_shot(graph, 0, 4)
        assert result.distance == 4
        assert result.path == [0, 1, 2, 3, 4]

    def test_shortest_path_bseg_builds_index(self):
        graph = grid_graph(3, 3, seed=3)
        expected = dijkstra_shortest_path(graph, 0, 8).distance
        result = _one_shot(graph, 0, 8, method="BSEG", lthd=10)
        assert abs(result.distance - expected) < 1e-6

    def test_shortest_path_sqlite_backend(self):
        graph = path_graph(4, weight_range=(2, 2))
        result = _one_shot(graph, 0, 3, backend="sqlite")
        assert result.distance == 6

    def test_shortest_path_memory_method(self):
        graph = path_graph(4, weight_range=(2, 2))
        result = _one_shot(graph, 0, 3, method="MBDJ")
        assert result.distance == 6

    def test_in_memory_helper_validates_method(self):
        with pytest.raises(InvalidQueryError):
            run_in_memory(path_graph(3), 0, 2, method="DJ")

    def test_unreachable_propagates(self):
        graph = path_graph(3)
        graph.add_node(9)
        with pytest.raises(PathNotFoundError):
            _one_shot(graph, 0, 9)

    def test_stats_attached_to_result(self):
        graph = grid_graph(3, 3, seed=4)
        result = _one_shot(graph, 0, 8, method="BSDJ")
        assert result.stats is not None
        assert result.stats.method == "BSDJ"
        assert result.stats.found
        assert result.num_edges == len(result.path) - 1


class TestOneShotBugfixes:
    """Regressions of the load-query-close path: validation and option
    plumbing must not depend on which method runs."""

    def test_memory_methods_validate_nodes(self):
        # The MDJ/MBDJ fast path needs no store but must reject bad
        # endpoints like the relational paths do.
        graph = path_graph(3)
        for method in ("MDJ", "MBDJ"):
            with pytest.raises(NodeNotFoundError):
                _one_shot(graph, 0, 99, method=method)
            with pytest.raises(NodeNotFoundError):
                _one_shot(graph, 99, 0, method=method)

    def test_memory_methods_validate_sql_style(self):
        with hosted(path_graph(3)) as service:
            with pytest.raises(ValueError):
                service.shortest_path(0, 2, method="MDJ", sql_style="mysql")

    def test_max_iterations_plumbed_through(self):
        graph = path_graph(8, weight_range=(1, 1))
        with pytest.raises(PathNotFoundError):
            _one_shot(graph, 0, 7, method="DJ", max_iterations=1)
        assert _one_shot(graph, 0, 7, method="DJ").distance == 7

    def test_db_path_plumbed_through(self, tmp_path):
        db_file = tmp_path / "one_shot.sqlite"
        graph = path_graph(4, weight_range=(2, 2))
        result = _one_shot(graph, 0, 3, backend="sqlite",
                           db_path=str(db_file))
        assert result.distance == 6
        assert db_file.exists()
