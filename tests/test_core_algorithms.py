"""Correctness tests for the relational shortest-path algorithms.

Every relational method (DJ, BDJ, BSDJ, BBFS, BSEG) must return the same
distance as the in-memory Dijkstra oracle and a path that actually exists in
the graph, on both backends and in both SQL styles.
"""

import random

import pytest

from repro.errors import PathNotFoundError
from repro.graph.generators import grid_graph, path_graph, power_law_graph, random_graph
from repro.graph.model import Graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService

RELATIONAL_METHODS = ["DJ", "BDJ", "BSDJ", "BBFS", "BSEG"]


def hosted(graph, **add_graph_options):
    """A cache-less service hosting ``graph`` as the default graph."""
    service = PathService(cache_size=0)
    service.add_graph("default", graph, **add_graph_options)
    return service


def sample_connected_queries(graph, count, seed=0):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    queries = []
    attempts = 0
    while len(queries) < count and attempts < 200:
        attempts += 1
        source, target = rng.choice(nodes), rng.choice(nodes)
        try:
            oracle = dijkstra_shortest_path(graph, source, target)
        except PathNotFoundError:
            continue
        queries.append((source, target, oracle.distance))
    return queries


@pytest.fixture(scope="module")
def power_service():
    graph = power_law_graph(90, edges_per_node=2, seed=11)
    service = hosted(graph, backend="minidb", buffer_capacity=64)
    service.build_segtable(lthd=10)
    yield graph, service
    service.close()


@pytest.fixture(scope="module")
def sqlite_service():
    graph = random_graph(100, avg_degree=3.0, seed=13)
    service = hosted(graph, backend="sqlite")
    service.build_segtable(lthd=10)
    yield graph, service
    service.close()


class TestAgainstOracleMiniDB:
    @pytest.mark.parametrize("method", RELATIONAL_METHODS)
    def test_distances_match_oracle(self, power_service, method):
        graph, service = power_service
        for source, target, expected in sample_connected_queries(graph, 4, seed=1):
            result = service.shortest_path(source, target, method=method)
            assert abs(result.distance - expected) < 1e-6
            result.validate_against(graph)

    @pytest.mark.parametrize("method", ["DJ", "BSDJ", "BSEG"])
    def test_tsql_style_matches_oracle(self, power_service, method):
        graph, service = power_service
        for source, target, expected in sample_connected_queries(graph, 2, seed=2):
            result = service.shortest_path(source, target, method=method,
                                           sql_style="tsql")
            assert abs(result.distance - expected) < 1e-6
            result.validate_against(graph)


class TestAgainstOracleSQLite:
    @pytest.mark.parametrize("method", RELATIONAL_METHODS)
    @pytest.mark.parametrize("sql_style", ["nsql", "tsql"])
    def test_distances_match_oracle(self, sqlite_service, method, sql_style):
        graph, service = sqlite_service
        for source, target, expected in sample_connected_queries(graph, 2, seed=3):
            result = service.shortest_path(source, target, method=method,
                                           sql_style=sql_style)
            assert abs(result.distance - expected) < 1e-6
            result.validate_against(graph)


class TestSpecialCases:
    @pytest.mark.parametrize("method", RELATIONAL_METHODS)
    def test_source_equals_target(self, method):
        graph = path_graph(5)
        service = hosted(graph)
        service.build_segtable(lthd=2)
        result = service.shortest_path(3, 3, method=method)
        assert result.distance == 0
        assert result.path == [3]
        service.close()

    @pytest.mark.parametrize("method", RELATIONAL_METHODS)
    def test_unreachable_target_raises(self, method):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(5, 6, 1.0)  # disconnected component
        service = hosted(graph)
        service.build_segtable(lthd=2)
        with pytest.raises(PathNotFoundError):
            service.shortest_path(0, 6, method=method)
        service.close()

    @pytest.mark.parametrize("method", RELATIONAL_METHODS)
    def test_adjacent_nodes(self, method):
        graph = grid_graph(3, 3, seed=5)
        service = hosted(graph)
        service.build_segtable(lthd=5)
        expected = dijkstra_shortest_path(graph, 0, 1).distance
        result = service.shortest_path(0, 1, method=method)
        assert abs(result.distance - expected) < 1e-6
        service.close()

    def test_directed_asymmetry(self):
        graph = Graph()
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 2, 3.0)
        graph.add_edge(2, 0, 1.0)
        service = hosted(graph)
        forward = service.shortest_path(0, 2, method="BSDJ")
        backward = service.shortest_path(2, 0, method="BSDJ")
        assert forward.distance == 6.0
        assert backward.distance == 1.0
        service.close()

    def test_zero_weight_edges(self):
        graph = Graph()
        graph.add_edge(0, 1, 0.0)
        graph.add_edge(1, 2, 0.0)
        graph.add_edge(0, 2, 5.0)
        service = hosted(graph)
        result = service.shortest_path(0, 2, method="BSDJ")
        assert result.distance == 0.0
        service.close()


class TestStatisticsShape:
    def test_bsdj_fewer_expansions_than_bdj(self, power_service):
        """The set-at-a-time claim of Table 2: BSDJ needs no more expansions
        than BDJ, which needs far fewer than DJ."""
        graph, service = power_service
        queries = sample_connected_queries(graph, 3, seed=4)
        total = {"DJ": 0, "BDJ": 0, "BSDJ": 0}
        for source, target, _expected in queries:
            for method in total:
                result = service.shortest_path(source, target, method=method)
                total[method] += result.stats.expansions
        assert total["BSDJ"] <= total["BDJ"] <= total["DJ"]

    def test_bseg_no_more_expansions_than_bsdj(self, power_service):
        """Theorem 3: selective expansion over SegTable needs no more
        iterations than set Dijkstra."""
        graph, service = power_service
        queries = sample_connected_queries(graph, 4, seed=5)
        bseg = bsdj = 0
        for source, target, _expected in queries:
            bseg += service.shortest_path(source, target, method="BSEG").stats.expansions
            bsdj += service.shortest_path(source, target, method="BSDJ").stats.expansions
        assert bseg <= bsdj

    def test_bbfs_fewest_expansions_but_more_visited(self, power_service):
        """Table 3's trade-off: BBFS takes the fewest rounds but visits the
        most nodes."""
        graph, service = power_service
        queries = sample_connected_queries(graph, 3, seed=6)
        bbfs_exps = bsdj_exps = 0
        bbfs_vst = bsdj_vst = 0
        for source, target, _expected in queries:
            bbfs = service.shortest_path(source, target, method="BBFS").stats
            bsdj = service.shortest_path(source, target, method="BSDJ").stats
            bbfs_exps += bbfs.expansions
            bsdj_exps += bsdj.expansions
            bbfs_vst += bbfs.visited_nodes
            bsdj_vst += bsdj.visited_nodes
        assert bbfs_exps <= bsdj_exps
        assert bbfs_vst >= bsdj_vst

    def test_stats_record_phases_and_operators(self, power_service):
        graph, service = power_service
        source, target, _expected = sample_connected_queries(graph, 1, seed=7)[0]
        stats = service.shortest_path(source, target, method="BSDJ").stats
        assert stats.statements > 0
        assert stats.expansions > 0
        assert stats.total_time > 0
        assert "PE" in stats.time_by_phase
        assert "E" in stats.time_by_operator
        assert stats.visited_nodes > 0

    def test_nsql_issues_fewer_statements_than_tsql(self, power_service):
        """Figure 6(d): the MERGE + window-function style needs fewer
        statements than the traditional update/insert style."""
        graph, service = power_service
        source, target, _expected = sample_connected_queries(graph, 1, seed=8)[0]
        nsql = service.shortest_path(source, target, method="BSDJ",
                                     sql_style="nsql").stats
        tsql = service.shortest_path(source, target, method="BSDJ",
                                     sql_style="tsql").stats
        assert nsql.distance == tsql.distance
        assert nsql.statements < tsql.statements
