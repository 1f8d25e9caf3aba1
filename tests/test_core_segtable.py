"""Tests for SegTable construction (Section 4.2)."""

import pytest

from repro.core.segtable import SegTableConfig, build_segtable
from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore
from repro.errors import InvalidQueryError
from repro.graph.generators import grid_graph, power_law_graph, random_graph
from repro.graph.model import Graph
from repro.memory.dijkstra import single_source_distances


def diamond_graph() -> Graph:
    """The SegTable example needs multi-hop shortcuts: 0->1->2 is cheaper
    than the direct 0->2 edge."""
    graph = Graph()
    graph.add_edge(0, 1, 1.0)
    graph.add_edge(1, 2, 1.0)
    graph.add_edge(0, 2, 5.0)
    graph.add_edge(2, 3, 1.0)
    graph.add_edge(3, 4, 9.0)
    return graph


def make_store(backend: str, graph: Graph):
    store = MiniDBGraphStore(buffer_capacity=64) if backend == "minidb" else SQLiteGraphStore()
    store.load_graph(graph)
    return store


BACKENDS = ["minidb", "sqlite"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestConstructionCorrectness:
    def test_out_segments_match_bounded_dijkstra(self, backend):
        """TOutSegs must contain exactly the pairs within lthd, at the true
        shortest distance, plus the longer original edges."""
        graph = diamond_graph()
        store = make_store(backend, graph)
        build_segtable(store, lthd=3.0)
        segments = {
            (int(row["fid"]), int(row["tid"])): row["cost"]
            for row in store.seg_rows()[0]
        }
        for source in graph.nodes():
            reachable = single_source_distances(graph, source, max_distance=3.0)
            for target, distance in reachable.items():
                if target == source:
                    continue
                assert segments[(source, target)] == pytest.approx(distance)
        # The expensive direct edge 3->4 (weight 9 > lthd) is preserved.
        assert segments[(3, 4)] == pytest.approx(9.0)
        store.close()

    def test_in_segments_are_reversed_out_segments(self, backend):
        graph = diamond_graph()
        store = make_store(backend, graph)
        build_segtable(store, lthd=3.0)
        out_pairs = {
            (int(row["fid"]), int(row["tid"])): row["cost"]
            for row in store.seg_rows()[0]
        }
        in_pairs = {
            (int(row["tid"]), int(row["fid"])): row["cost"]
            for row in store.seg_rows()[1]
        }
        assert out_pairs == in_pairs
        store.close()

    def test_segment_predecessors_lie_on_shortest_paths(self, backend):
        graph = diamond_graph()
        store = make_store(backend, graph)
        build_segtable(store, lthd=3.0)
        rows = {(int(r["fid"]), int(r["tid"])): int(r["pid"])
                for r in store.seg_rows()[0]}
        # The shortest 0 -> 2 path is 0 -> 1 -> 2, so pre(2) must be 1.
        assert rows[(0, 2)] == 1
        store.close()

    def test_larger_lthd_gives_no_fewer_segments(self, backend):
        """Figures 9(a)/9(b): the index grows with the threshold."""
        graph = power_law_graph(60, edges_per_node=2, seed=2)
        small = make_store(backend, graph)
        stats_small = build_segtable(small, lthd=5.0)
        large = make_store(backend, graph)
        stats_large = build_segtable(large, lthd=40.0)
        assert stats_large.encoding_number >= stats_small.encoding_number
        small.close()
        large.close()

    def test_build_stats_populated(self, backend):
        graph = grid_graph(3, 3, seed=1)
        store = make_store(backend, graph)
        stats = build_segtable(store, lthd=10.0)
        assert stats.lthd == 10.0
        assert stats.iterations > 0
        assert stats.statements > 0
        assert stats.out_segments > 0
        assert stats.in_segments > 0
        assert stats.total_time > 0
        assert stats.encoding_number == stats.out_segments + stats.in_segments
        store.close()

    def test_tsql_build_matches_nsql(self, backend):
        graph = diamond_graph()
        nsql_store = make_store(backend, graph)
        tsql_store = make_store(backend, graph)
        build_segtable(nsql_store, lthd=3.0, sql_style="nsql")
        build_segtable(tsql_store, lthd=3.0, sql_style="tsql")
        to_set = lambda store: {
            (int(r["fid"]), int(r["tid"]), r["cost"])
            for r in store.seg_rows()[0]
        }
        assert to_set(nsql_store) == to_set(tsql_store)
        nsql_store.close()
        tsql_store.close()


class TestConfigValidation:
    def test_invalid_threshold(self):
        with pytest.raises(InvalidQueryError):
            SegTableConfig(lthd=0)

    def test_invalid_style(self):
        with pytest.raises(ValueError):
            SegTableConfig(lthd=1.0, sql_style="legacy")

    def test_invalid_index_mode(self):
        with pytest.raises(ValueError):
            SegTableConfig(lthd=1.0, index_mode="bitmap")

    def test_empty_graph_builds_empty_index(self):
        graph = Graph()
        graph.add_node(0)
        store = MiniDBGraphStore()
        store.load_graph(graph)
        stats = build_segtable(store, lthd=5.0)
        assert stats.encoding_number == 0
        store.close()


# ---------------------------------------------------------------------------
# The SegTable oracle: the definition of Section 4.2, computed in Python
# ---------------------------------------------------------------------------

ORACLE_GRAPHS = {
    "power": lambda: power_law_graph(50, edges_per_node=2,
                                     weight_range=(1, 6), seed=11),
    "random": lambda: random_graph(50, avg_degree=3.0, weight_range=(1, 6),
                                   seed=12),
}


def expected_segments(graph: Graph, lthd: float):
    """Every pair with δ(u, v) <= lthd at δ, plus each longer edge as it is
    (the cheapest of its parallel copies), self-pairs excluded."""
    expected = {}
    for source in graph.nodes():
        reachable = single_source_distances(graph, source, max_distance=lthd)
        for target, distance in reachable.items():
            if target != source:
                expected[(source, target)] = distance
    for edge in graph.edges():
        if edge.fid != edge.tid and (edge.fid, edge.tid) not in expected:
            expected[(edge.fid, edge.tid)] = graph.edge_cost(edge.fid,
                                                             edge.tid)
    return expected


def chain_cost(graph: Graph, start: int, end: int, next_node,
               backwards: bool) -> float:
    """Cost of the path a link chain spells out from ``start`` to ``end``,
    one hop at a time; a ``backwards`` chain walks edges against their
    direction.  Fails on a hop that is not an edge, or on a cycle."""
    total, node = 0.0, start
    for _ in range(graph.num_nodes):
        if node == end:
            return total
        following = next_node(node)
        hop = (graph.edge_cost(following, node) if backwards
               else graph.edge_cost(node, following))
        assert hop is not None, f"{node} -> {following} is not a hop"
        total += hop
        node = following
    raise AssertionError(f"no chain from {start} to {end}")


@pytest.mark.parametrize("sql_style", ["nsql", "tsql"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lthd", [3.0, 8.0])
@pytest.mark.parametrize("family", sorted(ORACLE_GRAPHS))
def test_segtable_matches_its_definition(family, lthd, backend, sql_style):
    """TOutSegs is exactly the definition, TInSegs is its transpose, and
    every link chain walks a real path of the stated cost: ``pid`` back
    from ``tid`` to ``fid`` in TOutSegs, ``pid`` (the successor) forward
    from ``tid`` to ``fid`` in TInSegs."""
    graph = ORACLE_GRAPHS[family]()
    store = make_store(backend, graph)
    try:
        build_segtable(store, lthd=lthd, sql_style=sql_style)
        out_rows, in_rows = store.seg_rows()
    finally:
        store.close()
    out = {(int(r["fid"]), int(r["tid"])): r for r in out_rows}
    inward = {(int(r["fid"]), int(r["tid"])): r for r in in_rows}
    assert len(out) == len(out_rows) and len(inward) == len(in_rows)
    expected = expected_segments(graph, lthd)
    assert {pair: row["cost"] for pair, row in out.items()} == expected
    assert {(tid, fid): row["cost"]
            for (fid, tid), row in inward.items()} == expected

    for (fid, tid), row in out.items():
        # pid is the node before ``node`` on the fid -> node segment.
        assert chain_cost(graph, tid, fid,
                          lambda node, fid=fid: int(out[(fid, node)]["pid"]),
                          backwards=True) == row["cost"], (fid, tid)
    for (fid, tid), row in inward.items():
        # pid is the node after ``node`` on the node -> fid segment.
        assert chain_cost(graph, tid, fid,
                          lambda node, fid=fid: int(inward[(fid, node)]["pid"]),
                          backwards=False) == row["cost"], (fid, tid)
