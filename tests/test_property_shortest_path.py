"""Property-based end-to-end tests: every relational method agrees with the
in-memory Dijkstra oracle on randomly generated graphs and queries."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PathNotFoundError
from repro.graph.model import Graph
from repro.memory.bidirectional import bidirectional_dijkstra
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService


def hosted(graph, **add_graph_options):
    """A cache-less service hosting ``graph`` as the default graph."""
    service = PathService(cache_size=0)
    service.add_graph("default", graph, **add_graph_options)
    return service


@st.composite
def graphs_and_queries(draw):
    """A small random weighted digraph plus a (source, target) pair."""
    num_nodes = draw(st.integers(min_value=2, max_value=18))
    num_edges = draw(st.integers(min_value=1, max_value=60))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.integers(1, 20),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    graph = Graph()
    for nid in range(num_nodes):
        graph.add_node(nid)
    for fid, tid, cost in edges:
        if fid != tid:
            graph.add_edge(fid, tid, float(cost))
    source = draw(st.integers(0, num_nodes - 1))
    target = draw(st.integers(0, num_nodes - 1))
    return graph, source, target


def oracle_distance(graph, source, target):
    try:
        return dijkstra_shortest_path(graph, source, target).distance
    except PathNotFoundError:
        return None


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_and_queries())
def test_property_relational_methods_match_oracle(case):
    """DJ / BDJ / BSDJ / BBFS / BSEG all agree with the oracle, including on
    unreachable pairs (where they must raise PathNotFoundError)."""
    graph, source, target = case
    expected = oracle_distance(graph, source, target)
    service = hosted(graph, buffer_capacity=64)
    service.build_segtable(lthd=8)
    try:
        for method in ("DJ", "BDJ", "BSDJ", "BBFS", "BSEG"):
            if expected is None:
                with pytest.raises(PathNotFoundError):
                    service.shortest_path(source, target, method=method)
            else:
                result = service.shortest_path(source, target, method=method)
                assert result.distance == pytest.approx(expected)
                result.validate_against(graph)
    finally:
        service.close()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_and_queries())
def test_property_sqlite_backend_matches_oracle(case):
    """The SQLite store gives the same answers as the mini engine."""
    graph, source, target = case
    expected = oracle_distance(graph, source, target)
    service = hosted(graph, backend="sqlite")
    service.build_segtable(lthd=8)
    try:
        for method in ("BSDJ", "BSEG"):
            if expected is None:
                with pytest.raises(PathNotFoundError):
                    service.shortest_path(source, target, method=method)
            else:
                result = service.shortest_path(source, target, method=method)
                assert result.distance == pytest.approx(expected)
    finally:
        service.close()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_and_queries())
def test_property_memory_bidirectional_matches_oracle(case):
    """MBDJ agrees with MDJ on every random graph."""
    graph, source, target = case
    expected = oracle_distance(graph, source, target)
    if expected is None:
        with pytest.raises(PathNotFoundError):
            bidirectional_dijkstra(graph, source, target)
    else:
        assert bidirectional_dijkstra(graph, source, target).distance == pytest.approx(expected)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_and_queries(), sql_style=st.sampled_from(["nsql", "tsql"]))
def test_property_sql_styles_equivalent(case, sql_style):
    """NSQL and TSQL evaluation styles always produce the oracle distance."""
    graph, source, target = case
    expected = oracle_distance(graph, source, target)
    if expected is None:
        return
    service = hosted(graph, buffer_capacity=64)
    try:
        result = service.shortest_path(source, target, method="BSDJ",
                                       sql_style=sql_style)
        assert result.distance == pytest.approx(expected)
    finally:
        service.close()
