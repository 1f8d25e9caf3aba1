"""Unit tests for the graph model."""

import pytest

from repro.errors import NegativeWeightError, NodeNotFoundError
from repro.graph.model import Edge, Graph


class TestEdge:
    def test_fields(self):
        edge = Edge(1, 2, 3.5)
        assert (edge.fid, edge.tid, edge.cost) == (1, 2, 3.5)

    def test_reversed(self):
        assert Edge(1, 2, 3.0).reversed() == Edge(2, 1, 3.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Edge(1, 2, 3.0).cost = 5.0  # type: ignore[misc]


class TestGraphConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_add_node_idempotent(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node(1)
        assert graph.num_nodes == 1

    def test_add_edge_registers_nodes(self):
        graph = Graph()
        graph.add_edge(1, 2, 5.0)
        assert graph.has_node(1) and graph.has_node(2)
        assert graph.num_edges == 1

    def test_undirected_adds_both_directions(self):
        graph = Graph(directed=False)
        graph.add_edge(1, 2, 5.0)
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)
        assert graph.num_edges == 2

    def test_undirected_self_loop_single(self):
        graph = Graph(directed=False)
        graph.add_edge(3, 3, 1.0)
        assert graph.num_edges == 1

    def test_negative_weight_rejected(self):
        graph = Graph()
        with pytest.raises(NegativeWeightError):
            graph.add_edge(1, 2, -0.5)

    def test_zero_weight_allowed(self):
        graph = Graph()
        graph.add_edge(1, 2, 0.0)
        assert graph.edge_cost(1, 2) == 0.0

    def test_add_edges_bulk(self):
        graph = Graph()
        graph.add_edges([(1, 2, 1.0), (2, 3, 2.0)])
        assert graph.num_edges == 2

    def test_parallel_edges_allowed(self):
        graph = Graph()
        graph.add_edge(1, 2, 5.0)
        graph.add_edge(1, 2, 3.0)
        assert graph.num_edges == 2
        assert graph.edge_cost(1, 2) == 3.0


class TestGraphAccess:
    @pytest.fixture
    def graph(self) -> Graph:
        graph = Graph()
        graph.add_edge(1, 2, 4.0)
        graph.add_edge(1, 3, 2.0)
        graph.add_edge(3, 2, 1.0)
        return graph

    def test_out_edges(self, graph):
        assert sorted(graph.out_edges(1)) == [(2, 4.0), (3, 2.0)]

    def test_in_edges(self, graph):
        assert sorted(graph.in_edges(2)) == [(1, 4.0), (3, 1.0)]

    def test_degrees(self, graph):
        assert graph.out_degree(1) == 2
        assert graph.in_degree(2) == 2
        assert graph.out_degree(2) == 0

    def test_unknown_node_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            graph.out_edges(99)
        with pytest.raises(NodeNotFoundError):
            graph.in_degree(99)

    def test_edge_cost_missing(self, graph):
        assert graph.edge_cost(2, 1) is None

    def test_contains(self, graph):
        assert 1 in graph
        assert 99 not in graph

    def test_edges_iteration(self, graph):
        triples = sorted(graph.edge_triples())
        assert triples == [(1, 2, 4.0), (1, 3, 2.0), (3, 2, 1.0)]


class TestGraphTransforms:
    def test_reverse(self):
        graph = Graph()
        graph.add_edge(1, 2, 3.0)
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(2, 1)
        assert not reversed_graph.has_edge(1, 2)

    def test_reverse_preserves_nodes(self):
        graph = Graph()
        graph.add_node(7)
        graph.add_edge(1, 2, 3.0)
        assert reversed_nodes(graph.reverse()) == {1, 2, 7}

    def test_subgraph(self):
        graph = Graph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        sub = graph.subgraph([1, 2])
        assert sub.has_edge(1, 2)
        assert not sub.has_node(3)

    def test_copy_independent(self):
        graph = Graph()
        graph.add_edge(1, 2, 1.0)
        clone = graph.copy()
        clone.add_edge(2, 3, 1.0)
        assert graph.num_edges == 1
        assert clone.num_edges == 2


def reversed_nodes(graph: Graph) -> set:
    return set(graph.nodes())
