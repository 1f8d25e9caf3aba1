"""Weighted directed graph model.

The paper (Section 2.1) studies weighted directed or undirected graphs with
non-negative edge weights, stored relationally as a ``TNodes(nid)`` table and
a ``TEdges(fid, tid, cost)`` table.  :class:`Graph` is the in-memory
counterpart of that representation: a set of integer node identifiers and a
multimap of weighted edges, with both outgoing and incoming adjacency lists
so that bi-directional searches can expand in either direction.

Undirected graphs are modelled the way the paper's experiments treat them:
each undirected edge is stored as two directed edges with the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NegativeWeightError, NodeNotFoundError


@dataclass(frozen=True)
class Edge:
    """A directed weighted edge ``fid -> tid`` with non-negative ``cost``.

    Field names deliberately match the relational schema used by the paper's
    ``TEdges`` table (``fid``, ``tid``, ``cost``).
    """

    fid: int
    tid: int
    cost: float

    def reversed(self) -> "Edge":
        """Return the same edge with endpoints swapped (used to derive the
        incoming-edge view needed by backward expansions)."""
        return Edge(self.tid, self.fid, self.cost)


class Graph:
    """A weighted directed graph over integer node identifiers.

    The class keeps three structures:

    * ``_nodes`` — the set of node identifiers;
    * ``_out`` — outgoing adjacency: ``fid -> list[(tid, cost)]``;
    * ``_in`` — incoming adjacency: ``tid -> list[(fid, cost)]``.

    Parallel edges are allowed (the relational representation allows them
    too); the search algorithms always pick the cheapest alternative, so
    keeping them does not affect correctness.
    """

    def __init__(self, directed: bool = True) -> None:
        self._directed = directed
        self._nodes: set[int] = set()
        self._out: Dict[int, List[Tuple[int, float]]] = {}
        self._in: Dict[int, List[Tuple[int, float]]] = {}
        self._edge_count = 0

    # -- construction -------------------------------------------------------

    def add_node(self, nid: int) -> None:
        """Register a node identifier (no-op if already present)."""
        self._nodes.add(int(nid))

    def add_edge(self, fid: int, tid: int, cost: float) -> None:
        """Add a weighted edge.

        For undirected graphs the reverse edge is added as well, mirroring
        how the paper's experiments store undirected inputs relationally.

        Raises:
            NegativeWeightError: if ``cost`` is negative.
        """
        if cost < 0:
            raise NegativeWeightError(
                f"edge ({fid}, {tid}) has negative weight {cost}"
            )
        self._add_directed_edge(int(fid), int(tid), float(cost))
        if not self._directed and fid != tid:
            self._add_directed_edge(int(tid), int(fid), float(cost))

    def _add_directed_edge(self, fid: int, tid: int, cost: float) -> None:
        self._nodes.add(fid)
        self._nodes.add(tid)
        self._out.setdefault(fid, []).append((tid, cost))
        self._in.setdefault(tid, []).append((fid, cost))
        self._edge_count += 1

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(fid, tid, cost)`` triples."""
        for fid, tid, cost in edges:
            self.add_edge(fid, tid, cost)

    # -- basic accessors ----------------------------------------------------

    @property
    def directed(self) -> bool:
        """Whether edges were added as directed edges only."""
        return self._directed

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (an undirected input counts twice)."""
        return self._edge_count

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers (unordered)."""
        return iter(self._nodes)

    def has_node(self, nid: int) -> bool:
        """Return whether ``nid`` is a node of this graph."""
        return nid in self._nodes

    def has_edge(self, fid: int, tid: int) -> bool:
        """Return whether at least one directed edge ``fid -> tid`` exists."""
        return any(t == tid for t, _ in self._out.get(fid, ()))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all stored directed edges."""
        for fid, adjacency in self._out.items():
            for tid, cost in adjacency:
                yield Edge(fid, tid, cost)

    def out_edges(self, nid: int) -> Sequence[Tuple[int, float]]:
        """Outgoing neighbours of ``nid`` as ``(tid, cost)`` pairs."""
        self._require_node(nid)
        return self._out.get(nid, [])

    def in_edges(self, nid: int) -> Sequence[Tuple[int, float]]:
        """Incoming neighbours of ``nid`` as ``(fid, cost)`` pairs."""
        self._require_node(nid)
        return self._in.get(nid, [])

    def out_degree(self, nid: int) -> int:
        """Number of outgoing edges of ``nid``."""
        self._require_node(nid)
        return len(self._out.get(nid, ()))

    def in_degree(self, nid: int) -> int:
        """Number of incoming edges of ``nid``."""
        self._require_node(nid)
        return len(self._in.get(nid, ()))

    def edge_cost(self, fid: int, tid: int) -> Optional[float]:
        """Return the minimal cost among parallel edges ``fid -> tid`` or
        ``None`` when no such edge exists."""
        costs = [c for t, c in self._out.get(fid, ()) if t == tid]
        return min(costs) if costs else None

    def _require_node(self, nid: int) -> None:
        if nid not in self._nodes:
            raise NodeNotFoundError(f"node {nid} is not in the graph")

    # -- conversions --------------------------------------------------------

    def edge_triples(self) -> List[Tuple[int, int, float]]:
        """Return all directed edges as a list of ``(fid, tid, cost)``."""
        return [(e.fid, e.tid, e.cost) for e in self.edges()]

    def reverse(self) -> "Graph":
        """Return a new graph with every directed edge reversed."""
        reversed_graph = Graph(directed=True)
        for nid in self._nodes:
            reversed_graph.add_node(nid)
        for edge in self.edges():
            reversed_graph.add_edge(edge.tid, edge.fid, edge.cost)
        return reversed_graph

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (directed)."""
        keep = set(nodes)
        sub = Graph(directed=True)
        for nid in keep:
            if nid in self._nodes:
                sub.add_node(nid)
        for edge in self.edges():
            if edge.fid in keep and edge.tid in keep:
                sub.add_edge(edge.fid, edge.tid, edge.cost)
        return sub

    def copy(self) -> "Graph":
        """Return a deep copy preserving directedness."""
        clone = Graph(directed=True)
        clone._directed = self._directed
        for nid in self._nodes:
            clone.add_node(nid)
        for edge in self.edges():
            clone._add_directed_edge(edge.fid, edge.tid, edge.cost)
        return clone

    def __contains__(self, nid: object) -> bool:
        return nid in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return f"Graph({kind}, nodes={self.num_nodes}, edges={self.num_edges})"
