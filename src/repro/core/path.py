"""Shortest-path results and path validation helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.directions import BACKWARD_DIRECTION, Direction, FORWARD_DIRECTION
from repro.core.stats import QueryStats
from repro.errors import PathNotFoundError
from repro.graph.model import Graph
from repro.obs import Trace


@dataclass
class PathResult:
    """A discovered shortest path plus its query statistics.

    Attributes:
        source: source node id.
        target: target node id.
        distance: length of the discovered path.
        path: node ids from source to target (inclusive); a single-element
            list when ``source == target``.
        stats: the :class:`~repro.core.stats.QueryStats` collected while
            answering the query (``None`` for in-memory baselines wrapped
            into this type).
        trace: the per-query :class:`~repro.obs.Trace` span tree, attached
            by whichever layer opened the trace root (service or shard
            router); ``None`` when tracing was off or the result is a
            pristine cached original.  Excluded from equality: two runs of
            the same query are the same answer.
    """

    source: int
    target: int
    distance: float
    path: List[int] = field(default_factory=list)
    stats: Optional[QueryStats] = None
    trace: Optional[Trace] = field(default=None, compare=False, repr=False)

    @property
    def num_edges(self) -> int:
        """Number of edges on the path."""
        return max(0, len(self.path) - 1)

    def validate_against(self, graph: Graph) -> None:
        """Assert the path is a real path in ``graph`` whose edge weights sum
        to ``distance`` (within floating-point tolerance).

        Raises:
            AssertionError: when an edge is missing or the length mismatches.
        """
        assert self.path, "path must not be empty"
        assert self.path[0] == self.source, "path must start at the source"
        assert self.path[-1] == self.target, "path must end at the target"
        total = 0.0
        for fid, tid in zip(self.path, self.path[1:]):
            cost = graph.edge_cost(fid, tid)
            assert cost is not None, f"edge ({fid}, {tid}) is not in the graph"
            total += cost
        assert abs(total - self.distance) < 1e-6, (
            f"path length {total} does not match reported distance {self.distance}"
        )


def linked_path(link: Callable[[int, Direction], Optional[int]],
                source: int, target: int, meeting: int, meet: bool,
                limit: int) -> List[int]:
    """Full path recovery (Algorithm 2, lines 17-20): follow the ``p2s``
    links from ``meeting`` back to ``source`` and, after a meet search,
    the ``p2t`` links on to ``target``.  Each ``link(nid, direction)`` is
    one ``SELECT`` of Listing 3(3).

    Raises:
        PathNotFoundError: a link is missing, or a chain takes more than
            ``limit`` steps.
    """
    def chain(direction: Direction, origin: int) -> List[int]:
        nodes = [meeting]
        while nodes[-1] != origin:
            node = link(nodes[-1], direction)
            if node is None:
                raise PathNotFoundError(
                    f"broken {direction.pred_col} chain at node {nodes[-1]} "
                    f"during recovery")
            nodes.append(node)
            if len(nodes) > limit + 1:
                raise PathNotFoundError(
                    f"{direction.pred_col} chain did not reach node {origin} "
                    f"within {limit} steps")
        return nodes

    path = chain(FORWARD_DIRECTION, source)[::-1]
    if meet:
        path += chain(BACKWARD_DIRECTION, target)[1:]
    return path
