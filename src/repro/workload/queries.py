"""Random shortest-path query workloads.

Queries are sampled so that the target is reachable from the source and at
least a couple of hops away (adjacent pairs would trivialize every method
and tell us nothing about the search strategies being compared).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.graph.model import Graph


@dataclass
class QueryWorkload:
    """A reproducible batch of shortest-path queries.

    Attributes:
        queries: list of ``(source, target)`` pairs.
        seed: the PRNG seed the workload was drawn with.
        min_hops: minimal BFS hop distance enforced between the endpoints.
    """

    queries: List[Tuple[int, int]] = field(default_factory=list)
    seed: int = 0
    min_hops: int = 2

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def _bfs_reachable(graph: Graph, source: int, min_hops: int,
                   max_nodes: int = 50_000) -> List[int]:
    """Nodes reachable from ``source`` that are at least ``min_hops`` away."""
    hops = {source: 0}
    queue = deque([source])
    eligible: List[int] = []
    while queue and len(hops) < max_nodes:
        node = queue.popleft()
        for neighbor, _cost in graph.out_edges(node):
            if neighbor not in hops:
                hops[neighbor] = hops[node] + 1
                if hops[neighbor] >= min_hops:
                    eligible.append(neighbor)
                queue.append(neighbor)
    return eligible


def generate_queries(graph: Graph, count: int, seed: int = 0,
                     min_hops: int = 2,
                     max_attempts_per_query: int = 50) -> QueryWorkload:
    """Sample ``count`` connected ``(source, target)`` pairs.

    Args:
        graph: graph to sample from.
        count: number of queries.
        seed: PRNG seed.
        min_hops: minimal hop distance between the endpoints.
        max_attempts_per_query: how many random sources to try before
            relaxing the ``min_hops`` constraint for that query.

    Returns:
        A :class:`QueryWorkload`; it may contain fewer than ``count`` queries
        only if the graph has no connected pair at all.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    workload = QueryWorkload(seed=seed, min_hops=min_hops)
    if not nodes:
        return workload
    for _ in range(count):
        pair = _sample_pair(graph, nodes, rng, min_hops, max_attempts_per_query)
        if pair is not None:
            workload.queries.append(pair)
    return workload


def _sample_pair(graph: Graph, nodes: List[int], rng: random.Random,
                 min_hops: int, max_attempts: int) -> Optional[Tuple[int, int]]:
    relaxed_candidate: Optional[Tuple[int, int]] = None
    for _ in range(max_attempts):
        source = rng.choice(nodes)
        eligible = _bfs_reachable(graph, source, min_hops)
        if eligible:
            return source, rng.choice(eligible)
        nearby = _bfs_reachable(graph, source, 1)
        if nearby and relaxed_candidate is None:
            relaxed_candidate = (source, rng.choice(nearby))
    return relaxed_candidate
