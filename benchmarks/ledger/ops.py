"""Seeded op streams and the in-memory oracle that checks every answer.

The stream is generated from ``--seed`` before timing starts; the
program under test only ever sees ``(graph, source, target, kind, ...)``.
The datasets themselves (the graphs) are fixed, like the loaded table of
a storage benchmark — only the build workload, whose ops *are* graph
loads, draws its graphs from the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PathNotFoundError
from repro.graph.model import Graph
from repro.memory.bfs import bfs_distances
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.workload import TrafficConfig, TrafficGenerator

KIND_PATH = "path"


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``graph_seed`` is set only on build ops (the graph to load).
    """

    op_id: int
    graph: str
    source: int
    target: int
    kind: str = KIND_PATH
    max_hops: Optional[int] = None
    graph_seed: Optional[int] = None

    def key(self) -> Tuple[object, ...]:
        return (self.op_id, self.graph, self.source, self.target,
                self.kind, self.max_hops, self.graph_seed)


def stream_bytes(ops: Sequence[Op]) -> bytes:
    """Canonical serialization of a stream (what "byte-identical" means)."""
    return json.dumps([op.key() for op in ops],
                      separators=(",", ":")).encode("utf-8")


def stream_digest(ops: Sequence[Op]) -> str:
    return hashlib.sha256(stream_bytes(ops)).hexdigest()


def uniform_pairs(seed: int, graph: str, nodes: Sequence[int],
                  count: int) -> List[Op]:
    """``count`` distinct uniform-random ``source != target`` pairs: no
    pair repeats, so the working set is larger than any result cache."""
    rng = random.Random(seed)
    ordered = sorted(nodes)
    seen = set()
    ops: List[Op] = []
    while len(ops) < count:
        source, target = rng.choice(ordered), rng.choice(ordered)
        if source == target or (source, target) in seen:
            continue
        seen.add((source, target))
        ops.append(Op(len(ops), graph, source, target))
    return ops


ZIPF_KIND_MIX = {"path": 0.60, "reachability": 0.25, "bounded_hop": 0.15}
ZIPF_GRAPH_WEIGHTS = {"social": 3.0, "roads": 1.0}


def zipf_traffic(seed: int, nodes_of: Mapping[str, Sequence[int]],
                 count: int) -> List[Op]:
    """Zipf-skewed served traffic from :class:`TrafficGenerator`: 64 hot
    pairs per graph, a 10 % uniform cold tail, three query kinds."""
    config = TrafficConfig(seed=seed, zipf_s=1.1, hot_pairs=64,
                           cold_fraction=0.1, kind_mix=ZIPF_KIND_MIX,
                           graph_weights=ZIPF_GRAPH_WEIGHTS)
    generator = TrafficGenerator(config, nodes_of)
    return [Op(index, query.graph, query.source, query.target,
               query.kind, query.max_hops)
            for index, query in enumerate(generator.queries(count))]


def build_ops(seed: int, count: int) -> List[Op]:
    """Build ops: each loads (and indexes) the graph drawn as
    ``graph_seed``."""
    rng = random.Random(seed)
    return [Op(index, "build", 0, 0, graph_seed=rng.randrange(1 << 30))
            for index in range(count)]


class Oracle:
    """Expected ``distance`` per op from the in-memory reference:
    :func:`repro.memory.dijkstra_shortest_path` for ``path``,
    :func:`repro.memory.bfs.bfs_distances` hop layers (memoized per
    source) for the hop kinds.  ``None`` means "must raise
    :class:`PathNotFoundError`"."""

    def __init__(self, graphs: Mapping[str, Graph]) -> None:
        self._graphs = dict(graphs)
        self._hops: Dict[Tuple[str, int], Dict[int, int]] = {}

    def _hop_layers(self, graph: str, source: int) -> Dict[int, int]:
        layers = self._hops.get((graph, source))
        if layers is None:
            layers = bfs_distances(self._graphs[graph], source)
            self._hops[(graph, source)] = layers
        return layers

    def expected(self, op: Op) -> Optional[float]:
        if op.kind == KIND_PATH:
            try:
                return dijkstra_shortest_path(
                    self._graphs[op.graph], op.source, op.target).distance
            except PathNotFoundError:
                return None
        hops = self._hop_layers(op.graph, op.source).get(op.target)
        if hops is None or (op.max_hops is not None and hops > op.max_hops):
            return None
        return float(hops)

    def expected_all(self, ops: Sequence[Op]) -> List[Optional[float]]:
        memo: Dict[Tuple[object, ...], Optional[float]] = {}
        answers = []
        for op in ops:
            key = op.key()[1:]
            if key not in memo:
                memo[key] = self.expected(op)
            answers.append(memo[key])
        return answers
