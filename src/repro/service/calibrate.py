"""Micro-benchmark driver that measures a backend's unit costs.

``calibrate_profile`` loads a synthetic probe graph into a fresh store of
the backend under test and measures, in order:

1. **per-statement overhead** — a cheap statistics statement repeated over
   a one-row ``TVisited`` (nothing to scan, so the time *is* the
   dispatch/parse/execute overhead);
2. **per-scan-row cost** — the same statement over a fully populated
   ``TVisited``; the delta per row prices the frontier-wide statistics
   statements every driver loop issues;
3. **per-candidate-row E/M cost** — one set-at-a-time ``expand`` over a
   frontier covering every node, which pushes every edge through the
   join+merge once;
4. **SegTable costs** — the offline construction (per-stored-segment
   build cost, the ``lthd="auto"`` input) and a segment-relation
   ``expand`` (per-segment-row online cost);
5. **per-method biases** — each search method runs a few real probe
   queries; ``observed / predicted`` becomes the method's starting bias,
   absorbing whatever the structural model misses about this backend.

Every timed section takes the **minimum over repeats** (interference only
ever adds time).  A profile prices only the process that measured it: it
is never persisted, and runtime feedback keeps correcting it.  The whole
probe takes well under a second on SQLite and a few seconds on the
pure-Python engine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.directions import FORWARD_DIRECTION
from repro.core.segtable import build_segtable
from repro.core.stats import QueryStats
from repro.core.store.base import GraphStore
from repro.core.store.registry import create_store
from repro.errors import PathNotFoundError
from repro.obs import timer
from repro.graph.generators import grid_graph, power_law_graph
from repro.graph.model import Graph
from repro.graph.stats import compute_statistics
from repro.service.costmodel import (
    BIAS_MAX,
    BIAS_MIN,
    CostModel,
    CostProfile,
)

PROBE_NODES = 140
"""Default probe-graph size: big enough to separate the methods, small
enough to keep the probe fast on a pure-Python engine."""

PROBE_WEIGHTS = (1, 4)
"""Probe edge weights: a narrow range so the SegTable probe actually
compounds segments at a small ``lthd``."""

PROBE_LTHD = 2.0

GRID_PROBE_SIDE = 7
"""Side of the secondary grid probe.  Biases are fitted across *two*
probe shapes — the hub-heavy power graph (wide tie sets, where
set-at-a-time shines) and a uniform-degree grid (no ties, where
node-at-a-time does) — so one shape cannot skew a method's bias."""

_COST_FLOOR = 1e-9
_STATEMENT_FLOOR = 1e-7

PROBED_METHODS = ("DJ", "BDJ", "BSDJ", "BSEG")


def probe_graph(num_nodes: int = PROBE_NODES, seed: int = 0) -> Graph:
    """The synthetic probe graph calibration runs against."""
    return power_law_graph(num_nodes, edges_per_node=2,
                           weight_range=PROBE_WEIGHTS, seed=seed)


def _min_time(action, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        with timer() as took:
            action()
        best = min(best, took.seconds)
    return best


def _seed_frontier(store: GraphStore, nodes: Sequence[int]) -> None:
    """Fill ``TVisited`` with every node at distance 0, flagged as the
    selected frontier (flag=2), so one ``expand`` joins every edge."""
    store.reset_visited()
    store.insert_visited([
        {"nid": nid, "d2s": 0.0, "p2s": nid, "f": 2} for nid in nodes
    ])


def _measure_statement_cost(store: GraphStore, repeats: int) -> float:
    store.reset_visited()
    store.insert_visited([{"nid": 0, "d2s": 0.0, "p2s": 0, "f": 0}])

    def one_round() -> None:
        for _ in range(16):
            store.min_unfinalized_distance(FORWARD_DIRECTION)

    return max(_STATEMENT_FLOOR, _min_time(one_round, repeats) / 16)


def _measure_scan_row_cost(store: GraphStore, nodes: Sequence[int],
                           statement_cost: float, repeats: int) -> float:
    store.reset_visited()
    store.insert_visited([
        {"nid": nid, "d2s": float(index), "p2s": nid, "f": 0}
        for index, nid in enumerate(nodes)
    ])

    def one_round() -> None:
        for _ in range(8):
            store.min_unfinalized_distance(FORWARD_DIRECTION)

    per_statement = _min_time(one_round, repeats) / 8
    return max(_COST_FLOOR,
               (per_statement - statement_cost) / max(1, len(nodes)))


def _measure_row_cost(store: GraphStore, nodes: Sequence[int],
                      candidate_rows: int, statement_cost: float,
                      repeats: int, use_segtable: bool = False) -> float:
    best = float("inf")
    for _ in range(repeats):
        _seed_frontier(store, nodes)
        with timer() as took:
            store.expand(FORWARD_DIRECTION, use_segtable=use_segtable)
        best = min(best, took.seconds)
    return max(_COST_FLOOR, (best - statement_cost) / max(1, candidate_rows))


def _probe_queries(graph: Graph, count: int, seed: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    pairs = []
    while len(pairs) < count:
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source != target:
            pairs.append((source, target))
    return pairs


def _measure_method_seconds(store: GraphStore, method: str,
                            queries: Sequence[Tuple[int, int]],
                            repeats: int) -> Optional[float]:
    """Average per-query seconds of ``method`` on the probe store (best of
    ``repeats`` batch runs); ``None`` if every pair was unreachable."""
    from repro.service.planner import RELATIONAL_METHODS

    algorithm = RELATIONAL_METHODS[method]
    best = float("inf")
    answered = 0
    for _ in range(repeats):
        answered = 0
        with timer() as took:
            for source, target in queries:
                try:
                    algorithm(store, source, target)
                    answered += 1
                except PathNotFoundError:
                    continue
        best = min(best, took.seconds)
    if answered == 0:
        return None
    return best / answered


def calibrate_profile(backend: str, *, seed: int = 0,
                      probe_nodes: int = PROBE_NODES,
                      queries_per_method: int = 3,
                      repeats: int = 3,
                      store_path: Optional[str] = None) -> CostProfile:
    """Measure ``backend``'s unit costs and starting biases.

    Args:
        backend: a registered backend name.
        seed: probe-graph and probe-query seed.
        probe_nodes: probe-graph size.
        queries_per_method: probe queries behind each method bias.
        repeats: timing repetitions (minimum wins).
        store_path: ``path`` for the probe store.  Embedded backends leave
            it ``None`` (a fresh in-memory store); client-server backends
            need a DSN — normally one from
            :meth:`~repro.core.store.base.GraphStore.calibration_path`,
            whose fresh table prefix keeps the probe out of any hosted
            graph's namespace (:meth:`PathService.calibrate` passes this
            automatically for hosted server backends).

    Returns:
        A calibrated :class:`~repro.service.costmodel.CostProfile`.
    """
    started = timer()
    graph = probe_graph(probe_nodes, seed=seed)
    stats = compute_statistics(graph)
    nodes = sorted(graph.nodes())
    store = create_store(backend, path=store_path)
    try:
        store.load_graph(graph)
        store.begin_query(QueryStats(method="calibration"))

        statement_cost = _measure_statement_cost(store, repeats)
        scan_row_cost = _measure_scan_row_cost(store, nodes, statement_cost,
                                               repeats)
        row_cost = _measure_row_cost(store, nodes, graph.num_edges,
                                     statement_cost, repeats)

        build = build_segtable(store, PROBE_LTHD)
        seg_build_row_cost = max(
            _COST_FLOOR,
            build.total_time / max(1, build.encoding_number))
        store.begin_query(QueryStats(method="calibration"))
        seg_row_cost = _measure_row_cost(store, nodes,
                                         max(1, build.out_segments),
                                         statement_cost, repeats,
                                         use_segtable=True)

        profile = CostProfile(
            backend=backend,
            statement_cost=statement_cost,
            scan_row_cost=scan_row_cost,
            row_cost=row_cost,
            seg_row_cost=seg_row_cost,
            seg_build_row_cost=seg_build_row_cost,
            calibrated=True,
        )

        # Per-method starting biases: observed / structurally-predicted,
        # summed over two probe shapes — the hub-heavy power graph and a
        # uniform-degree grid — so the model ships with each backend's
        # residual folded in instead of waiting for runtime feedback.
        model = CostModel(profile)
        grid = grid_graph(GRID_PROBE_SIDE, GRID_PROBE_SIDE,
                          weight_range=PROBE_WEIGHTS, seed=seed)
        # The grid probe runs *simultaneously* with the power-graph store,
        # so on a client-server backend it must land in its own table
        # namespace: calibration_path() hands out a DSN with a fresh probe
        # prefix (embedded stores return None — a plain in-memory store).
        grid_store = create_store(backend, path=store.calibration_path())
        try:
            grid_store.load_graph(grid)
            probes = [
                (store, graph, stats, build),
                (grid_store, grid, compute_statistics(grid), None),
            ]
            observed_sum: Dict[str, float] = {}
            predicted_sum: Dict[str, float] = {}
            for probe_store, probe, probe_stats, seg in probes:
                queries = _probe_queries(probe, queries_per_method, seed + 1)
                for method in PROBED_METHODS:
                    if method == "BSEG" and seg is None:
                        continue
                    probe_store.begin_query(QueryStats(method="calibration"))
                    observed = _measure_method_seconds(
                        probe_store, method, queries, min(2, repeats))
                    if observed is None:
                        continue
                    predicted = model.estimate(
                        method, probe_stats,
                        segtable_lthd=PROBE_LTHD if seg is not None else None,
                        segtable=seg).seconds
                    if predicted <= 0:
                        continue
                    observed_sum[method] = (observed_sum.get(method, 0.0)
                                            + observed)
                    predicted_sum[method] = (predicted_sum.get(method, 0.0)
                                             + predicted)
            profile.method_bias = {
                method: min(BIAS_MAX, max(BIAS_MIN,
                                          observed_sum[method]
                                          / predicted_sum[method]))
                for method in observed_sum
            }
        finally:
            grid_store.destroy()
        profile.probe_seconds = started.seconds
        return profile
    finally:
        # destroy(), not close(): on a shared server database the probe
        # must drop its namespaced tables again (embedded stores just
        # close).
        store.destroy()


__all__ = [
    "PROBE_LTHD",
    "PROBE_NODES",
    "PROBED_METHODS",
    "calibrate_profile",
    "probe_graph",
]
