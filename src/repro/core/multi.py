"""Shared-frontier FEM variants beyond single-pair shortest path.

The paper's F/E/M operators compose into more than the Listing 2-4
drivers (its Section 6 generality point).  This module adds the three
workload kinds the service layer plans and serves:

* :func:`dijkstra_one_to_many` — one DJ frontier expansion answering a
  whole set of same-source targets.  Dijkstra's finalization sequence is
  target-independent, so the shared run finalizes nodes in exactly the
  order a per-pair DJ would; every answered pair is **bit-identical**
  (distance *and* path) to running DJ on that pair alone.
* :func:`hop_limited_search` — fewest-hops paths within a hop budget
  (``kind="bounded_hop"``): layered set-at-a-time BFS over the same
  TVisited relation, one :meth:`~repro.core.store.base.GraphStore.expand_hops`
  statement per layer, edge weights ignored, distance = hop count.
* the same driver unbounded is the reachability fast path
  (``kind="reachability"``): no weighted-distance bookkeeping — no
  ``TOP 1`` priority probe, no min-cost statements — just whole-layer
  frontier sweeps until the target appears or the frontier dries up.

The hop driver is insert-only: a node enters ``TVisited`` at its minimal
hop count with a predecessor chosen as the smallest frontier node id, and
is never updated afterwards.  That keeps predecessor chains stable across
layers (no stale-link recovery hazard) and makes the recovered witness
path deterministic across backends and SQL styles.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional

from repro.core.deadline import check_deadline
from repro.core.directions import FORWARD_DIRECTION, INFINITY
from repro.core.path import PathResult
from repro.core.recovery import recover_forward_path
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import (
    PHASE_PATH_EXPANSION,
    PHASE_PATH_RECOVERY,
    PHASE_STATISTICS,
    QueryStats,
)
from repro.core.store.base import GraphStore
from repro.errors import PathNotFoundError
from repro.obs import now as _now
from repro.obs import span as _span

METHOD_HOPS = "HOPS"
METHOD_REACH = "REACH"


class OneToManyResult:
    """Results of one shared-frontier DJ run over a target set.

    Attributes:
        source: the shared source node.
        results: target -> :class:`PathResult` (``None`` for targets the
            expansion exhausted without finalizing — unreachable pairs).
        stats: the run-level :class:`QueryStats` — one frontier
            expansion's statements answered every target.
    """

    def __init__(self, source: int,
                 results: Dict[int, Optional[PathResult]],
                 stats: QueryStats) -> None:
        self.source = source
        self.results = results
        self.stats = stats

    def __getitem__(self, target: int) -> Optional[PathResult]:
        return self.results[target]

    def __len__(self) -> int:
        return len(self.results)


def _per_target_stats(run_stats: QueryStats, distance: Optional[float],
                      path_edges: int) -> QueryStats:
    """A per-target view of the shared run's counters: the statements and
    expansions were paid once for the whole group, so every member reports
    them; only the outcome fields differ."""
    stats = copy.copy(run_stats)
    stats.time_by_phase = dict(run_stats.time_by_phase)
    stats.time_by_operator = dict(run_stats.time_by_operator)
    stats.found = distance is not None
    stats.distance = distance
    stats.path_edges = path_edges
    return stats


def dijkstra_one_to_many(store: GraphStore, source: int,
                         targets: Iterable[int],
                         sql_style: str = NSQL,
                         max_iterations: Optional[int] = None,
                         deadline: Optional[float] = None
                         ) -> OneToManyResult:
    """Answer every ``source -> target`` pair with ONE DJ frontier.

    The loop is Listing 2/3's DJ verbatim, except termination: instead of
    stopping at the first finalized target it keeps expanding until every
    requested target is finalized (or the frontier is exhausted).  With
    non-negative edge weights a finalized node's distance and predecessor
    never change afterwards, so each pair's answer is bit-identical to a
    per-pair DJ run — including tie-breaking, because the finalization
    sequence is the same.

    Args:
        store: a loaded :class:`~repro.core.store.base.GraphStore`.
        source: the shared source node id.
        targets: the target node ids (duplicates collapse).
        sql_style: ``"nsql"`` or ``"tsql"``.
        max_iterations: optional safety cap on expansions; targets not
            finalized when the cap hits are reported unreachable.
        deadline: optional absolute monotonic deadline checked between
            expansions.

    Returns:
        An :class:`OneToManyResult`; unreachable targets map to ``None``.
    """
    wanted: List[int] = []
    seen = set()
    for target in targets:
        if target not in seen:
            seen.add(target)
            wanted.append(target)
    stats = QueryStats(method="DJ", sql_style=validate_sql_style(sql_style))
    store.begin_query(stats, stats.sql_style)
    start_time = _now()
    forward = FORWARD_DIRECTION

    with stats.phase(PHASE_PATH_EXPANSION):
        store.reset_visited()
        store.insert_visited([{"nid": source, "d2s": 0.0, "p2s": source,
                               "f": 0}])

    remaining = {target for target in wanted if target != source}
    while remaining:
        if max_iterations is not None and stats.expansions >= max_iterations:
            break
        check_deadline(deadline, f"DJ iteration {stats.expansions + 1}")
        with _span("fem.iteration", index=stats.expansions + 1,
                   frontier=1) as iteration:
            statements_before = stats.statements
            with stats.phase(PHASE_STATISTICS):
                mid = store.top1_min_unfinalized(forward)
            if mid is None:
                iteration.tag(statements=stats.statements - statements_before)
                break
            with stats.phase(PHASE_PATH_EXPANSION):
                store.expand(forward, mid=mid)
                stats.record_expansion(forward=True)
                store.finalize_node(mid, forward)
            iteration.tag(statements=stats.statements - statements_before)
        remaining.discard(mid)

    stats.visited_nodes = store.visited_count()
    results: Dict[int, Optional[PathResult]] = {}
    for target in wanted:
        if target == source:
            results[target] = PathResult(
                source, target, 0.0, [source],
                _per_target_stats(stats, 0.0, 0))
            continue
        if target in remaining:
            results[target] = None
            continue
        with stats.phase(PHASE_STATISTICS):
            distance = store.get_distance(target, forward)
        with stats.phase(PHASE_PATH_RECOVERY):
            path = recover_forward_path(store, source, target)
        results[target] = PathResult(
            source, target, float(distance), path,
            _per_target_stats(stats, float(distance), len(path) - 1))
    stats.found = any(result is not None for result in results.values())
    stats.total_time = _now() - start_time
    # Outcome fields on the run stats describe the group as a whole; the
    # per-target copies above carry the pair-specific values.
    for result in results.values():
        if result is not None and result.stats is not None:
            result.stats.total_time = stats.total_time
    return OneToManyResult(source, results, stats)


def hop_limited_search(store: GraphStore, source: int, target: int,
                       sql_style: str = NSQL,
                       max_hops: Optional[int] = None,
                       max_iterations: Optional[int] = None,
                       method: Optional[str] = None,
                       deadline: Optional[float] = None) -> PathResult:
    """Layered BFS: fewest-hops path (``HOPS``) or reachability (``REACH``).

    Rounds of whole-layer F/E/M: select every candidate as the frontier,
    run one insert-only :meth:`expand_hops` statement, finalize the layer.
    The reported ``distance`` is the hop count of the recovered witness
    path (edge weights are never read).  With ``max_hops=None`` the search
    is the reachability fast path — it runs until the target appears or
    the graph's reachable set is exhausted, with none of the weighted
    drivers' priority/min-cost statements.

    Args:
        store: a loaded :class:`~repro.core.store.base.GraphStore`.
        source: source node id.
        target: target node id.
        sql_style: ``"nsql"`` or ``"tsql"`` (the hop statement is shared,
            but the style is recorded on the statistics).
        max_hops: inclusive bound on path length in hops; ``None`` means
            unbounded (reachability).
        max_iterations: optional safety cap on expansion rounds, applied
            on top of ``max_hops``.
        method: statistics label; defaults to ``"HOPS"`` when bounded and
            ``"REACH"`` when not.
        deadline: optional absolute monotonic deadline checked between
            layer rounds.

    Raises:
        PathNotFoundError: the target is unreachable (or not reachable
            within ``max_hops`` hops).
    """
    if max_hops is not None and max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if method is None:
        method = METHOD_REACH if max_hops is None else METHOD_HOPS
    stats = QueryStats(method=method,
                       sql_style=validate_sql_style(sql_style))
    store.begin_query(stats, stats.sql_style)
    start_time = _now()
    forward = FORWARD_DIRECTION

    with stats.phase(PHASE_PATH_EXPANSION):
        store.reset_visited()
        store.insert_visited([{"nid": source, "d2s": 0.0, "p2s": source,
                               "f": 0}])

    if source == target:
        stats.found = True
        stats.distance = 0.0
        stats.visited_nodes = store.visited_count()
        stats.total_time = _now() - start_time
        return PathResult(source, target, 0.0, [source], stats)

    distance: Optional[float] = None
    rounds = 0
    while True:
        if max_hops is not None and rounds >= max_hops:
            break
        if max_iterations is not None and rounds >= max_iterations:
            break
        check_deadline(deadline, f"{method} layer {rounds + 1}")
        with _span("fem.iteration", index=rounds + 1) as iteration:
            statements_before = stats.statements
            with stats.phase(PHASE_PATH_EXPANSION):
                selected = store.select_frontier_set(forward, INFINITY)
                if selected == 0:
                    iteration.tag(
                        frontier=0,
                        statements=stats.statements - statements_before)
                    break
                store.expand_hops(forward)
                stats.record_expansion(forward=True)
                store.finalize_frontier(forward)
            rounds += 1
            with stats.phase(PHASE_STATISTICS):
                distance = store.get_distance(target, forward)
            iteration.tag(frontier=selected,
                          statements=stats.statements - statements_before)
        if distance is not None:
            break

    stats.visited_nodes = store.visited_count()
    if distance is None:
        stats.total_time = _now() - start_time
        if max_hops is not None:
            raise PathNotFoundError(
                f"no path from {source} to {target} within {max_hops} hops"
            )
        raise PathNotFoundError(f"no path from {source} to {target}")

    with stats.phase(PHASE_PATH_RECOVERY):
        path = recover_forward_path(store, source, target)
    stats.found = True
    stats.distance = float(distance)
    stats.path_edges = len(path) - 1
    stats.total_time = _now() - start_time
    return PathResult(source, target, float(distance), path, stats)


__all__ = [
    "METHOD_HOPS",
    "METHOD_REACH",
    "OneToManyResult",
    "dijkstra_one_to_many",
    "hop_limited_search",
]
