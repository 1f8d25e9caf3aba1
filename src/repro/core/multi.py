"""Set-at-a-time FEM variants beyond weighted shortest path.

The paper's F/E/M operators compose into more than the Listing 2-4
drivers (its Section 6 generality point).  This module adds the two
hop-counting query kinds the service layer plans and serves:

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

from typing import Optional

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
    "hop_limited_search",
]
