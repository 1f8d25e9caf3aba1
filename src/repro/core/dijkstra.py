"""DJ — single-directional relational Dijkstra (Algorithm 1 of the paper).

Each iteration runs the statements of Listings 2 and 3: locate the
to-be-finalized node ``mid`` (the auxiliary statement before the
F-operator), run the combined E/M expansion for ``mid``, finalize it, and
test whether the target has been finalized.  This is the node-at-a-time
baseline whose poor performance motivates the set-at-a-time optimizations.
"""

from __future__ import annotations

from typing import Optional

from repro.core.deadline import check_deadline
from repro.core.directions import FORWARD_DIRECTION
from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import PHASE_PATH_EXPANSION, QueryStats
from repro.core.store.base import (
    MODE_NODE,
    PROBE_FINALIZED,
    GraphStore,
    IterationRule,
)
from repro.errors import PathNotFoundError
from repro.obs import now as _now
from repro.obs import span as _span


def dijkstra_single_direction(store: GraphStore, source: int, target: int,
                              sql_style: str = NSQL,
                              max_iterations: Optional[int] = None,
                              deadline: Optional[float] = None) -> PathResult:
    """Find the shortest path from ``source`` to ``target`` with DJ.

    Args:
        store: a loaded :class:`~repro.core.store.base.GraphStore`.
        source: source node id.
        target: target node id.
        sql_style: ``"nsql"`` (window function + MERGE) or ``"tsql"``.
        max_iterations: optional safety cap on the number of expansions.
        deadline: optional absolute monotonic deadline, checked between
            iterations (:class:`~repro.errors.DeadlineExceededError` on
            expiry, overrunning by at most one iteration).

    Returns:
        A :class:`~repro.core.path.PathResult` with the path and statistics.

    Raises:
        PathNotFoundError: when the target is unreachable from the source.
    """
    stats = QueryStats(method="DJ", sql_style=validate_sql_style(sql_style))
    store.begin_query(stats, stats.sql_style)
    start_time = _now()
    forward = FORWARD_DIRECTION

    with stats.phase(PHASE_PATH_EXPANSION):
        store.reset_visited()
        store.insert_visited([{"nid": source, "d2s": 0.0, "p2s": source, "f": 0}])

    if source == target:
        stats.found = True
        stats.distance = 0.0
        stats.visited_nodes = store.visited_count()
        stats.total_time = _now() - start_time
        return PathResult(source, target, 0.0, [source], stats)

    rule = IterationRule(mode=MODE_NODE, probe=PROBE_FINALIZED, target=target)
    target_finalized = False
    while not target_finalized:
        if max_iterations is not None and stats.expansions >= max_iterations:
            break
        check_deadline(deadline, f"DJ iteration {stats.expansions + 1}")
        with _span("fem.iteration", index=stats.expansions + 1,
                   frontier=1) as iteration:
            statements_before = stats.statements
            # TOP 1, then F + E + M for that node and the termination
            # test (Listings 2(2)-(4) and 3(1)-(2)).
            step = store.iterate(forward, rule)
            iteration.tag(statements=stats.statements - statements_before)
        if not step.selected:
            break
        stats.record_expansion(forward=True)
        target_finalized = step.done

    if not target_finalized:
        stats.visited_nodes = store.visited_count()
        stats.total_time = _now() - start_time
        raise PathNotFoundError(f"no path from {source} to {target}")

    distance, path = store.recover(source, target, PROBE_FINALIZED)
    stats.found = True
    stats.distance = distance
    stats.path_edges = len(path) - 1
    stats.visited_nodes = store.visited_count()
    stats.total_time = _now() - start_time
    return PathResult(source, target, float(distance), path, stats)
