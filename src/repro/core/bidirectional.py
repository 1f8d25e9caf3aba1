"""Bi-directional relational search (Section 4.1, Algorithm 2 skeleton).

One driver implements the shared structure of all four bi-directional
methods; they differ only in how the frontier of each expansion is chosen:

* **BDJ** — node-at-a-time: the single candidate with the minimal distance.
* **BSDJ** — set-at-a-time: every candidate with the minimal distance
  (set Dijkstra, Section 4.1).
* **BBFS** — every candidate node, regardless of distance (relational
  breadth-first search).
* **BSEG** — every candidate within ``k * lthd`` of the origin, expanding
  over the SegTable and applying the Theorem 1 pruning rule (Algorithm 2).

The driver follows Algorithm 2: initialize ``TVisited`` with the source and
the target, alternate expansion directions by frontier size, track ``l_f``,
``l_b`` and ``minCost``, and stop when ``l_f + l_b >= minCost``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.deadline import check_deadline
from repro.core.directions import (
    BACKWARD_DIRECTION,
    Direction,
    FORWARD_DIRECTION,
    INFINITY,
)
from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import PHASE_PATH_EXPANSION, QueryStats
from repro.core.store.base import (
    MODE_NODE,
    MODE_SET,
    PROBE_MEET,
    GraphStore,
    IterationRule,
)
from repro.errors import InvalidQueryError, PathNotFoundError
from repro.obs import now as _now
from repro.obs import span as _span


@dataclass(frozen=True)
class FrontierPolicy:
    """How each expansion chooses its frontier nodes.

    Attributes:
        name: method name reported in statistics (``BDJ``, ``BSDJ``, ...).
        set_mode: ``False`` expands a single node per iteration, ``True``
            expands a whole set selected with Listing 4(1).
        distance_factor: for set mode, the frontier includes every candidate
            whose distance is at most ``distance_factor * expansion_number``
            (in addition to the minimal-distance candidates, which are always
            included).  ``0.0`` selects only the minimal set (BSDJ);
            ``inf`` selects every candidate (BBFS); ``lthd`` gives the BSEG
            selective expansion.
        use_segtable: expand over the SegTable instead of ``TEdges``.
        prune: apply the Theorem 1 bi-directional pruning rule.
    """

    name: str
    set_mode: bool
    distance_factor: float = 0.0
    use_segtable: bool = False
    prune: bool = False

    def frontier_threshold(self, expansion_number: int) -> float:
        """Distance threshold for the given per-direction expansion number."""
        if self.distance_factor == 0.0:
            return float("-inf")
        if self.distance_factor == INFINITY:
            return INFINITY
        return self.distance_factor * expansion_number


@dataclass
class _DirectionState:
    """Mutable per-direction bookkeeping of the driver loop."""

    direction: Direction
    latest_distance: float = 0.0
    frontier_size: int = 1
    expansions: int = 1
    exhausted: bool = False


def bidirectional_search(store: GraphStore, source: int, target: int,
                         policy: FrontierPolicy,
                         sql_style: str = NSQL,
                         max_iterations: Optional[int] = None,
                         deadline: Optional[float] = None) -> PathResult:
    """Run the bi-directional FEM search described by ``policy``.

    ``deadline`` is an optional absolute monotonic instant checked between
    expansions, bounding overrun past the budget to at most one iteration.

    Raises:
        PathNotFoundError: when no path connects ``source`` and ``target``.
        InvalidQueryError: when the policy needs a SegTable that is missing.
        DeadlineExceededError: when ``deadline`` expires mid-search.
    """
    if policy.use_segtable and not store.has_segtable:
        raise InvalidQueryError(
            f"{policy.name} requires a SegTable; build or load one first"
        )
    stats = QueryStats(method=policy.name, sql_style=validate_sql_style(sql_style))
    store.begin_query(stats, stats.sql_style)
    start_time = _now()

    with stats.phase(PHASE_PATH_EXPANSION):
        store.reset_visited()
        if source == target:
            store.insert_visited(
                [{"nid": source, "d2s": 0.0, "p2s": source, "f": 0,
                  "d2t": 0.0, "p2t": source, "b": 0}]
            )
            stats.found = True
            stats.distance = 0.0
            stats.visited_nodes = store.visited_count()
            stats.total_time = _now() - start_time
            return PathResult(source, target, 0.0, [source], stats)
        store.insert_visited(
            [
                {"nid": source, "d2s": 0.0, "p2s": source, "f": 0},
                {"nid": target, "d2t": 0.0, "p2t": target, "b": 0},
            ]
        )

    forward_state = _DirectionState(FORWARD_DIRECTION)
    backward_state = _DirectionState(BACKWARD_DIRECTION)
    mode = MODE_SET if policy.set_mode else MODE_NODE
    min_cost = INFINITY

    while forward_state.latest_distance + backward_state.latest_distance < min_cost:
        if max_iterations is not None and stats.expansions >= max_iterations:
            break
        check_deadline(deadline, f"{policy.name} iteration {stats.expansions + 1}")
        state = _choose_direction(forward_state, backward_state)
        if state is None:
            break
        opposite = backward_state if state is forward_state else forward_state
        rule = IterationRule(
            mode=mode, probe=PROBE_MEET,
            threshold=policy.frontier_threshold(state.expansions),
            use_segtable=policy.use_segtable,
            prune_lb=opposite.latest_distance if policy.prune else None,
            prune_min_cost=min_cost if policy.prune else None)
        with _span("fem.iteration", index=stats.expansions + 1,
                   direction=state.direction.name) as iteration:
            statements_before = stats.statements
            step = store.iterate(state.direction, rule)
            if step.selected:
                stats.record_expansion(state.direction.is_forward)
                # Algorithm 2 balances directions by the affected-tuple
                # count.  A zero count still finalized this frontier, so
                # the search goes on; use 1 so the comparison in
                # _choose_direction stays meaningful.
                state.frontier_size = (max(step.affected, 1)
                                       if policy.set_mode else 1)
                state.expansions += 1
            iteration.tag(statements=stats.statements - statements_before,
                          frontier=state.frontier_size if step.selected else 0)
        # The termination statistics (Algorithm 2 lines 12 and 16): the
        # latest finalized distance and minCost.
        if step.latest is None:
            state.exhausted = True
            state.latest_distance = INFINITY
        else:
            state.latest_distance = step.latest
        if step.selected:
            min_cost = step.min_cost

    found = store.recover(source, target, PROBE_MEET)
    stats.visited_nodes = store.visited_count()
    stats.total_time = _now() - start_time
    if found is None:
        raise PathNotFoundError(f"no path from {source} to {target}")
    distance, path = found
    stats.found = True
    stats.distance = distance
    stats.path_edges = len(path) - 1
    return PathResult(source, target, distance, path, stats)


def _choose_direction(forward_state: _DirectionState,
                      backward_state: _DirectionState) -> Optional[_DirectionState]:
    """Pick the direction with fewer frontier nodes (Algorithm 2 line 7)."""
    if forward_state.exhausted and backward_state.exhausted:
        return None
    if forward_state.exhausted:
        return backward_state
    if backward_state.exhausted:
        return forward_state
    if forward_state.frontier_size <= backward_state.frontier_size:
        return forward_state
    return backward_state


# ----------------------------------------------------------------------------- public methods

BDJ_POLICY = FrontierPolicy(name="BDJ", set_mode=False)
BSDJ_POLICY = FrontierPolicy(name="BSDJ", set_mode=True, distance_factor=0.0)


def bidirectional_dijkstra(store: GraphStore, source: int, target: int,
                           sql_style: str = NSQL,
                           max_iterations: Optional[int] = None,
                           deadline: Optional[float] = None) -> PathResult:
    """BDJ: bi-directional node-at-a-time relational Dijkstra."""
    return bidirectional_search(store, source, target, BDJ_POLICY,
                                sql_style=sql_style, max_iterations=max_iterations,
                                deadline=deadline)


def bidirectional_set_dijkstra(store: GraphStore, source: int, target: int,
                               sql_style: str = NSQL,
                               max_iterations: Optional[int] = None,
                               deadline: Optional[float] = None) -> PathResult:
    """BSDJ: bi-directional set Dijkstra (Section 4.1)."""
    return bidirectional_search(store, source, target, BSDJ_POLICY,
                                sql_style=sql_style, max_iterations=max_iterations,
                                deadline=deadline)
