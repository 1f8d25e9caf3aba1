"""Query specification and planning.

The planner turns a declarative :class:`QuerySpec` into an executable
:class:`QueryPlan`: it validates the method name and resolves
``method="auto"`` with the paper's own ranking (Tables 2–3, Fig 6a):
BSEG when the graph's SegTable is built, BSDJ otherwise.  DJ, BDJ, BBFS,
MDJ and MBDJ run only when named; the hop kinds always resolve to the
layered hop driver.

The plan also predicts the FEM iteration shape (frontier mode, operator
sequence and an order-of-magnitude iteration estimate), which
:meth:`PathService.explain` surfaces without running the query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.bfs import bidirectional_bfs
from repro.core.bidirectional import bidirectional_dijkstra, bidirectional_set_dijkstra
from repro.core.bseg import bidirectional_segtable_search
from repro.core.dijkstra import dijkstra_single_direction
from repro.core.multi import METHOD_HOPS, METHOD_REACH
from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL
from repro.core.stats import (
    OPERATOR_E,
    OPERATOR_F,
    OPERATOR_M,
    PHASE_PATH_EXPANSION,
    PHASE_PATH_RECOVERY,
    PHASE_STATISTICS,
)
from repro.errors import InvalidQueryError
from repro.graph.stats import GraphStatistics
from repro.obs import Trace

RELATIONAL_METHODS: Dict[str, Callable[..., PathResult]] = {
    "DJ": dijkstra_single_direction,
    "BDJ": bidirectional_dijkstra,
    "BSDJ": bidirectional_set_dijkstra,
    "BBFS": bidirectional_bfs,
    "BSEG": bidirectional_segtable_search,
}

MEMORY_METHODS = ("MDJ", "MBDJ")

METHODS = tuple(RELATIONAL_METHODS) + MEMORY_METHODS
"""All supported method names."""

AUTO_METHOD = "AUTO"

# Query kinds.  ``path`` is the weighted shortest-path query every method
# serves; the other kinds resolve to the layered hop driver
# (:mod:`repro.core.multi`) regardless of the requested method.
KIND_PATH = "path"
KIND_BOUNDED_HOP = "bounded_hop"
KIND_REACHABILITY = "reachability"
QUERY_KINDS = (KIND_PATH, KIND_BOUNDED_HOP, KIND_REACHABILITY)
"""All supported query kinds."""

# Frontier modes (the two expansion shapes of Listings 2 and 4).
NODE_AT_A_TIME = "node-at-a-time"
SET_AT_A_TIME = "set-at-a-time"


def normalize_method(method: str) -> str:
    """Upper-case ``method``, raising for names the service cannot run.

    Returns ``AUTO_METHOD`` for the ``"auto"`` sentinel.
    """
    normalized = method.upper()
    if normalized == AUTO_METHOD:
        return AUTO_METHOD
    if normalized not in METHODS:
        raise InvalidQueryError(
            f"unknown method {method!r}; expected one of {METHODS + ('auto',)}"
        )
    return normalized


@dataclass(frozen=True)
class QuerySpec:
    """One declarative shortest-path query.

    Attributes:
        source: source node id.
        target: target node id.
        graph: name of the hosted graph to query.
        method: a method name from :data:`METHODS`, or ``"auto"`` to let the
            planner choose.  Only ``kind="path"`` honours it; the hop
            kinds always run the layered driver.
        sql_style: ``"nsql"`` or ``"tsql"``.
        max_iterations: optional safety cap on expansions.
        kind: one of :data:`QUERY_KINDS` — ``"path"`` (weighted shortest
            path, the default), ``"bounded_hop"`` (fewest-hops path within
            ``max_hops``), or ``"reachability"`` (witness path, distance =
            hop count, no weighted bookkeeping).
        max_hops: inclusive hop budget; required (>= 1) for
            ``kind="bounded_hop"`` and forbidden elsewhere.
        timeout_s: optional end-to-end time budget in seconds.  The
            budget is *relative* (wire-safe across machines with
            unsynchronized clocks): each tier derives its own absolute
            monotonic deadline on entry, and a client forwarding the
            query sends only the *remaining* budget.  Expiry raises
            :class:`~repro.errors.DeadlineExceededError`; results of
            budgeted queries are never cached (the run may have been
            cut short).
    """

    source: int
    target: int
    graph: str = "default"
    method: str = "auto"
    sql_style: str = NSQL
    max_iterations: Optional[int] = None
    kind: str = KIND_PATH
    max_hops: Optional[int] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise InvalidQueryError(
                f"timeout_s must be positive; got {self.timeout_s}"
            )


@dataclass
class QueryPlan:
    """The executable plan the planner chose for a :class:`QuerySpec`.

    Attributes:
        spec: the query being planned.
        method: the resolved method name (never ``"auto"``).
        reason: one-line justification of the choice.
        uses_segtable: whether execution expands over ``TOutSegs``/``TInSegs``.
        bidirectional: whether two searches run toward each other.
        frontier_mode: ``"node-at-a-time"`` (Listing 2) or
            ``"set-at-a-time"`` (Listing 4).
        phases: FEM phase labels in execution order.
        operators_per_iteration: operator labels of one FEM iteration.
        estimated_iterations: order-of-magnitude FEM iteration estimate
            derived from the graph statistics (not a promise); ``None``
            when the plan was made without computing statistics.
        trace: the execution trace attached by
            ``explain(..., analyze=True)`` — ``None`` on ordinary plans.
    """

    spec: QuerySpec
    method: str
    reason: str
    uses_segtable: bool = False
    bidirectional: bool = True
    frontier_mode: str = SET_AT_A_TIME
    phases: Tuple[str, ...] = (PHASE_STATISTICS, PHASE_PATH_EXPANSION,
                               PHASE_PATH_RECOVERY)
    operators_per_iteration: Tuple[str, ...] = (OPERATOR_F, OPERATOR_E, OPERATOR_M)
    estimated_iterations: Optional[int] = None
    trace: Optional["Trace"] = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        """Human-readable plan summary (what ``explain()`` prints)."""
        direction = "bidirectional" if self.bidirectional else "single-direction"
        if self.estimated_iterations is None:
            expectation = ""
        else:
            expectation = f"  (~{self.estimated_iterations} iterations expected)"
        lines = [
            f"method: {self.method} ({direction}, {self.frontier_mode})",
            f"reason: {self.reason}",
            f"relation: {'TOutSegs/TInSegs (SegTable)' if self.uses_segtable else 'TEdges'}",
            f"phases: {' -> '.join(self.phases)}",
            "iteration: " + " -> ".join(self.operators_per_iteration) + expectation,
        ]
        return "\n".join(lines)


StatsSource = Union[GraphStatistics, Callable[[], GraphStatistics]]


def plan_query(spec: QuerySpec, stats: StatsSource,
               has_segtable: bool, estimate: bool = False) -> QueryPlan:
    """Resolve ``spec`` into a :class:`QueryPlan`.

    Args:
        spec: the query to plan.
        stats: statistics of the graph named by ``spec.graph``, or a
            zero-argument callable producing them.  A callable is invoked
            only when ``estimate=True``, keeping planning free of the
            O(V+E) statistics scan.
        has_segtable: whether that graph's store has a SegTable built;
            ``method="auto"`` resolves to BSEG when it does and to BSDJ
            when it does not.
        estimate: fill :attr:`QueryPlan.estimated_iterations` —
            ``explain()`` wants it; the query hot path does not.

    Raises:
        InvalidQueryError: for unknown methods or kinds, an explicit
            ``BSEG`` request without a SegTable, or a ``max_hops`` that
            does not fit the kind.
    """
    if spec.kind not in QUERY_KINDS:
        raise InvalidQueryError(
            f"unknown query kind {spec.kind!r}; "
            f"expected one of {QUERY_KINDS}"
        )
    if spec.kind != KIND_PATH:
        plan = _plan_hop_query(spec)
    elif spec.max_hops is not None:
        raise InvalidQueryError(
            "max_hops applies to kind='bounded_hop' queries only"
        )
    else:
        method = normalize_method(spec.method)
        if method == AUTO_METHOD:
            method = "BSEG" if has_segtable else "BSDJ"
            reason = ("auto: SegTable built -> BSEG" if has_segtable
                      else "auto: no SegTable -> BSDJ")
        elif method == "BSEG" and not has_segtable:
            raise InvalidQueryError(
                "BSEG requires a SegTable; build one with build_segtable() first"
            )
        else:
            reason = "method requested explicitly"
        plan = _shape_plan(spec, method, reason)
    if estimate:
        plan.estimated_iterations = _estimate_iterations(
            plan.method, stats() if callable(stats) else stats,
            max_hops=spec.max_hops)
    return plan


def auto_lthd(stats: GraphStatistics) -> float:
    """The SegTable threshold ``build_segtable(lthd="auto")`` builds.

    A segment should cover a few light edges: twice the lightest weight,
    or a light-skewed blend of the weight range when weights spread wide
    (2.0 on unit weights, 15.7 on weights 1–100).  A graph with no
    positive edge weight gets the unit-weight value: any positive
    threshold builds its (trivial) SegTable.
    """
    w_min, w_max = stats.min_edge_weight, stats.max_edge_weight
    if w_max <= 0:
        return 2.0
    return max(2 * w_min, 0.7 * w_min + 0.15 * w_max)


def _plan_hop_query(spec: QuerySpec) -> QueryPlan:
    """Plan a non-``path`` kind: both resolve to the layered hop driver.

    The requested method name is still validated (a typo should fail the
    same way it does for ``kind="path"``) but is otherwise advisory —
    weighted methods cannot answer hop-count questions, and memory methods
    are rejected outright because these kinds exist to exercise the
    relational F/E/M pipeline.
    """
    requested = normalize_method(spec.method)
    if requested in MEMORY_METHODS:
        raise InvalidQueryError(
            f"kind={spec.kind!r} runs the relational hop driver; memory "
            f"method {spec.method!r} does not apply"
        )
    if spec.kind == KIND_BOUNDED_HOP:
        if spec.max_hops is None or spec.max_hops < 1:
            raise InvalidQueryError(
                f"kind='bounded_hop' needs max_hops >= 1, "
                f"got {spec.max_hops!r}"
            )
        method = METHOD_HOPS
        reason = (f"kind='bounded_hop': layered hop driver, "
                  f"<= {spec.max_hops} whole-layer rounds")
    else:
        if spec.max_hops is not None:
            raise InvalidQueryError(
                "kind='reachability' takes no max_hops; "
                "use kind='bounded_hop'"
            )
        method = METHOD_REACH
        reason = ("kind='reachability': layered hop driver, no weighted "
                  "bookkeeping (fast path)")
    return _shape_plan(spec, method, reason)


def _shape_plan(spec: QuerySpec, method: str, reason: str) -> QueryPlan:
    plan = QueryPlan(spec=spec, method=method, reason=reason)
    plan.uses_segtable = method == "BSEG"
    plan.bidirectional = method != "DJ"
    plan.frontier_mode = (NODE_AT_A_TIME if method in ("DJ", "BDJ")
                          else SET_AT_A_TIME)
    if method in (METHOD_HOPS, METHOD_REACH):
        plan.bidirectional = False
        plan.phases = (PHASE_PATH_EXPANSION, PHASE_STATISTICS,
                       PHASE_PATH_RECOVERY)
    if method in MEMORY_METHODS:
        plan.frontier_mode = NODE_AT_A_TIME
        plan.phases = (PHASE_PATH_EXPANSION,)
        plan.operators_per_iteration = ()
        plan.bidirectional = method == "MBDJ"
    return plan


def _estimate_iterations(method: str, stats: GraphStatistics,
                         max_hops: Optional[int] = None) -> int:
    """Order-of-magnitude FEM iteration estimate from the branching factor.

    A node-at-a-time search settles one node per iteration, so iterations
    track the size of the explored ball; set-at-a-time searches settle a
    whole distance level per iteration, so iterations track the ball's
    radius (``log_b n``).  The layered hop driver runs one round per hop
    of that radius, capped by the hop budget.
    """
    nodes = max(2, stats.num_nodes)
    branching = max(2.0, stats.avg_out_degree)
    radius = max(1, math.ceil(math.log(nodes, branching)))
    if method in ("DJ", "MDJ"):
        return max(1, nodes // 2)
    if method in ("BDJ", "MBDJ"):
        return max(1, int(2 * math.sqrt(nodes)))
    # Set-at-a-time: two half-radius sweeps meeting in the middle.
    return max(1, radius if max_hops is None else min(radius, max_hops))


__all__ = [
    "AUTO_METHOD",
    "KIND_BOUNDED_HOP",
    "KIND_PATH",
    "KIND_REACHABILITY",
    "MEMORY_METHODS",
    "METHODS",
    "NODE_AT_A_TIME",
    "QUERY_KINDS",
    "QueryPlan",
    "QuerySpec",
    "RELATIONAL_METHODS",
    "SET_AT_A_TIME",
    "auto_lthd",
    "normalize_method",
    "plan_query",
]
