"""Batch execution: many queries, one store pass, one shared cache.

:func:`execute_batch` normalizes heterogeneous query descriptions into
:class:`~repro.service.planner.QuerySpec` objects, plans them all up front
(so malformed queries fail before any work), hands every member to the
:class:`~repro.service.executor.Executor` — which answers each through
the same per-query path as a single ``shortest_path`` call, inline or
across worker threads — and reports aggregate
:class:`~repro.core.stats.BatchStats`.

This is also the per-shard execution unit of the shard router: a
scatter-gather batch (:meth:`repro.shard.ShardRouter.shortest_path_many`)
slices its queries by owning shard and runs each slice through this very
path on the shard's service, then merges the per-slice ``BatchStats``
into a :class:`~repro.shard.stats.RouterStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL
from repro.core.stats import BatchStats
from repro.errors import InvalidQueryError, ReproError
from repro.obs import timer
from repro.obs.schema import METRIC_BATCHES
from repro.service.executor import Executor
from repro.service.planner import QueryPlan, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.session import BatchQuery, PathService


@dataclass
class BatchResult:
    """Results and statistics of one batch run.

    Attributes:
        specs: the normalized query specs, in input order.
        results: one entry per spec, aligned with the input order;
            ``None`` marks an unreachable pair (when the batch was run with
            ``raise_on_unreachable=False``).
        from_cache: one flag per spec — ``True`` when that answer was
            replayed from the result cache rather than executed here.
        errors: one entry per spec, aligned with the input order; a
            :class:`~repro.errors.DeadlineExceededError` marks a query
            whose ``timeout_s`` budget ran out — its siblings finish
            normally (``results[i]`` is ``None`` for such positions).
        stats: aggregate batch counters.
    """

    specs: List[QuerySpec] = field(default_factory=list)
    results: List[Optional[PathResult]] = field(default_factory=list)
    from_cache: List[bool] = field(default_factory=list)
    errors: List[Optional[ReproError]] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Optional[PathResult]:
        return self.results[index]

    def distances(self) -> List[Optional[float]]:
        """Distances in input order (``None`` for unreachable pairs)."""
        return [None if result is None else result.distance
                for result in self.results]

    def found(self) -> List[PathResult]:
        """Only the successful results (input order preserved)."""
        return [result for result in self.results if result is not None]


def normalize_queries(queries: Sequence["BatchQuery"], graph: str,
                      method: str, sql_style: str) -> List[QuerySpec]:
    """Turn mixed query descriptions into :class:`QuerySpec` objects.

    Accepted forms: a ``QuerySpec``; ``(source, target)``;
    ``(graph, source, target)``; ``(graph, source, target, method)``; or a
    dict of :class:`QuerySpec` field names.  Tuple forms inherit the
    batch-level defaults for the fields they omit.
    """
    specs: List[QuerySpec] = []
    for query in queries:
        if isinstance(query, QuerySpec):
            specs.append(query)
        elif isinstance(query, dict):
            fields = {"graph": graph, "method": method,
                      "sql_style": sql_style, **query}
            try:
                specs.append(QuerySpec(**fields))
            except TypeError:
                accepted = tuple(QuerySpec.__dataclass_fields__)
                raise InvalidQueryError(
                    f"cannot interpret batch query {query!r}; dict queries "
                    f"accept the QuerySpec fields {accepted} and must "
                    f"include 'source' and 'target'"
                ) from None
        elif isinstance(query, tuple) and len(query) == 2:
            if any(isinstance(item, str) for item in query):
                raise InvalidQueryError(
                    f"batch query {query!r} mixes a string into a "
                    f"(source, target) pair; to name a graph use the "
                    f"(graph, source, target) form"
                )
            specs.append(QuerySpec(source=query[0], target=query[1],
                                   graph=graph, method=method,
                                   sql_style=sql_style))
        elif isinstance(query, tuple) and len(query) in (3, 4):
            if not isinstance(query[0], str):
                raise InvalidQueryError(
                    f"batch query {query!r} must start with a graph name; "
                    f"to set a per-query method use the "
                    f"(graph, source, target, method) form or a QuerySpec"
                )
            specs.append(QuerySpec(graph=query[0], source=query[1],
                                   target=query[2],
                                   method=query[3] if len(query) == 4 else method,
                                   sql_style=sql_style))
        else:
            raise InvalidQueryError(
                f"cannot interpret batch query {query!r}; expected a "
                f"QuerySpec, a (source, target)[, ...] tuple, or a dict"
            )
    return specs


def execute_batch(service: "PathService", queries: Sequence["BatchQuery"],
                  graph: str = "default", method: str = "auto",
                  sql_style: str = NSQL,
                  raise_on_unreachable: bool = False,
                  concurrency: int = 1,
                  checkout_timeout: Optional[float] = None,
                  plans: Optional[Sequence["QueryPlan"]] = None,
                  timeout_s: Optional[float] = None
                  ) -> BatchResult:
    """Answer ``queries`` against ``service`` and aggregate statistics.

    Queries are planned up front (so malformed specs fail before any work),
    grouped by query key, and every member runs the service's one
    per-query path (see :class:`~repro.service.executor.Executor`):
    ``concurrency=1`` answers the groups inline, in order of their first
    occurrence; ``concurrency=N`` spreads them over N worker threads,
    growing each graph's store pool on demand.  Either way a repeated
    query is answered by the service's shared LRU cache or by replaying
    its first occurrence instead of running again, and ``results[i]``
    always answers ``queries[i]``.

    Args:
        service: the hosting :class:`PathService`.
        queries: the batch (see :func:`normalize_queries` for forms).
        graph: default graph for queries that do not name one.
        method: default method for queries that do not name one.
        sql_style: default SQL style.
        raise_on_unreachable: propagate :class:`PathNotFoundError` instead
            of recording a ``None`` result.  (A serial batch stops at the
            first unreachable pair; a parallel batch finishes its workers,
            then raises the unreachable failure with the smallest input
            index.)
        concurrency: worker-thread count (``1`` = inline, no threads).
        checkout_timeout: per-query bound, in seconds, on waiting for a
            pooled store connection.
        plans: pre-computed :class:`QueryPlan` objects, one per
            normalized query in order (``plans[i]`` must plan
            ``queries[i]``).  The shard router passes the plans from its
            fail-fast validation pass so a scattered slice is not
            planned twice; omit to plan here.
        timeout_s: default per-query time budget applied to every query
            that does not already carry one (``QuerySpec.timeout_s``
            wins).  A budgeted query whose time runs out records its
            :class:`~repro.errors.DeadlineExceededError` at its own
            position in ``batch.errors`` and counts in
            ``batch.stats.deadline_exceeded``; its siblings are
            unaffected.

    Raises:
        UnknownGraphError, NodeNotFoundError, InvalidQueryError: on the
            first malformed query, before anything executes.
    """
    if concurrency < 1:
        raise InvalidQueryError(
            f"batch concurrency must be >= 1, got {concurrency}"
        )
    elapsed = timer()  # .seconds reads live until the final assignment
    specs = normalize_queries(queries, graph=graph, method=method,
                              sql_style=sql_style)
    if timeout_s is not None:
        specs = [spec if spec.timeout_s is not None
                 else replace(spec, timeout_s=timeout_s)
                 for spec in specs]
    batch = BatchResult(specs=specs, results=[None] * len(specs),
                        from_cache=[False] * len(specs),
                        errors=[None] * len(specs))
    batch.stats.total = len(specs)
    evictions_before = service.cache_info().evictions

    if plans is None:
        plans = [service.plan(spec) for spec in specs]
    elif len(plans) != len(specs):
        raise InvalidQueryError(
            f"got {len(plans)} pre-computed plans for {len(specs)} "
            f"queries; pass one plan per query, in order"
        )
    for spec, plan in zip(specs, plans):
        batch.stats.per_graph[spec.graph] = (
            batch.stats.per_graph.get(spec.graph, 0) + 1
        )
        batch.stats.per_method[plan.method] = (
            batch.stats.per_method.get(plan.method, 0) + 1
        )

    Executor(service, concurrency, checkout_timeout=checkout_timeout).run(
        plans, batch, raise_on_unreachable=raise_on_unreachable)

    batch.stats.evictions = (service.cache_info().evictions
                             - evictions_before)
    batch.stats.total_time = elapsed.seconds
    mode = "parallel" if concurrency > 1 and len(plans) > 1 else "serial"
    service._registry.counter(METRIC_BATCHES, {"mode": mode}).inc()
    return batch


__all__ = ["BatchResult", "execute_batch", "normalize_queries"]
