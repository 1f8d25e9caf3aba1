"""Run query workloads and aggregate per-method statistics.

The aggregates mirror the columns of the paper's Tables 2 and 3: average
query time, average number of expansions ("Exps") and average number of
visited nodes ("Vst"), plus the phase/operator time breakdowns used by
Figure 6.

:func:`run_service_workload` pushes a whole workload through
:meth:`~repro.service.PathService.shortest_path_many` and returns the
aggregate plus the batch's cache statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL
from repro.core.stats import BatchStats
from repro.service.session import DEFAULT_GRAPH, PathService


@dataclass
class MethodAggregate:
    """Aggregated statistics of one method over a workload.

    All averages are over the queries that found a path; unreachable pairs
    are counted in ``not_found`` and excluded from the averages (matching
    the paper's use of random queries over connected regions).
    """

    method: str
    sql_style: str = NSQL
    queries: int = 0
    not_found: int = 0
    avg_time: float = 0.0
    avg_expansions: float = 0.0
    avg_statements: float = 0.0
    avg_visited: float = 0.0
    avg_distance: float = 0.0
    avg_path_edges: float = 0.0
    time_by_phase: Dict[str, float] = field(default_factory=dict)
    time_by_operator: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flatten into a dict suitable for table rendering."""
        return {
            "method": self.method,
            "sql_style": self.sql_style,
            "queries": self.queries,
            "avg_time_s": round(self.avg_time, 5),
            "avg_exps": round(self.avg_expansions, 1),
            "avg_stmts": round(self.avg_statements, 1),
            "avg_visited": round(self.avg_visited, 1),
            "avg_dist": round(self.avg_distance, 1),
        }


def aggregate_results(results: List[PathResult], method: str,
                      sql_style: str = NSQL,
                      not_found: int = 0) -> MethodAggregate:
    """Fold per-query :class:`PathResult` statistics into a
    :class:`MethodAggregate`."""
    aggregate = MethodAggregate(method=method.upper(), sql_style=sql_style,
                                queries=len(results), not_found=not_found)
    if not results:
        return aggregate
    count = float(len(results))
    phase_totals: Dict[str, float] = defaultdict(float)
    operator_totals: Dict[str, float] = defaultdict(float)
    for result in results:
        stats = result.stats
        if stats is None:
            continue
        aggregate.avg_time += stats.total_time
        aggregate.avg_expansions += stats.expansions
        aggregate.avg_statements += stats.statements
        aggregate.avg_visited += stats.visited_nodes
        aggregate.avg_distance += result.distance
        aggregate.avg_path_edges += result.num_edges
        for phase, seconds in stats.time_by_phase.items():
            phase_totals[phase] += seconds
        for operator, seconds in stats.time_by_operator.items():
            operator_totals[operator] += seconds
    aggregate.avg_time /= count
    aggregate.avg_expansions /= count
    aggregate.avg_statements /= count
    aggregate.avg_visited /= count
    aggregate.avg_distance /= count
    aggregate.avg_path_edges /= count
    aggregate.time_by_phase = {key: value / count for key, value in phase_totals.items()}
    aggregate.time_by_operator = {
        key: value / count for key, value in operator_totals.items()
    }
    return aggregate


def run_service_workload(service: PathService,
                         queries: Iterable[Tuple[int, int]],
                         method: str = "auto",
                         graph: str = DEFAULT_GRAPH,
                         sql_style: str = NSQL,
                         max_iterations: Optional[int] = None,
                         ) -> Tuple[MethodAggregate, BatchStats]:
    """Run a workload through the service's batch API.

    Returns the :class:`MethodAggregate` (the label is the batch's
    dominant resolved method when planning with ``"auto"``) plus the
    batch's :class:`BatchStats`.

    The aggregate covers only the executions this batch actually performed;
    answers replayed from the result cache cost ~nothing and would distort
    the per-execution averages, so they count toward :class:`BatchStats`
    (``cache_hits``, ``total_time``) but not toward the aggregate.  On a
    fully warm cache the aggregate is therefore empty — pass a
    ``cache_size=0`` service for timing measurements, as
    :func:`repro.bench.experiments.method_comparison` does.
    """
    from repro.service.planner import QuerySpec

    specs = [QuerySpec(source=source, target=target, graph=graph,
                       method=method, sql_style=sql_style,
                       max_iterations=max_iterations)
             for source, target in queries]
    batch = service.shortest_path_many(specs, graph=graph,
                                       method=method, sql_style=sql_style)
    label = method.upper()
    if label == "AUTO" and batch.stats.per_method:
        label = max(batch.stats.per_method.items(), key=lambda item: item[1])[0]
    executed_results = [result
                        for result, replayed in zip(batch.results,
                                                    batch.from_cache)
                        if result is not None and not replayed]
    aggregate = aggregate_results(executed_results, method=label,
                                  sql_style=sql_style,
                                  not_found=batch.stats.not_found)
    return aggregate, batch.stats
