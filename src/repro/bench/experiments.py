"""Experiment building blocks shared by the ``benchmarks/`` modules.

Each helper runs one kind of sweep the paper's evaluation uses repeatedly —
method comparisons over a workload, SegTable threshold sweeps, buffer-size
sweeps, index-strategy comparisons, construction sweeps — and returns plain
row dictionaries ready for :func:`repro.bench.harness.format_table`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.harness import bench_backend, num_bench_queries
from repro.core.sqlstyle import NSQL
from repro.core.store.base import IndexMode
from repro.graph.generators import power_law_graph, random_graph
from repro.graph.model import Graph
from repro.service.session import PathService
from repro.workload.queries import generate_queries
from repro.workload.runner import MethodAggregate, run_service_workload


def _measurement_service(graph: Graph, backend: Optional[str] = None,
                         buffer_capacity: int = 256,
                         index_mode: str = IndexMode.CLUSTERED) -> PathService:
    """Open a cache-less service hosting ``graph`` as ``"bench"``.

    The result cache is disabled so every query is measured for real;
    ``backend`` defaults to the ``REPRO_BENCH_BACKEND`` environment
    override.
    """
    backend = backend or bench_backend()
    service = PathService(default_backend=backend, cache_size=0)
    try:
        service.add_graph("bench", graph, backend=backend,
                          buffer_capacity=buffer_capacity,
                          index_mode=index_mode)
    except Exception:
        service.close()
        raise
    return service


def build_power_graph(num_nodes: int, degree: int = 3, seed: int = 7) -> Graph:
    """The paper's ``PowerxkNyd`` family (Barabási preferential attachment)."""
    return power_law_graph(num_nodes, edges_per_node=max(1, degree // 2), seed=seed)


def build_random_graph(num_nodes: int, degree: int = 3, seed: int = 11) -> Graph:
    """The paper's ``RandomxmNyd`` family (uniform random endpoints)."""
    return random_graph(num_nodes, avg_degree=degree, seed=seed)


def method_comparison(graph: Graph, methods: Sequence[str],
                      num_queries: Optional[int] = None,
                      lthd: Optional[float] = None,
                      backend: Optional[str] = None,
                      buffer_capacity: int = 256,
                      index_mode: str = IndexMode.CLUSTERED,
                      sql_style: str = NSQL,
                      seed: int = 0,
                      max_iterations: Optional[int] = None
                      ) -> List[MethodAggregate]:
    """Run the same workload with every method and return the aggregates.

    The workload goes through a :class:`~repro.service.PathService` with the
    result cache disabled, so every query is measured for real; ``backend``
    defaults to the ``REPRO_BENCH_BACKEND`` environment override.
    """
    num_queries = num_queries or num_bench_queries()
    workload = generate_queries(graph, num_queries, seed=seed)
    service = _measurement_service(graph, backend=backend,
                                   buffer_capacity=buffer_capacity,
                                   index_mode=index_mode)
    try:
        if any(method.upper() == "BSEG" for method in methods):
            service.build_segtable("bench",
                                   lthd=lthd if lthd is not None else 3.0,
                                   sql_style=sql_style)
        aggregates = []
        for method in methods:
            aggregate, _ = run_service_workload(
                service, workload, method=method, graph="bench",
                sql_style=sql_style, max_iterations=max_iterations)
            aggregates.append(aggregate)
        return aggregates
    finally:
        service.close()


def lthd_sweep(graph: Graph, lthds: Sequence[float],
               num_queries: Optional[int] = None,
               backend: Optional[str] = None,
               seed: int = 0) -> List[Dict[str, object]]:
    """Query time of BSEG as a function of the SegTable threshold."""
    num_queries = num_queries or num_bench_queries()
    workload = generate_queries(graph, num_queries, seed=seed)
    rows: List[Dict[str, object]] = []
    for lthd in lthds:
        service = _measurement_service(graph, backend=backend)
        try:
            build_stats = service.build_segtable("bench", lthd=lthd)
            aggregate, _ = run_service_workload(service, workload,
                                                method="BSEG", graph="bench")
            rows.append(
                {
                    "lthd": lthd,
                    "avg_time_s": round(aggregate.avg_time, 5),
                    "avg_exps": round(aggregate.avg_expansions, 1),
                    "avg_visited": round(aggregate.avg_visited, 1),
                    "segments": build_stats.encoding_number,
                }
            )
        finally:
            service.close()
    return rows


def buffer_sweep(graph: Graph, capacities: Sequence[int],
                 method: str = "BSEG", lthd: float = 3.0,
                 num_queries: Optional[int] = None,
                 seed: int = 0) -> List[Dict[str, object]]:
    """Query time and I/O as a function of the buffer-pool size (pages)."""
    num_queries = num_queries or num_bench_queries()
    workload = generate_queries(graph, num_queries, seed=seed)
    rows: List[Dict[str, object]] = []
    for capacity in capacities:
        service = _measurement_service(graph, backend="minidb",
                                       buffer_capacity=capacity)
        try:
            if method.upper() == "BSEG":
                service.build_segtable("bench", lthd=lthd)
            store = service.store("bench")
            store.database.reset_stats()  # type: ignore[attr-defined]
            aggregate, _ = run_service_workload(service, workload,
                                                method=method, graph="bench")
            buffer_stats = store.database.buffer_stats  # type: ignore[attr-defined]
            rows.append(
                {
                    "buffer_pages": capacity,
                    "avg_time_s": round(aggregate.avg_time, 5),
                    "buffer_hits": buffer_stats.hits,
                    "buffer_misses": buffer_stats.misses,
                    "hit_ratio": round(buffer_stats.hit_ratio, 3),
                }
            )
        finally:
            service.close()
    return rows


def index_mode_comparison(graph: Graph, method: str = "BSEG", lthd: float = 3.0,
                          num_queries: Optional[int] = None,
                          seed: int = 0) -> List[Dict[str, object]]:
    """Query time under the NoIndex / Index / CluIndex strategies."""
    num_queries = num_queries or num_bench_queries()
    workload = generate_queries(graph, num_queries, seed=seed)
    labels = {
        IndexMode.NONE: "NoIndex",
        IndexMode.NONCLUSTERED: "Index",
        IndexMode.CLUSTERED: "CluIndex",
    }
    rows: List[Dict[str, object]] = []
    for mode in (IndexMode.NONE, IndexMode.NONCLUSTERED, IndexMode.CLUSTERED):
        service = _measurement_service(graph, backend="minidb", index_mode=mode)
        try:
            if method.upper() == "BSEG":
                service.build_segtable("bench", lthd=lthd, index_mode=mode)
            aggregate, _ = run_service_workload(service, workload,
                                                method=method, graph="bench")
            rows.append(
                {
                    "index_strategy": labels[mode],
                    "avg_time_s": round(aggregate.avg_time, 5),
                    "avg_exps": round(aggregate.avg_expansions, 1),
                }
            )
        finally:
            service.close()
    return rows


def sql_style_comparison(graph: Graph, method: str = "BSDJ",
                         num_queries: Optional[int] = None,
                         backend: Optional[str] = None, lthd: Optional[float] = None,
                         seed: int = 0) -> List[Dict[str, object]]:
    """NSQL (window function + MERGE) versus TSQL (aggregate + update/insert)."""
    num_queries = num_queries or num_bench_queries()
    workload = generate_queries(graph, num_queries, seed=seed)
    rows: List[Dict[str, object]] = []
    service = _measurement_service(graph, backend=backend)
    try:
        if method.upper() == "BSEG":
            service.build_segtable("bench",
                                   lthd=lthd if lthd is not None else 3.0)
        for style in ("nsql", "tsql"):
            aggregate, _ = run_service_workload(service, workload,
                                                method=method, graph="bench",
                                                sql_style=style)
            rows.append(
                {
                    "sql_features": "NSQL" if style == "nsql" else "TSQL",
                    "avg_time_s": round(aggregate.avg_time, 5),
                    "avg_stmts": round(aggregate.avg_statements, 1),
                }
            )
    finally:
        service.close()
    return rows


def phase_breakdown(graph: Graph, method: str = "BSDJ",
                    num_queries: Optional[int] = None,
                    seed: int = 0) -> Dict[str, float]:
    """Average per-phase time (PE / SC / FPR) for ``method``."""
    aggregates = method_comparison(graph, [method], num_queries=num_queries,
                                   seed=seed)
    return aggregates[0].time_by_phase


def operator_breakdown(graph: Graph, method: str = "BSDJ",
                       num_queries: Optional[int] = None,
                       seed: int = 0,
                       sql_style: str = NSQL) -> Dict[str, float]:
    """Average per-operator time (F / E / M) for ``method`` under
    ``sql_style``.  A store that issues E and M as one statement (the SQL
    stores' nsql upsert) times it all as E and reports no M."""
    aggregates = method_comparison(graph, [method], num_queries=num_queries,
                                   seed=seed, sql_style=sql_style)
    return aggregates[0].time_by_operator


def construction_sweep(graphs: Dict[str, Graph], lthds: Sequence[float],
                       backend: Optional[str] = None,
                       sql_style: str = NSQL) -> List[Dict[str, object]]:
    """SegTable size and construction time across graphs and thresholds."""
    rows: List[Dict[str, object]] = []
    for graph_name, graph in graphs.items():
        for lthd in lthds:
            service = _measurement_service(graph, backend=backend)
            try:
                stats = service.build_segtable("bench", lthd=lthd,
                                               sql_style=sql_style)
                rows.append(
                    {
                        "graph": graph_name,
                        "lthd": lthd,
                        "segments": stats.encoding_number,
                        "iterations": stats.iterations,
                        "build_time_s": round(stats.total_time, 4),
                        "sql_style": sql_style,
                    }
                )
            finally:
                service.close()
    return rows


def scaling_sweep(sizes: Iterable[int], build_graph, methods: Sequence[str],
                  lthd: Optional[float] = None,
                  num_queries: Optional[int] = None,
                  seed: int = 0) -> List[Dict[str, object]]:
    """Average query time of each method as the graph grows."""
    rows: List[Dict[str, object]] = []
    for size in sizes:
        graph = build_graph(size)
        aggregates = method_comparison(graph, methods, num_queries=num_queries,
                                       lthd=lthd, seed=seed)
        for aggregate in aggregates:
            rows.append(
                {
                    "nodes": size,
                    "method": aggregate.method,
                    "avg_time_s": round(aggregate.avg_time, 5),
                    "avg_exps": round(aggregate.avg_expansions, 1),
                    "avg_visited": round(aggregate.avg_visited, 1),
                }
            )
    return rows
