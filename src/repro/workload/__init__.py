"""Query workloads: the paper's evaluation and production-style traffic.

The paper's evaluation answers random connected pairs per configuration
and reports averages: :func:`generate_queries` draws such a workload and
:func:`run_service_workload` pushes it through a
:class:`~repro.service.PathService` batch into a :class:`MethodAggregate`.

The traffic half models what a deployed path service actually sees:
Zipf-skewed traffic with hot pairs, a mix of query kinds (``path`` /
``bounded_hop`` / ``reachability``), and several graphs of different
popularity — then measures the service like an SRE would (latency
percentiles, throughput, error rate) instead of like a benchmark table.

Three pieces:

* :class:`TrafficGenerator` — a seeded, fully deterministic query stream
  (``seed in → identical queries out``, no wall clock anywhere);
* :func:`run_traffic` — drives any ``shortest_path``-shaped target
  (:class:`~repro.service.session.PathService` or
  :class:`~repro.shard.router.ShardRouter`), differentially verifies
  every answer against the in-memory reference, and produces a
  :class:`TrafficReport` of percentiles plus cache/failover snapshots;
* :class:`SLO` — declared latency/correctness objectives checked against
  a report, yielding an explicit violation list for CI gates.
"""

from repro.workload.generator import (
    DEFAULT_KIND_MIX,
    TrafficConfig,
    TrafficGenerator,
    TrafficQuery,
)
from repro.workload.harness import TrafficReport, run_traffic
from repro.workload.queries import QueryWorkload, generate_queries
from repro.workload.runner import (
    MethodAggregate,
    aggregate_results,
    run_service_workload,
)
from repro.workload.slo import SLO

__all__ = [
    "DEFAULT_KIND_MIX",
    "MethodAggregate",
    "QueryWorkload",
    "SLO",
    "TrafficConfig",
    "TrafficGenerator",
    "TrafficQuery",
    "TrafficReport",
    "aggregate_results",
    "generate_queries",
    "run_service_workload",
    "run_traffic",
]
