"""The canonical metric names and stats-dict schema.

One stable, documented, snake_case vocabulary shared by three surfaces:

1. the ``/metrics`` Prometheus endpoint (the ``METRIC_*`` constants),
2. the JSON snapshot APIs (``PathService.metrics()`` /
   ``ShardRouter.metrics()``), and
3. the ``*Stats.as_dict()`` payloads, whose duration keys carry an
   explicit ``_s`` / ``_seconds`` unit suffix.

The full catalog — name, type, labels, meaning — is documented in
``docs/observability.md``; ``tests/test_obs.py`` asserts the two stay in
sync.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ALL_METRIC_NAMES",
]

# -- query execution (PathService / Executor) --------------------------
METRIC_QUERIES = "repro_queries_total"                    # counter {graph,kind,method,backend}
METRIC_QUERY_LATENCY = "repro_query_latency_seconds"      # histogram {kind}
METRIC_QUERY_QUEUE = "repro_query_queue_seconds"          # histogram (pool wait)
METRIC_NOT_FOUND = "repro_not_found_total"                # counter
METRIC_BATCHES = "repro_batches_total"                    # counter {mode}
METRIC_SINGLE_FLIGHT = "repro_single_flight_hits_total"   # counter

# -- resilience --------------------------------------------------------
METRIC_DEADLINE_EXCEEDED = "repro_deadline_exceeded_total"  # counter {graph}
METRIC_SHED = "repro_shed_total"                          # counter {endpoint}
METRIC_BREAKER_STATE = "repro_breaker_state"              # gauge {shard}

# -- result cache ------------------------------------------------------
METRIC_CACHE_HITS = "repro_cache_hits_total"              # counter {cache}
METRIC_CACHE_MISSES = "repro_cache_misses_total"          # counter {cache}
METRIC_CACHE_NEGATIVE_HITS = "repro_cache_negative_hits_total"  # counter {cache}
METRIC_CACHE_EVICTIONS = "repro_cache_evictions_total"    # counter {cache,reason}
METRIC_CACHE_SIZE = "repro_cache_size"                    # gauge {cache}
METRIC_CACHE_NEGATIVE_SIZE = "repro_cache_negative_size"  # gauge {cache}

# -- store pool --------------------------------------------------------
METRIC_POOL_CHECKOUTS = "repro_pool_checkouts_total"      # counter {graph}
METRIC_POOL_WAITS = "repro_pool_waits_total"              # counter {graph}
METRIC_POOL_TIMEOUTS = "repro_pool_timeouts_total"        # counter {graph}
METRIC_POOL_REPLICAS = "repro_pool_replicas_total"        # counter {graph,mode}
METRIC_POOL_CAPACITY = "repro_pool_capacity"              # gauge {graph}
METRIC_POOL_CREATED = "repro_pool_created"                # gauge {graph}
METRIC_POOL_IDLE = "repro_pool_idle"                      # gauge {graph}
METRIC_POOL_IN_USE = "repro_pool_in_use"                  # gauge {graph}

# -- shard router ------------------------------------------------------
METRIC_FAILOVERS = "repro_failovers_total"                # counter {shard}
METRIC_SHARD_LATENCY = "repro_shard_latency_seconds"      # histogram {shard}
METRIC_SHARD_ERRORS = "repro_shard_errors_total"          # counter {shard}
METRIC_SHARED_CACHE_HITS = "repro_shared_cache_hits_total"  # counter
METRIC_ROUTER_QUERIES = "repro_router_queries_total"      # counter {kind}

# -- serve server ------------------------------------------------------
METRIC_HTTP_REQUESTS = "repro_http_requests_total"        # counter {endpoint,status}
METRIC_HTTP_LATENCY = "repro_http_latency_seconds"        # histogram {endpoint}

# -- workload harness --------------------------------------------------
METRIC_TRAFFIC_LATENCY_MS = "repro_traffic_latency_ms"    # histogram {kind}
METRIC_TRAFFIC_QUERIES = "repro_traffic_queries_total"    # counter {kind}
METRIC_TRAFFIC_NOT_FOUND = "repro_traffic_not_found_total"  # counter
METRIC_TRAFFIC_ERRORS = "repro_traffic_errors_total"      # counter
METRIC_TRAFFIC_WRONG = "repro_traffic_wrong_answers_total"  # counter

ALL_METRIC_NAMES: Dict[str, str] = {
    name: value
    for name, value in sorted(globals().items())
    if name.startswith("METRIC_")
}
"""``{constant_name: metric_name}`` — the complete exported catalog."""
