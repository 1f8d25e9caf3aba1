"""Service layer: the session-based public query API.

This package is the front door of the library.  It separates *what* a
shortest-path query is (:class:`QuerySpec`) from *how* it executes — the
same split the paper's FEM framework makes between the search algorithms
and the relational engine underneath:

* the **backend registry** (:func:`register_backend`,
  :func:`available_backends`) makes graph stores pluggable by name;
* :class:`PathService` hosts multiple named graphs, manages store
  lifecycle and memoizes SegTable builds;
* the **planner** resolves ``method="auto"`` into DJ/BDJ/BSDJ/BSEG with a
  **calibrated cost model** (:mod:`repro.service.costmodel`): per-backend
  unit costs measured in-process by :mod:`repro.service.calibrate` (never
  persisted), corrected by runtime feedback from every executed query,
  and stabilized by plan hysteresis; the same model drives
  ``build_segtable(lthd="auto")``, and :meth:`PathService.explain`
  returns the chosen :class:`QueryPlan` with its per-method cost
  breakdown and predicted FEM iteration shape;
* :meth:`PathService.shortest_path_many` executes batches grouped per
  graph behind a shared LRU result cache and reports
  :class:`~repro.core.stats.BatchStats`;
* with ``concurrency=N`` a batch runs across N worker threads
  (:class:`Executor`): each graph grows a :class:`StorePool` of reader
  connections (cloned or rehydrated per the backend's
  ``supports_concurrent_readers`` capability), identical queries are
  grouped before anything runs so the first occurrence executes and the
  rest replay it, and results and counters stay identical to serial;
* the shared :class:`ResultCache` also stores **negative verdicts**
  (repeated unreachable pairs skip the full search) and evicts by TTL
  and approximate memory footprint on top of the LRU entry bound;
* a service bound to a **persistent catalog**
  (``PathService(catalog_path=...)`` / :meth:`PathService.open`) records
  every ``db_path``-backed graph and SegTable it builds, and reattaches
  them warm across processes — no edge reload, no statistics rescan,
  zero index rebuilds (see :mod:`repro.catalog`);
* a service opened as one shard of a :class:`repro.shard.ShardRouter`
  carries its shard name as ``shard_id``, appended to every cache key so
  entries stay disjoint across shards.
"""

from repro.core.stats import BatchStats
from repro.core.store.registry import (
    available_backends,
    backend_factory,
    create_store,
    register_backend,
    unregister_backend,
)
from repro.service.batch import BatchResult, execute_batch, normalize_queries
from repro.service.cache import (
    CacheStats,
    ResultCache,
    estimate_result_bytes,
)
from repro.service.calibrate import calibrate_profile
from repro.service.costmodel import (
    CostEstimate,
    CostModel,
    CostProfile,
    default_profile,
)
from repro.service.executor import Executor
from repro.service.pool import PoolStats, StorePool
from repro.service.planner import (
    AUTO_METHOD,
    MEMORY_METHODS,
    METHODS,
    QueryPlan,
    QuerySpec,
    RELATIONAL_METHODS,
    plan_query,
)
from repro.service.session import DEFAULT_GRAPH, PathService, run_in_memory

__all__ = [
    "AUTO_METHOD",
    "BatchResult",
    "BatchStats",
    "CacheStats",
    "CostEstimate",
    "CostModel",
    "CostProfile",
    "DEFAULT_GRAPH",
    "Executor",
    "MEMORY_METHODS",
    "METHODS",
    "PathService",
    "PoolStats",
    "QueryPlan",
    "StorePool",
    "QuerySpec",
    "RELATIONAL_METHODS",
    "ResultCache",
    "available_backends",
    "backend_factory",
    "calibrate_profile",
    "create_store",
    "default_profile",
    "estimate_result_bytes",
    "execute_batch",
    "normalize_queries",
    "plan_query",
    "register_backend",
    "run_in_memory",
    "unregister_backend",
]
