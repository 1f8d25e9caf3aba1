"""Catalog-driven sharding: many services, one query surface.

The paper's SegTable makes single-graph queries fast on one node; this
package scales the *service* across nodes' worth of graphs.  A
:class:`ShardRouter` partitions named graphs over multiple shard services
using each shard's persistent-catalog manifest (PR 3) as its routing
table:

* :class:`~repro.shard.spec.ShardSpec` names a shard and its address; the
  **transport seam** (:class:`~repro.shard.spec.ShardTransport`) keeps
  the router agnostic about whether a shard is in-process (a catalog
  directory, :class:`~repro.shard.spec.InProcessTransport`) or networked
  (an ``http(s)://`` URL, :class:`~repro.serve.transport.RemoteTransport`
  speaking the serve wire protocol to a ``python -m repro.serve``
  process) — the address alone picks the transport;
* :mod:`repro.shard.routing` derives the graph → shard
  :class:`~repro.shard.routing.RoutingTable` from manifests alone,
  resolving same-fingerprint replicas deterministically and **refusing**
  same-name/different-fingerprint conflicts
  (:class:`~repro.errors.ShardConflictError`);
* :meth:`ShardRouter.shortest_path` routes transparently;
  :meth:`ShardRouter.shortest_path_many` **scatter-gathers** — slices a
  mixed-graph batch by graph, fans slices out concurrently through each
  owning shard's transport, and merges answers in input order with per-shard
  :class:`~repro.core.stats.BatchStats` rolled into a
  :class:`~repro.shard.stats.RouterStats`;
* identical-fingerprint **replicas** are live fallbacks: a shard failing
  at the transport level is routed around (bounded retry, exponential
  cooldown) by one re-route rule that single queries, ``explain`` and
  every per-graph scatter slice share, with per-replica error accounting
  on the batch's ``RouterStats`` and the router's
  :meth:`~repro.shard.router.ShardRouter.shard_health`;
* :meth:`ShardRouter.move` rebalances: the database file (SegTable
  included) is snapshotted into the target catalog via the store
  relocation capability and warm-attached with zero index rebuilds —
  or, when the target already replica-hosts the graph, ownership just
  flips with zero bytes copied.

``python -m repro.catalog shards --catalog A --catalog B`` prints the
routing table offline.  See ``docs/sharding.md`` and ``docs/serving.md``.
"""

from repro.shard.router import (
    ScatterResult,
    ShardHealth,
    ShardRouter,
)
from repro.shard.routing import (
    Route,
    RoutingTable,
    build_routing_table,
    format_routing_table,
    routing_table_from_catalogs,
)
from repro.shard.spec import (
    InProcessTransport,
    ShardSpec,
    ShardTransport,
    default_shard_name,
    is_shard_url,
)
from repro.shard.stats import RouterStats

__all__ = [
    "InProcessTransport",
    "Route",
    "RouterStats",
    "RoutingTable",
    "ScatterResult",
    "ShardHealth",
    "ShardRouter",
    "ShardSpec",
    "ShardTransport",
    "build_routing_table",
    "default_shard_name",
    "format_routing_table",
    "is_shard_url",
    "routing_table_from_catalogs",
]
