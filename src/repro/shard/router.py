"""The :class:`ShardRouter`: one query surface over many shards.

A router partitions named graphs across multiple shard services — local
(a catalog directory) or networked (an ``http(s)://`` shard server, see
:mod:`repro.serve`) — using each shard's catalog manifest as its routing
table::

    router = ShardRouter.open(
        catalog_paths=["catalogs/a", "http://10.0.0.7:8155"])
    router.shortest_path(0, 42, graph="social")          # routed to its owner
    scatter = router.shortest_path_many(
        [("social", 0, 42), ("roads", 3, 99)], concurrency=4)

Single queries route transparently to the owning shard.  Batches are
**scatter-gather**: the router splits a mixed-graph batch by graph, fans
the slices out concurrently — each through its owning shard's transport,
and on the shard through the service's existing executor/pool machinery —
and merges the answers back in input order, with every shard's
:class:`~repro.core.stats.BatchStats` kept (and rolled up) in a
:class:`~repro.shard.stats.RouterStats`.

**Failover.**  Identical-fingerprint replicas (recorded on each
:class:`~repro.shard.routing.Route`) are live fallbacks: when a shard
fails at the transport level (:class:`~repro.errors.ShardUnavailableError`
— connection refused, timeout, died mid-request), the router marks it
down for an exponentially growing cooldown and re-routes the affected
queries to the next replica; because replicas host byte-identical graph
content, the failover answer is bit-identical to the primary's.  One loop,
:meth:`ShardRouter._failover`, is that rule for everything the router
sends a shard: single queries, ``explain``, and each graph's scatter plan
and execute calls.  Query
errors (unknown graph, unreachable pair, ...) are *not* failover events —
they propagate as themselves, as every replica would answer the same.

**Shared cross-shard cache.**  Opt-in (``shared_cache_size > 0``): a
router-level result cache keyed by *(graph fingerprint, query)* — not
shard name — so a pair answered by any replica is a hit for every other,
and two different graphs can never collide on a name.

Rebalancing is :meth:`ShardRouter.move`: the graph's database file — with
its already-built SegTable inside — is snapshotted into the target shard's
catalog via the store's relocation capability, the two manifests are
rewritten (each write is atomic; the ordering makes a crash mid-move
resolve as a benign replica, never a conflict), and the target shard
warm-attaches the graph with **zero** SegTable reconstructions.  Moving a
graph onto a shard that already replica-hosts it at the same fingerprint
skips the data copy entirely and just flips ownership.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    TypeVar,
)

from repro.core.deadline import (
    check_deadline,
    deadline_from_timeout,
    remaining_budget,
)
from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL
from repro.core.store.registry import create_store, is_dsn
from repro.errors import (
    PathNotFoundError,
    ReproError,
    ShardError,
    ShardUnavailableError,
    UnknownShardError,
)
from repro.obs import MetricsRegistry, Trace, Tracer, timer
from repro.obs.schema import (
    METRIC_BREAKER_STATE,
    METRIC_FAILOVERS,
    METRIC_ROUTER_QUERIES,
    METRIC_SHARD_ERRORS,
    METRIC_SHARD_LATENCY,
    METRIC_SHARED_CACHE_HITS,
)
from repro.service.answer import AnswerPath
from repro.service.batch import normalize_queries
from repro.service.cache import ResultCache
from repro.service.planner import QueryPlan, QuerySpec
from repro.shard.routing import Route, RoutingTable, build_routing_table
from repro.shard.spec import (
    ShardSpec,
    ShardTransport,
    default_shard_name,
    is_shard_url,
)
from repro.shard.stats import RouterStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.batch import BatchResult
    from repro.service.session import BatchQuery, PathService

DEFAULT_GRAPH = "default"

T = TypeVar("T")

FAILOVER_COOLDOWN = 0.25
"""Base seconds a shard is considered down after its first transport
failure; doubles per consecutive failure up to
:data:`FAILOVER_COOLDOWN_MAX`, with *equal jitter* (a uniform draw from
``[cooldown/2, cooldown]``) so replicas of a failed shard do not all
re-probe it on the same instant."""

FAILOVER_COOLDOWN_MAX = 30.0

BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

_BREAKER_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0,
                  BREAKER_OPEN: 2.0}
"""Numeric encoding of :data:`METRIC_BREAKER_STATE` (0/1/2)."""


@dataclass
class ShardHealth:
    """The router's view of one shard's transport health.

    The three fields double as a per-shard **circuit breaker**:
    *closed* (no recent failures — route normally), *open* (inside the
    failure cooldown — routed around), *half-open* (cooldown elapsed
    after failures — the next query is the probe; success re-closes the
    breaker, failure re-opens it with a doubled cooldown).

    Attributes:
        shard: the shard's name.
        errors: cumulative transport failures over the router's lifetime.
        consecutive_failures: failures since the last success; drives the
            exponential cooldown.
        down_until: monotonic deadline before which the shard is routed
            around (still tried as a last resort when every replica of a
            graph is down).
        last_error: message of the most recent transport failure.
    """

    shard: str
    errors: int = 0
    consecutive_failures: int = 0
    down_until: float = 0.0
    last_error: str = ""

    def is_down(self, now: Optional[float] = None) -> bool:
        """Whether the shard is inside its failure cooldown."""
        return (time.monotonic() if now is None else now) < self.down_until

    def breaker_state(self, now: Optional[float] = None) -> str:
        """The shard's circuit-breaker state (``"closed"`` /
        ``"half_open"`` / ``"open"``), derived from the failure
        accounting — open while cooling down, half-open once the cooldown
        elapsed with the failure streak unbroken."""
        if self.is_down(now):
            return BREAKER_OPEN
        if self.consecutive_failures > 0:
            return BREAKER_HALF_OPEN
        return BREAKER_CLOSED

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "errors": self.errors,
            "consecutive_failures": self.consecutive_failures,
            "down": self.is_down(),
            "breaker": self.breaker_state(),
            "last_error": self.last_error,
        }


@dataclass
class ScatterResult:
    """Results of one scatter-gather batch, merged back in input order.

    Mirrors :class:`~repro.service.batch.BatchResult` (iteration,
    indexing, ``distances()``, ``found()``) and adds the per-query shard
    assignment plus router-level statistics.

    Attributes:
        specs: the normalized query specs, in input order.
        results: one entry per spec (``None`` marks an unreachable pair).
        from_cache: per spec, whether the answer came from a cache — the
            owning shard's result cache (replayed duplicates included)
            or the router's shared cross-shard cache.
        shard_of: per spec, the shard that answered it (the owner, or the
            replica that took over on failover).
        errors: per spec, the typed per-query failure (a budgeted query's
            :class:`~repro.errors.DeadlineExceededError`) or ``None`` —
            positional, so one expired sibling never poisons the batch.
        stats: the :class:`RouterStats` of this scatter-gather.
        trace: the batch's :class:`~repro.obs.Trace` — one recorded span
            per slice run (shard, query count, wall seconds), across
            local and remote shards alike; ``None`` with tracing off.
            Per-query span trees ride on the individual results.
    """

    specs: List[QuerySpec] = field(default_factory=list)
    results: List[Optional[PathResult]] = field(default_factory=list)
    from_cache: List[bool] = field(default_factory=list)
    shard_of: List[str] = field(default_factory=list)
    errors: List[Optional[ReproError]] = field(default_factory=list)
    stats: RouterStats = field(default_factory=RouterStats)
    trace: Optional[Trace] = field(default=None, compare=False, repr=False)

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


class ShardRouter:
    """Routes queries over named graphs to the shards that own them.

    Construct through :meth:`open`.  The router owns its shard transports:
    :meth:`close` (or the context manager) shuts every one of them down
    (closing a remote transport does not stop its server).
    """

    def __init__(self, transports: Sequence[ShardTransport],
                 table: RoutingTable, *,
                 shared_cache_size: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 tracing: bool = True,
                 cooldown_seed: Optional[int] = None) -> None:
        self._transports: Dict[str, ShardTransport] = {
            transport.spec.name: transport for transport in transports}
        self._table = table
        self._closed = False
        # One registry per router; :meth:`open` shares it with every
        # in-process shard service, so a co-located shard server's
        # ``/metrics`` exports router counters (failovers, per-shard
        # latency) next to the service's own.
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = Tracer(enabled=tracing)
        self._health: Dict[str, ShardHealth] = {
            name: ShardHealth(name) for name in self._transports}
        self._health_lock = threading.Lock()
        self._shared_cache: Optional[ResultCache] = (
            None if shared_cache_size <= 0 else ResultCache(
                shared_cache_size, registry=self._registry, name="shared"))
        # The service's answer path over the shared cache: "run" means
        # route to a shard (with failover).
        self._answers = AnswerPath(self._shared_cache, self._registry,
                                   hit_metric=METRIC_SHARED_CACHE_HITS)
        # Cooldown jitter RNG: seedable so tests replay the exact same
        # failover schedule; guarded by _health_lock (drawn only inside
        # _mark_failure).
        self._cooldown_rng = random.Random(cooldown_seed)
        self._move_markers: Dict[str, int] = {"moves": 0, "replica_noops": 0}
        for name in self._transports:
            self._set_breaker(name, BREAKER_CLOSED)

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(cls, catalog_paths: Optional[Sequence[str]] = None, *,
             specs: Optional[Sequence[ShardSpec]] = None,
             names: Optional[Sequence[str]] = None,
             strict: bool = True,
             shared_cache_size: int = 0,
             remote_timeout: Optional[float] = None,
             remote_retries: Optional[int] = None,
             registry: Optional[MetricsRegistry] = None,
             tracing: bool = True,
             cooldown_seed: Optional[int] = None,
             **service_options: object) -> "ShardRouter":
        """Open one shard per catalog (or URL) and build the routing table.

        Args:
            catalog_paths: one entry per shard — a catalog directory
                (warm-started in this process) or an ``http(s)://`` shard
                server URL (attached over the remote transport).
                Shard names default to the directory basename or the
                server's ``host:port``.
            specs: full :class:`ShardSpec` objects instead of
                ``catalog_paths`` (exactly one of the two is required).
            names: explicit shard names matching ``catalog_paths``
                positionally — required when two catalog directories share
                a basename.
            strict: forwarded to every local shard's warm start; ``False``
                skips entries that fail to attach instead of raising.
                (Remote shards made that choice when their server
                started.)
            shared_cache_size: capacity of the opt-in router-level result
                cache shared across shards, keyed by graph *fingerprint*
                so replicas share entries; ``0`` (the default) disables
                it.
            remote_timeout: per-request timeout, in seconds, applied to
                every URL shard (a slow shard exceeding it fails over).
            remote_retries: transport-level retries applied to every URL
                shard.
            registry: the :class:`~repro.obs.MetricsRegistry` the router
                publishes into.  Defaults to a fresh one, shared with
                every *local* shard service so one process exports one
                coherent ``/metrics`` view; remote shards keep their own
                server-side registry.
            tracing: whether router queries build per-query trace trees
                (remote shard traces are stitched in as child spans).
            cooldown_seed: seed for the failover-cooldown jitter, making
                the failover schedule deterministic (tests, chaos bench);
                ``None`` (the default) desynchronizes naturally.
            **service_options: forwarded to every *local* shard service
                constructor (``cache_size``, ``default_backend``, ...);
                remote shards configured their service at server start.

        Raises:
            ShardError: no shards, duplicate shard names, or both/neither
                of ``catalog_paths`` and ``specs`` given.
            ShardConflictError: two shards list the same graph name with
                different content fingerprints.
            ShardUnavailableError: a URL shard refused the connection (the
                open-time health probe).
            PersistentCatalogError: a shard catalog failed to load (or, in
                strict mode, an entry failed to attach).
        """
        if (catalog_paths is None) == (specs is None):
            raise ShardError(
                "pass exactly one of catalog_paths=[...] or specs=[...]"
            )
        registry = registry if registry is not None else MetricsRegistry()
        if specs is None:
            assert catalog_paths is not None
            if names is None:
                names = [default_shard_name(path) for path in catalog_paths]
            elif len(names) != len(catalog_paths):
                raise ShardError(
                    f"got {len(names)} shard names for "
                    f"{len(catalog_paths)} catalog paths"
                )
            built: List[ShardSpec] = []
            for name, path in zip(names, catalog_paths):
                if is_shard_url(path):
                    options: Dict[str, object] = {}
                    if remote_timeout is not None:
                        options["timeout"] = remote_timeout
                    if remote_retries is not None:
                        options["retries"] = remote_retries
                    built.append(ShardSpec(
                        name=name, catalog_path=path,
                        service_options=options))
                else:
                    local_options = dict(service_options)
                    local_options.setdefault("registry", registry)
                    built.append(ShardSpec(
                        name=name, catalog_path=path,
                        service_options=local_options))
            specs = built
        else:
            if names is not None:
                raise ShardError(
                    "names=[...] applies to catalog_paths; set each "
                    "ShardSpec's name when opening from specs"
                )
            if service_options:
                raise ShardError(
                    "service options go inside each "
                    "ShardSpec.service_options when opening from specs"
                )
            # Local shard services share the router's registry (unless a
            # spec pins its own); remote specs keep server-side registries.
            specs = [
                spec if (is_shard_url(spec.catalog_path)
                         or "registry" in spec.service_options)
                else replace(spec, service_options={
                    **spec.service_options, "registry": registry})
                for spec in specs
            ]
        if not specs:
            raise ShardError("a shard router needs at least one shard")
        seen: Dict[str, str] = {}
        for spec in specs:
            if spec.name in seen:
                raise ShardError(
                    f"duplicate shard name {spec.name!r} (catalogs "
                    f"{seen[spec.name]!r} and {spec.catalog_path!r}); pass "
                    f"names=[...] to disambiguate"
                )
            seen[spec.name] = spec.catalog_path
        transports: List[ShardTransport] = []
        try:
            for spec in specs:
                transports.append(spec.open(strict=strict))
            table = build_routing_table(
                [(transport.spec.name, transport.routing_entries())
                 for transport in transports])
            # Routes (and replica lists) must point at graphs the shard
            # actually hosts: a warm start with strict=False — or a server
            # started with --no-strict — skips stale/missing entries, and
            # routing to a skipped entry would raise a misleading "not
            # hosted" error mid-batch instead of the clean "not routed"
            # one up front.
            hosted = {transport.spec.name: set(transport.graphs())
                      for transport in transports}
            for name, route in list(table.routes.items()):
                if name not in hosted[route.shard]:
                    del table.routes[name]
                    continue
                live = tuple(replica for replica in route.replicas
                             if name in hosted.get(replica, set()))
                if live != route.replicas:
                    table.routes[name] = replace(route, replicas=live)
        except BaseException:
            for transport in transports:
                transport.close()
            raise
        router = cls(transports, table,
                     shared_cache_size=shared_cache_size,
                     registry=registry, tracing=tracing,
                     cooldown_seed=cooldown_seed)
        # Record each route's owner in the owning shard's manifest (the
        # durable ownership record; a no-op per entry when it matches).
        for route in table.routes.values():
            router._transports[route.shard].stamp_ownership(
                route.graph, route.shard)
        return router

    # -- topology ----------------------------------------------------------------

    def shards(self) -> Tuple[str, ...]:
        """Shard names, in spec order."""
        return tuple(self._transports)

    def graphs(self) -> Tuple[str, ...]:
        """All routed graph names, sorted."""
        return self._table.graphs()

    def owner(self, graph: str) -> str:
        """Name of the shard owning ``graph``."""
        return self._table.owner(graph)

    def routing_table(self) -> RoutingTable:
        """The live routing table (treat as read-only)."""
        return self._table

    def transport(self, shard: str) -> ShardTransport:
        """The connected :class:`ShardTransport` behind one shard."""
        return self._shard(shard)

    def service(self, shard: str) -> "PathService":
        """The :class:`PathService` behind one *in-process* shard (for
        inspection — ``pool_stats``, ``cache_info`` — not for bypassing
        the router).  Remote shards have none and raise
        :class:`ShardError`."""
        return self._shard(shard).service

    # -- health and failover -----------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The router's :class:`~repro.obs.MetricsRegistry` (shared with
        every in-process shard service)."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The router's :class:`~repro.obs.Tracer`."""
        return self._tracer

    def metrics(self) -> Dict[str, object]:
        """A JSON-safe snapshot of every metric the router (and its
        in-process shard services) published — see
        :meth:`~repro.obs.MetricsRegistry.snapshot`."""
        return self._registry.snapshot()

    def shard_health(self) -> Dict[str, Dict[str, object]]:
        """The router's per-shard failure accounting (lifetime view; one
        batch's accounting is on its :class:`RouterStats`)."""
        with self._health_lock:
            return {name: health.as_dict()
                    for name, health in self._health.items()}

    def check_health(self) -> Dict[str, Dict[str, object]]:
        """Actively probe every shard (one cheap liveness call each) and
        fold the outcomes into the failure accounting.  A probe finding a
        down-marked shard alive again clears its cooldown early."""
        report: Dict[str, Dict[str, object]] = {}
        for name, transport in self._transports.items():
            try:
                document = transport.health()
            except ShardUnavailableError as exc:
                self._mark_failure(name, exc)
                report[name] = {"status": "down", "shard": name,
                                "error": str(exc)}
            else:
                self._mark_success(name)
                report[name] = dict(document)
        return report

    def _mark_failure(self, shard: str, exc: BaseException,
                      stats: Optional[RouterStats] = None,
                      failovers: int = 0) -> None:
        """Count one transport failure of ``shard`` and open its breaker.

        ``failovers`` is how many queries the failure re-routes to a
        replica (``0`` when none is left).  ``stats`` — a batch's
        :class:`RouterStats`, shared by its slice threads — gets the same
        accounting, under the health lock.
        """
        self._registry.counter(METRIC_SHARD_ERRORS, {"shard": shard}).inc()
        if failovers:
            self._registry.counter(METRIC_FAILOVERS,
                                   {"shard": shard}).inc(failovers)
        with self._health_lock:
            if stats is not None:
                stats.record_error(shard)
                stats.failovers += failovers
            health = self._health[shard]
            health.errors += 1
            health.consecutive_failures += 1
            cooldown = min(
                FAILOVER_COOLDOWN * (2 ** (health.consecutive_failures - 1)),
                FAILOVER_COOLDOWN_MAX)
            # Equal jitter: uniform in [cooldown/2, cooldown].  Keeps the
            # exponential floor (no instant flapping back) while replicas
            # that failed together re-probe at different instants.
            cooldown = self._cooldown_rng.uniform(cooldown / 2.0, cooldown)
            health.down_until = time.monotonic() + cooldown
            health.last_error = str(exc)
        self._set_breaker(shard, BREAKER_OPEN)

    def _mark_success(self, shard: str) -> None:
        with self._health_lock:
            health = self._health[shard]
            health.consecutive_failures = 0
            health.down_until = 0.0
        self._set_breaker(shard, BREAKER_CLOSED)

    def _set_breaker(self, shard: str, state: str) -> None:
        self._registry.gauge(
            METRIC_BREAKER_STATE, {"shard": shard},
            help="Per-shard circuit breaker (0 closed, 1 half-open, "
                 "2 open)").set(_BREAKER_GAUGE[state])

    def _candidates(self, graph: str) -> List[str]:
        """Shards able to answer ``graph``, preference order: the owner,
        then replicas — but shards inside their failure cooldown sink to
        the end (still tried last, so a fully-down replica set degrades
        to an error rather than an instant refusal)."""
        route = self._table.route(graph)
        names = [route.shard] + [replica for replica in route.replicas
                                 if replica in self._transports
                                 and replica != route.shard]
        now = time.monotonic()
        half_open: List[str] = []
        with self._health_lock:
            up = [n for n in names if not self._health[n].is_down(now)]
            down = [n for n in names if self._health[n].is_down(now)]
            half_open = [n for n in up
                         if self._health[n].breaker_state(now)
                         == BREAKER_HALF_OPEN]
        for name in half_open:
            # The cooldown elapsed with the failure streak unbroken: the
            # query about to route here is the breaker's probe.
            self._set_breaker(name, BREAKER_HALF_OPEN)
        return up + down

    # -- shared cross-shard cache ------------------------------------------------

    def shared_cache_info(self):
        """Counters of the shared cross-shard cache, or ``None`` when the
        router was opened without one."""
        return (None if self._shared_cache is None
                else self._shared_cache.stats())

    def _shared_key(self, spec: QuerySpec) -> Optional[Tuple]:
        """Cross-shard cache key: the graph's content *fingerprint* (never
        its name, so same-name/different-content graphs cannot collide and
        all replicas share), plus the query coordinates.  Uncacheable
        queries (capped iterations, time budgets — a budgeted run may
        have been cut short) get no key."""
        if (self._shared_cache is None or spec.max_iterations is not None
                or spec.timeout_s is not None):
            return None
        route = self._table.route(spec.graph)
        return (route.fingerprint, spec.source, spec.target,
                spec.method.upper(), spec.sql_style, spec.kind,
                spec.max_hops)

    # -- queries -----------------------------------------------------------------

    def shortest_path(self, source: int, target: int, graph: str,
                      method: str = "auto", sql_style: str = NSQL,
                      max_iterations: Optional[int] = None,
                      use_cache: bool = True, kind: str = "path",
                      max_hops: Optional[int] = None,
                      timeout_s: Optional[float] = None) -> PathResult:
        """Answer one query, routed transparently to ``graph``'s owner —
        or, when the owner's transport fails, to the next
        identical-fingerprint replica (bit-identical answer).

        ``kind``/``max_hops`` select the question asked, exactly as in
        :meth:`PathService.shortest_path` (``"path"``, ``"bounded_hop"``,
        or ``"reachability"``); the hop kinds route, fail over, and cache
        like any other query.

        ``timeout_s`` bounds the query end to end *across* the failover
        chain: each replica attempt is handed only the budget still
        remaining, and once the budget is gone the router stops failing
        over and raises :class:`~repro.errors.DeadlineExceededError`
        instead of shopping an expired query to the next replica.

        Raises:
            UnknownGraphError: when no shard owns ``graph``.
            ShardUnavailableError: every shard hosting ``graph`` is
                unreachable.
            DeadlineExceededError: the ``timeout_s`` budget ran out.
            (plus everything :meth:`PathService.shortest_path` raises)
        """
        spec = QuerySpec(source=source, target=target, graph=graph,
                         method=method, sql_style=sql_style,
                         max_iterations=max_iterations,
                         kind=kind, max_hops=max_hops,
                         timeout_s=timeout_s)
        self._registry.counter(METRIC_ROUTER_QUERIES, {"kind": kind}).inc()
        with self._tracer.span("router.query", graph=graph, source=source,
                               target=target, kind=kind) as root:
            key = self._shared_key(spec) if use_cache else None
            result, _ = self._answers.answer(
                key, lambda: self._route(spec, use_cache, root))
        # The router owns the trace root: the result carries the stitched
        # tree (local shard spans joined the root via the ambient context;
        # remote shard trees were adopted in _route).
        if root.trace is not None:
            result.trace = root.trace
        return result

    def _route(self, spec: QuerySpec, use_cache: bool, root) -> PathResult:
        """Run one query on ``spec.graph``'s owner, failing over to its
        replicas, with each attempt handed only the budget still left."""
        deadline = deadline_from_timeout(spec.timeout_s)

        def attempt(shard: str) -> PathResult:
            budget = remaining_budget(deadline)
            # Each attempt gets only what is left, not the original
            # allowance — the shard's own deadline then covers the true
            # remainder.
            attempt_spec = (spec if budget is None or budget <= 0
                            else replace(spec, timeout_s=budget))
            return self._transports[shard].shortest_path(
                attempt_spec, use_cache=use_cache)

        shard, attempts, result = self._failover(spec.graph, attempt,
                                                 deadline)
        if result.trace is not None and root.trace is not None:
            # A remote shard traced its own execution; stitch that tree
            # under the router root, tagged with the shard that answered
            # (the local-transport case needs no stitching — the
            # service's query span joined the root ambiently).  With
            # router tracing off the remote tree stays on the result
            # untouched.
            root.adopt(result.trace, shard=shard)
            result.trace = None
        root.tag(shard=shard, attempts=attempts)
        return result

    def _failover(self, graph: str, call: Callable[[str], T],
                  deadline: Optional[float] = None, *, weight: int = 1,
                  stats: Optional[RouterStats] = None
                  ) -> Tuple[str, int, T]:
        """``call(shard)`` on ``graph``'s hosts in preference order (see
        :meth:`_candidates`) until one answers; returns ``(shard,
        attempts, answer)``.  This is the router's only re-route rule.

        A transport failure (:class:`ShardUnavailableError`) marks the
        shard down and moves on to the next replica, counting ``weight``
        failovers — the number of queries riding on the call (a scatter
        slice carries several) — into ``repro_failovers_total`` and, when
        given, ``stats``; the last host's failure re-routes nothing and
        counts none.  Anything else is the shard's answer — a
        :class:`PathNotFoundError` counts as a healthy, timed reply — and
        propagates as itself, as every replica would answer the same.
        Once ``deadline`` has passed the router stops failing over and
        raises :class:`DeadlineExceededError` instead of shopping an
        expired query to the next replica.  Safe to run from several
        threads at once.
        """
        last: Optional[ShardUnavailableError] = None
        candidates = self._candidates(graph)
        for position, shard in enumerate(candidates):
            check_deadline(deadline, f"routing to shard {shard!r} "
                                     f"(attempt {position + 1})")
            try:
                with timer() as took:
                    answer = call(shard)
            except ShardUnavailableError as exc:
                # Another replica will be tried only if one is left.
                rerouted = weight if position + 1 < len(candidates) else 0
                self._mark_failure(shard, exc, stats, rerouted)
                last = exc
                continue
            except PathNotFoundError:
                self._mark_success(shard)
                self._observe_shard(shard, took.seconds)
                raise
            self._mark_success(shard)
            self._observe_shard(shard, took.seconds)
            return shard, position + 1, answer
        assert last is not None
        raise last

    def _observe_shard(self, shard: str, seconds: float) -> None:
        self._registry.histogram(METRIC_SHARD_LATENCY,
                                 {"shard": shard}).observe(seconds)

    def explain(self, source: int, target: int, graph: str,
                method: str = "auto", sql_style: str = NSQL) -> QueryPlan:
        """The plan ``graph``'s owning shard (or, on transport failure,
        its next replica) would execute."""
        spec = QuerySpec(source=source, target=target, graph=graph,
                         method=method, sql_style=sql_style)
        _, _, plan = self._failover(
            graph, lambda shard: self._transports[shard].explain(spec))
        return plan

    def shortest_path_many(self, queries: Sequence["BatchQuery"],
                           graph: Optional[str] = None,
                           method: str = "auto", sql_style: str = NSQL,
                           concurrency: int = 1,
                           timeout_s: Optional[float] = None
                           ) -> ScatterResult:
        """Scatter a mixed-graph batch across shards and gather in order.

        The batch is normalized and validated up front (unknown graphs,
        unknown nodes, and malformed specs fail before any shard executes
        anything), split by graph, and each graph's slice runs as one
        batch call on its owning shard's transport — concurrently across
        slices, and with ``concurrency=N`` worker threads *inside* each
        shard on top.  ``results[i]`` always answers ``queries[i]``;
        an unreachable pair leaves ``None`` there.

        Each slice's plan and execute calls go through the same failover
        loop as a single query: a shard failing at the transport level
        hands the slice to the next identical-fingerprint replica; the
        answers are bit-identical, the detour is visible in
        ``stats.failovers`` / ``stats.per_shard_errors``, and only when
        *every* host of a graph is down does the batch raise.

        Args:
            queries: the batch, in any of the forms
                :func:`~repro.service.batch.normalize_queries` accepts.
            graph: default graph for queries that do not name one.
            method / sql_style: batch-level defaults, as in the service.
            concurrency: per-shard worker-thread count (``1`` = each shard
                executes its slice serially).
            timeout_s: default per-query time budget applied to every
                query that does not already carry its own
                (``QuerySpec.timeout_s`` wins).  A query whose budget
                runs out reports a
                :class:`~repro.errors.DeadlineExceededError` at its own
                position in ``scatter.errors`` — its siblings finish
                normally.

        Raises:
            UnknownGraphError, NodeNotFoundError, InvalidQueryError: on
                the first malformed query, before anything executes.
            ShardUnavailableError: some graph's entire replica set is
                unreachable (deterministically the failure holding the
                smallest input index).
        """
        elapsed = timer()  # .seconds reads live until the final assignment
        specs = normalize_queries(queries, graph=graph or DEFAULT_GRAPH,
                                  method=method, sql_style=sql_style)
        if timeout_s is not None:
            specs = [spec if spec.timeout_s is not None
                     else replace(spec, timeout_s=timeout_s)
                     for spec in specs]
        for spec in specs:
            self._registry.counter(METRIC_ROUTER_QUERIES,
                                   {"kind": spec.kind}).inc()
        scatter = ScatterResult(
            specs=specs,
            results=[None] * len(specs),
            from_cache=[False] * len(specs),
            shard_of=[""] * len(specs),
            errors=[None] * len(specs),
            stats=RouterStats(total=len(specs)),
        )
        stats = scatter.stats
        # Owner resolution doubles as graph-name validation; the shared
        # cross-shard cache (when enabled) then answers what it can
        # without touching any shard, and the rest is grouped into one
        # slice per graph.
        slices: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            route = self._table.route(spec.graph)
            scatter.shard_of[index] = route.shard
            try:
                cached = self._answers.lookup(self._shared_key(spec))
            except PathNotFoundError:
                pass  # a remembered unreachable pair: the result stays None
            else:
                if cached is None:
                    slices.setdefault(spec.graph, []).append(index)
                    continue
                scatter.results[index] = cached
            scatter.from_cache[index] = True
            stats.shared_cache_hits += 1

        # Fail-fast validation: plan every pending spec — one transport
        # call per graph slice, failing over like any query — before a
        # single query executes anywhere.  Library errors (unknown node,
        # bad method) propagate immediately; the plans are handed to
        # in-process slices so they are not planned twice.
        plans: Dict[int, QueryPlan] = {}
        for name, indices in slices.items():
            todo = [specs[i] for i in indices]
            _, _, slice_plans = self._failover(
                name, lambda shard: self._transports[shard].plan_specs(todo),
                weight=len(indices), stats=stats)
            plans.update(zip(indices, slice_plans))

        # Execution: one thread per graph slice, each failing over on its
        # own.  The batch trace root collects one recorded span per slice
        # attempt (workers lose the ambient context, so slices record
        # onto the root explicitly).
        with self._tracer.span("router.batch", queries=len(specs),
                               shards=len(self._transports)) as root:

            def execute(indices: List[int], shard: str) -> "BatchResult":
                took = timer()
                try:
                    batch = self._transports[shard].execute_specs(
                        [specs[i] for i in indices],
                        concurrency=concurrency,
                        plans=[plans[i] for i in indices])
                except BaseException as exc:
                    root.record("router.slice", took.seconds, shard=shard,
                                queries=len(indices),
                                error=type(exc).__name__)
                    raise
                root.record("router.slice", took.seconds, shard=shard,
                            queries=len(indices))
                return batch

            with ThreadPoolExecutor(
                    max_workers=max(1, len(slices)),
                    thread_name_prefix="repro-router") as pool:
                futures = {
                    pool.submit(self._failover, name,
                                partial(execute, indices),
                                weight=len(indices), stats=stats): indices
                    for name, indices in slices.items()}
            errors: Dict[int, BaseException] = {}
            for future, indices in futures.items():
                try:
                    shard, _, batch = future.result()
                except BaseException as exc:
                    # Surfaced deterministically below, smallest input
                    # index first.
                    errors[indices[0]] = exc
                    continue
                stats.record(shard, batch.stats)
                for local, global_index in enumerate(indices):
                    result = batch.results[local]
                    scatter.results[global_index] = result
                    scatter.from_cache[global_index] = batch.from_cache[local]
                    scatter.shard_of[global_index] = shard
                    if batch.errors and local < len(batch.errors):
                        scatter.errors[global_index] = batch.errors[local]
                    spec = specs[global_index]
                    key = self._shared_key(spec)
                    if result is not None:
                        self._answers.remember(key, result)
                    else:
                        self._answers.remember_unreachable(
                            key, f"no path from {spec.source} to "
                                 f"{spec.target} in graph {spec.graph!r}")
            if errors:
                raise errors[min(errors)]

        scatter.trace = root.trace
        stats.total_time = elapsed.seconds
        return scatter

    # -- rebalancing -------------------------------------------------------------

    def move_stats(self) -> Dict[str, int]:
        """Rebalancing counters: full ``moves`` (data relocated) and
        ``replica_noops`` (ownership flipped to an existing
        identical-fingerprint replica, zero bytes copied)."""
        return dict(self._move_markers)

    def move(self, graph: str, shard: str) -> Route:
        """Rebalance: hand ``graph`` (and its built SegTable) to ``shard``.

        The graph's database file is snapshotted into the target shard's
        catalog directory through the store's relocation capability
        (:meth:`GraphStore.export_database` — for SQLite, the online
        backup API), so the SegTable inside migrates as-is.  Then the
        manifests are rewritten: the entry is written into the target
        manifest *first* and removed from the source manifest second —
        each write is atomic (temp file + rename), and a crash between the
        two leaves the graph listed by both shards with identical
        fingerprints, which the next :meth:`open` resolves as a benign
        replica rather than a conflict.  Finally the target shard
        warm-attaches the graph — adopting the migrated SegTable, never
        rebuilding it — and the routing table is updated in place.

        Two cheap cases short-circuit the copy entirely: moving a graph
        onto its current owner returns the route unchanged, and moving it
        onto a shard that already *replica-hosts* it at the same
        fingerprint just flips ownership (both manifests re-stamped, the
        old owner demoted to replica) and counts a ``replica_noops``
        marker in :meth:`move_stats`.

        A relocation that fails midway (export error, disk full) removes
        its partial snapshot from the target catalog before re-raising,
        so a retry is not blocked by a corrupt leftover file.

        Moving a graph is not concurrency-safe against in-flight batches
        that touch it: quiesce those first.

        Args:
            graph: a routed graph name.
            shard: the receiving shard.

        Returns:
            The graph's new :class:`Route`.

        Raises:
            UnknownGraphError: ``graph`` is not routed.
            UnknownShardError: ``shard`` is not part of this router.
            ShardError: the entry is stale, the backend cannot relocate
                its database, the target already holds a database file of
                the same name, or either endpoint is a remote shard
                (full data moves need in-process services).
        """
        route = self._table.route(graph)
        target = self._shard(shard)
        if route.shard == shard:
            return route
        if shard in route.replicas:
            # The target already holds byte-identical content: no copy,
            # just flip the durable ownership records and the live route.
            source = self._shard(route.shard)
            target.stamp_ownership(graph, shard)
            source.stamp_ownership(graph, shard)
            flipped = Route(
                graph=graph, shard=shard, fingerprint=route.fingerprint,
                stale=route.stale,
                replicas=(route.shard,) + tuple(
                    replica for replica in route.replicas
                    if replica != shard))
            self._table.routes[graph] = flipped
            self._move_markers["replica_noops"] += 1
            return flipped
        source = self._shard(route.shard)
        source_catalog = source.service.catalog
        target_catalog = target.service.catalog
        assert source_catalog is not None and target_catalog is not None
        entry = source_catalog.get(graph)
        if entry.stale:
            raise ShardError(
                f"cannot move stale graph {graph!r}; rebuild it first "
                f"(python -m repro.catalog rebuild --catalog "
                f"{source_catalog.path} {graph})"
            )
        source_db = source_catalog.resolve_db_path(entry)
        # A relative db_path lives inside the source catalog directory and
        # must physically move; an absolute one is shared storage both
        # shards can reach, so only the manifests change.  A DSN entry is
        # the extreme of that case — the graph lives on a database server
        # either shard can dial — so it also moves by manifest flip alone,
        # with no file copy and nothing to remove from the source.
        relocating = not is_dsn(entry.db_path) and not os.path.isabs(
            entry.db_path)
        if relocating:
            dest_db = os.path.join(target_catalog.path,
                                   os.path.basename(entry.db_path))
            if os.path.exists(dest_db):
                raise ShardError(
                    f"target shard {shard!r} already holds a database "
                    f"file named {os.path.basename(entry.db_path)!r}; "
                    f"remove it (or gc the target catalog) before moving"
                )
            # Snapshot BEFORE detaching anything: the backup runs safely
            # under the source service's open readers, so a capability
            # refusal or a failed copy aborts the move with the graph
            # still fully hosted and routed on its current shard.
            store = create_store(entry.backend, path=source_db,
                                 buffer_capacity=entry.buffer_capacity)
            try:
                if not store.supports_relocation():
                    raise ShardError(
                        f"backend {entry.backend!r} cannot relocate its "
                        f"database; graph {graph!r} stays on shard "
                        f"{route.shard!r}"
                    )
                try:
                    store.export_database(dest_db)
                except BaseException:
                    # A half-written snapshot must not survive: it would
                    # block the retry (the dest-exists guard above) and
                    # could be mistaken for a valid database.
                    if os.path.exists(dest_db):
                        os.remove(dest_db)
                    raise
            finally:
                store.close()
        else:
            dest_db = entry.db_path
        # Only now detach from the source service: its pool connections
        # hold the file open, and a moved graph must stop being
        # answerable by the old owner.
        if graph in source.service.graphs():
            source.service.drop_graph(graph)
        target_catalog.put(entry.touched(
            db_path=target_catalog.normalize_db_path(dest_db),
            shard=shard))
        source_catalog.remove(graph)
        target.service.attach_graph(graph)
        if relocating:
            os.remove(source_db)
        moved = Route(graph=graph, shard=shard,
                      fingerprint=entry.fingerprint,
                      stale=False, replicas=route.replicas)
        self._table.routes[graph] = moved
        self._move_markers["moves"] += 1
        return moved

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every shard transport."""
        if self._closed:
            return
        self._closed = True
        for transport in self._transports.values():
            transport.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _shard(self, name: str) -> ShardTransport:
        transport = self._transports.get(name)
        if transport is None:
            raise UnknownShardError(
                f"shard {name!r} is not part of this router; shards: "
                f"{tuple(self._transports)}"
            )
        return transport


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "DEFAULT_GRAPH",
    "FAILOVER_COOLDOWN",
    "FAILOVER_COOLDOWN_MAX",
    "ScatterResult",
    "ShardHealth",
    "ShardRouter",
]
