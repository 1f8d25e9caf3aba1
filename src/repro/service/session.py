"""The :class:`PathService` session: multi-graph hosting over pluggable stores.

One service hosts any number of named graphs, each loaded once into a store
created through the backend registry.  The service owns the full query
pipeline — validation, planning (``method="auto"``), execution, SegTable
memoization, and a shared LRU result cache — so callers state *what* they
want and the service decides *how* to run it::

    with PathService() as service:
        service.add_graph("social", graph, backend="minidb")
        service.build_segtable("social", lthd=5)
        print(service.explain(0, 42, graph="social").describe())
        result = service.shortest_path(0, 42, graph="social")
        batch = service.shortest_path_many([(0, 42), (3, 99)],
                                           graph="social")

A service bound to a **persistent catalog** survives the process: every
``db_path``-backed graph it hosts (and every SegTable it builds) is
recorded in the catalog's manifest, and a later warm start reattaches all
of it without reloading edges or re-running the offline index expansion::

    service = PathService(catalog_path="catalog/")
    service.add_graph("social", graph, backend="sqlite",
                      db_path="catalog/social.db")
    service.build_segtable("social", lthd=5)
    service.close()

    warm = PathService.open(catalog_path="catalog/")   # no reload, no rebuild
    assert warm.segtable_stats("social") is not None
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.core.deadline import (
    check_deadline,
    deadline_from_timeout,
    remaining_budget,
)
from repro.core.multi import (
    METHOD_HOPS,
    METHOD_REACH,
    OneToManyResult,
    dijkstra_one_to_many,
    hop_limited_search,
)
from repro.core.path import PathResult
from repro.core.segtable import build_segtable as _build_segtable
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import BatchStats, QueryStats, SegTableBuildStats
from repro.core.store.base import GraphStore, IndexMode
from repro.core.store.registry import create_store, is_dsn
from repro.errors import (
    ConcurrencyError,
    DeadlineExceededError,
    DuplicateGraphError,
    FingerprintMismatchError,
    InvalidQueryError,
    ManifestError,
    NodeNotFoundError,
    PathNotFoundError,
    PersistenceUnsupportedError,
    PersistentCatalogError,
    PoolTimeoutError,
    ServiceError,
    UnknownGraphError,
)
from repro.graph.fingerprint import fingerprint_graph
from repro.graph.model import Graph
from repro.graph.stats import GraphStatistics, compute_statistics

if TYPE_CHECKING:  # pragma: no cover - typing only; the catalog package is
    # imported lazily at runtime (it pulls in repro.core, which imports this
    # module while initializing).
    from repro.catalog.catalog import Catalog
    from repro.service.pool import _Lease
from repro.memory.bidirectional import bidirectional_dijkstra as _memory_bidirectional
from repro.memory.dijkstra import dijkstra_shortest_path as _memory_dijkstra
from repro.obs import MetricsRegistry, Tracer, record_span, timer, wall_time
from repro.obs import span as obs_span
from repro.obs.schema import (
    METRIC_DEADLINE_EXCEEDED,
    METRIC_NOT_FOUND,
    METRIC_PLANNER_COST_ERROR,
    METRIC_QUERIES,
    METRIC_QUERY_LATENCY,
    METRIC_QUERY_QUEUE,
)
from repro.service.answer import AnswerPath, Outcome
from repro.service.cache import CacheStats, ResultCache
from repro.service.costmodel import CostModel, CostProfile, default_profile
from repro.service.pool import PoolStats, StorePool
from repro.service.planner import (
    KIND_PATH,
    MEMORY_METHODS,
    QueryPlan,
    QuerySpec,
    RELATIONAL_METHODS,
    plan_query,
)

DEFAULT_GRAPH = "default"

BatchQuery = Union[QuerySpec, Tuple[int, int], Tuple[str, int, int],
                   Tuple[str, int, int, str], Dict[str, object]]


@contextmanager
def _leased(pool: StorePool, checkout_timeout: Optional[float],
            deadline: Optional[float]) -> Iterator[_Lease]:
    """Hold one pooled store for a run; yields the entered lease
    (``.store``, ``.queue_seconds``).

    The checkout wait is bounded by the query's remaining budget, so a
    budgeted query never sits in the queue past its deadline: an
    already-expired budget raises before touching the pool, and a
    checkout timeout the budget caused surfaces as the
    :class:`DeadlineExceededError` it is, like every other expiry site.
    """
    if deadline is not None:
        check_deadline(deadline, "store checkout")
        budget = remaining_budget(deadline)
        assert budget is not None
        checkout_timeout = (budget if checkout_timeout is None
                            else min(checkout_timeout, budget))
    lease = pool.lease(checkout_timeout)
    try:
        lease.__enter__()
    except PoolTimeoutError:
        check_deadline(deadline, "store checkout")
        raise
    try:
        yield lease
    finally:
        lease.__exit__(None, None, None)


def run_in_memory(graph: Graph, source: int, target: int,
                  method: str = "MDJ") -> PathResult:
    """Run one of the in-memory competitors (MDJ or MBDJ) on ``graph``."""
    method = method.upper()
    if method == "MDJ":
        result = _memory_dijkstra(graph, source, target)
    elif method == "MBDJ":
        result = _memory_bidirectional(graph, source, target)
    else:
        raise InvalidQueryError(
            f"unknown in-memory method {method!r}; expected MDJ or MBDJ"
        )
    stats = QueryStats(method=method)
    stats.found = True
    stats.distance = result.distance
    stats.visited_nodes = result.settled
    stats.path_edges = result.num_edges
    return PathResult(source, target, result.distance, result.path, stats)


@dataclass
class _GraphHost:
    """Everything the service keeps per hosted graph."""

    name: str
    graph: Graph
    store: GraphStore
    backend: str
    index_mode: str
    buffer_capacity: int = 256
    pool: Optional[StorePool] = None
    segtable_stats: Optional[SegTableBuildStats] = None
    # Segment rows captured at build time so pool rehydration can replay
    # them into a replica without touching the (possibly busy) primary.
    segment_rows: Optional[Tuple[List[Dict[str, object]],
                                 List[Dict[str, object]]]] = None
    _segtable_key: Optional[Tuple[Hashable, ...]] = None
    _statistics: Optional[GraphStatistics] = None
    _fingerprint: Optional[str] = None

    @property
    def statistics(self) -> GraphStatistics:
        """Graph statistics, computed once (hosted graphs are frozen)."""
        if self._statistics is None:
            self._statistics = compute_statistics(self.graph)
        return self._statistics

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the hosted graph, computed once (warm
        attaches restore it from the catalog entry instead)."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint_graph(self.graph)
        return self._fingerprint

    def capture_segments(self) -> None:
        """Capture the store's finished segments for pool rehydration —
        only needed by backends without a ``clone()`` fast path (a
        cloning store's replicas read the SegTable straight from the
        file)."""
        store = self.store
        self.segment_rows = (None if store.supports_clone() else
                             store.seg_rows())


class PathService:
    """Session object hosting named graphs and answering queries over them.

    Args:
        default_backend: registry name used when :meth:`add_graph` does not
            specify one.
        cache_size: capacity of the shared LRU result cache (``0`` disables
            result caching entirely, negative caching included).
        cache_ttl: optional seconds after which cached results (positive
            and negative) expire.
        cache_max_bytes: optional approximate memory bound for the result
            cache; the LRU tail is evicted until the estimate fits.
        negative_cache_size: capacity of the unreachable-pair verdict cache
            (``0`` disables negative caching; repeated misses then re-run
            the full search every time).
        catalog_path: optional persistent-catalog directory.  When bound,
            every ``db_path``-backed graph added to (and every SegTable
            built by) this service is recorded durably, and
            :meth:`attach_graph` / :meth:`PathService.open` can warm-start
            from it.
        shard_id: optional identity of the shard this service embodies
            (set by :class:`repro.shard.ShardRouter`).  It is appended to
            every result-cache key, so cached entries — and a batch's
            duplicate grouping — can never cross-talk between shards
            that host same-named graphs, even if their caches are merged
            or compared externally.  ``None`` (the default) keeps the
            unsharded key shape.
    """

    def __init__(self, default_backend: str = "minidb",
                 cache_size: int = 1024, *,
                 cache_ttl: Optional[float] = None,
                 cache_max_bytes: Optional[int] = None,
                 negative_cache_size: int = 1024,
                 catalog_path: Optional[str] = None,
                 shard_id: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracing: bool = True) -> None:
        self.default_backend = default_backend
        self.shard_id = shard_id
        self._hosts: Dict[str, _GraphHost] = {}
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = Tracer(enabled=tracing)
        self._cache = ResultCache(cache_size, ttl_seconds=cache_ttl,
                                  max_bytes=cache_max_bytes,
                                  negative_capacity=negative_cache_size,
                                  registry=self._registry,
                                  name=shard_id or "local")
        self._answers = AnswerPath(self._cache, self._registry)
        self._catalog: Optional["Catalog"] = None
        if catalog_path is not None:
            from repro.catalog.catalog import Catalog
            self._catalog = Catalog(catalog_path)
        self._segtable_builds = 0
        self._cost_models: Dict[str, CostModel] = {}
        self._closed = False

    # -- warm start --------------------------------------------------------------

    @classmethod
    def open(cls, catalog_path: Optional[str] = None, *,
             strict: bool = True,
             backend: Optional[str] = None, dsn: Optional[str] = None,
             graph_name: str = DEFAULT_GRAPH, concurrency: int = 1,
             **kwargs: object) -> "PathService":
        """Warm-start a service from a persistent catalog — or straight
        from a populated server database.

        With ``catalog_path``, every cataloged graph is reattached: its
        database file (or server DSN) is opened without an edge reload,
        its planner statistics are rehydrated from the manifest, and its
        persisted SegTable — if built — is adopted without re-running the
        offline expansion.

        With ``dsn`` (e.g. ``PathService.open(backend="dbapi",
        dsn="postgresql://host/graphs")``), no catalog is needed at all:
        the server database is adopted directly via :meth:`adopt_graph` —
        the graph is read back with a ``SELECT`` scan and a persisted
        SegTable is recovered through the store's durable metadata
        (:meth:`~repro.core.store.base.GraphStore.persistent_segtable_lthd`).

        Args:
            catalog_path: the catalog directory (see
                :class:`repro.catalog.Catalog`).
            strict: raise on the first entry that fails to attach (stale
                fingerprint, missing file).  With ``strict=False`` such
                entries are skipped and the rest of the catalog loads.
            backend: backend for ``dsn`` adoption (default ``"dbapi"``).
            dsn: connection string of an already-populated server
                database to adopt — or, with ``backend="sqlite"``, the
                path of a database file (mutually exclusive with
                ``catalog_path``).
            graph_name: name the ``dsn``-adopted graph is hosted under.
            concurrency: store-pool capacity for the adopted graph.
            **kwargs: forwarded to the constructor (``default_backend``,
                cache knobs, ...).

        Raises:
            PersistentCatalogError: a manifest problem, or — in strict
                mode — any entry that cannot be attached.
            ServiceError: neither (or both) of ``catalog_path``/``dsn``.
        """
        if (catalog_path is None) == (dsn is None):
            raise ServiceError(
                "PathService.open needs exactly one of catalog_path= "
                "(warm-start from a catalog) or dsn= (adopt a server "
                "database directly)"
            )
        if dsn is not None:
            service = cls(**kwargs)  # type: ignore[arg-type]
            try:
                service.adopt_graph(graph_name, dsn=dsn,
                                    backend=backend or "dbapi",
                                    concurrency=concurrency)
            except BaseException:
                service.close()
                raise
            return service
        service = cls(catalog_path=catalog_path, **kwargs)  # type: ignore[arg-type]
        try:
            service.attach_all(strict=strict)
        except BaseException:
            service.close()
            raise
        return service

    @property
    def catalog(self) -> Optional["Catalog"]:
        """The bound persistent catalog, or ``None``."""
        return self._catalog

    @property
    def segtable_builds(self) -> int:
        """How many SegTable constructions actually ran in this process —
        memoized returns and warm-started (persisted) tables do not count.
        The warm-start benchmark asserts this stays zero after a reattach.
        """
        return self._segtable_builds

    def attach_all(self, strict: bool = True) -> Tuple[str, ...]:
        """Attach every cataloged graph not already hosted; returns the
        names attached (see :meth:`open` for the ``strict`` contract)."""
        catalog = self._require_catalog()
        attached: List[str] = []
        for name in catalog.names():
            if name in self._hosts:
                continue
            try:
                self.attach_graph(name)
            except PersistentCatalogError:
                if strict:
                    raise
                continue
            attached.append(name)
        return tuple(attached)

    def attach_graph(self, name: str, concurrency: int = 1) -> str:
        """Reattach one cataloged graph without reloading it.

        The entry's database file is opened through the backend registry,
        its content fingerprint verified against the manifest, the graph
        read back (a ``SELECT`` scan — no table creation, no bulk insert,
        no index build), statistics rehydrated, and any persisted SegTable
        adopted as-is.

        Args:
            name: the cataloged graph name.
            concurrency: store-pool capacity, as in :meth:`add_graph`.

        Raises:
            CatalogEntryNotFoundError: ``name`` is not cataloged.
            ManifestError: the database file is missing or holds no graph.
            FingerprintMismatchError: the file's content no longer matches
                the manifest (the entry is marked stale; re-register the
                graph or ``python -m repro.catalog rebuild`` it).
            DuplicateGraphError: ``name`` is already hosted.
        """
        self._check_new(name)
        catalog = self._require_catalog()
        entry = catalog.get(name)
        rebuild_hint = (f"re-register the graph or run `python -m "
                        f"repro.catalog rebuild --catalog {catalog.path} "
                        f"{name}`")
        if entry.stale:
            raise FingerprintMismatchError(
                f"catalog entry {name!r} is stale (a previous attach found "
                f"the database changed underneath it); {rebuild_hint}"
            )
        db_path = catalog.resolve_db_path(entry)
        # A DSN-backed entry has no file to stat — reachability of the
        # server is checked by the connect below (a typed
        # BackendConnectionError, not a missing-file ManifestError).
        if not is_dsn(db_path) and not os.path.exists(db_path):
            raise ManifestError(
                f"database file {db_path!r} for cataloged graph {name!r} "
                f"is missing; `python -m repro.catalog gc` drops the entry"
            )
        store = create_store(entry.backend, path=db_path,
                             buffer_capacity=entry.buffer_capacity)
        try:
            if not (store.supports_persistence()
                    and store.has_persistent_tables()):
                raise ManifestError(
                    f"store {entry.backend!r} at {db_path!r} holds no "
                    f"persisted graph tables; the catalog entry does not "
                    f"match a loaded graph database"
                )
            actual = store.content_fingerprint()
            if actual != entry.fingerprint:
                catalog.mark_stale(name)
                raise FingerprintMismatchError(
                    f"graph {name!r} changed on disk: the database "
                    f"fingerprint no longer matches the catalog entry "
                    f"(expected {entry.fingerprint[:18]}..., found "
                    f"{actual[:18]}...); the entry is now marked stale — "
                    f"{rebuild_hint}"
                )
            index_mode = IndexMode.validate(entry.index_mode)
            if hasattr(store, "index_mode"):
                store.index_mode = index_mode
            graph = store.export_graph()
            host = _GraphHost(name=name, graph=graph, store=store,
                              backend=entry.backend, index_mode=index_mode,
                              buffer_capacity=entry.buffer_capacity)
            host._fingerprint = entry.fingerprint
            if entry.statistics is not None:
                host._statistics = entry.statistics
            seg = entry.segtable
            if seg is not None:
                if store.has_persistent_segtable():
                    self._adopt_segtable(host, seg.lthd, seg.sql_style,
                                         IndexMode.validate(seg.index_mode),
                                         seg.build)
                else:
                    # The segment tables vanished (dropped externally);
                    # treat the index as unbuilt rather than failing the
                    # whole attach, and say so in the manifest.
                    catalog.set_segtable(name, None)
        except Exception:
            store.close()
            raise
        return self._register(host, concurrency)

    def adopt_graph(self, name: str = DEFAULT_GRAPH, *, dsn: str,
                    backend: str = "dbapi", concurrency: int = 1,
                    buffer_capacity: int = 256) -> str:
        """Host an already-populated database directly, no catalog.

        The catalog-less sibling of :meth:`attach_graph` for DSN-backed
        backends (and SQLite files, whose ``dsn`` is the file path): the
        store is opened over ``dsn``, its persisted graph
        tables are read back (a ``SELECT`` scan — no bulk load), and a
        persisted SegTable is adopted using the ``lthd`` the store
        recorded durably next to its tables
        (:meth:`~repro.core.store.base.GraphStore.persistent_segtable_lthd`),
        so nothing is rebuilt.

        Raises:
            PersistenceUnsupportedError: the store at ``dsn`` holds no
                persisted graph tables (or the backend cannot persist).
            DuplicateGraphError: ``name`` is already hosted.
        """
        self._check_new(name)
        backend = backend.lower()
        store = create_store(backend, path=dsn,
                             buffer_capacity=buffer_capacity)
        try:
            if not (store.supports_persistence()
                    and store.has_persistent_tables()):
                raise PersistenceUnsupportedError(
                    f"store {backend!r} at {dsn!r} holds no persisted "
                    f"graph tables; load a graph there before adopting it"
                )
            graph = store.export_graph()
            host = _GraphHost(name=name, graph=graph, store=store,
                              backend=backend,
                              index_mode=getattr(store, "index_mode",
                                                 IndexMode.CLUSTERED),
                              buffer_capacity=buffer_capacity)
            lthd = (store.persistent_segtable_lthd()
                    if store.has_persistent_segtable() else None)
            if lthd is not None:
                self._adopt_segtable(host, lthd, NSQL, host.index_mode)
        except Exception:
            store.close()
            raise
        return self._register(host, concurrency)

    def _adopt_segtable(self, host: _GraphHost, lthd: float, sql_style: str,
                        mode: str,
                        build: Optional[SegTableBuildStats] = None) -> None:
        """Adopt the SegTable persisted in ``host``'s store as-is — no
        offline expansion runs."""
        host.store.adopt_segtable(lthd)
        host.segtable_stats = build or SegTableBuildStats(
            lthd=lthd, sql_style=sql_style)
        host._segtable_key = self._segtable_memo_key(host, lthd, sql_style,
                                                     mode)
        host.capture_segments()

    def _check_new(self, name: str) -> None:
        """Refuse to host ``name`` on a closed service or twice."""
        if self._closed:
            raise ServiceError("this PathService is closed; create a new one")
        if name in self._hosts:
            raise DuplicateGraphError(
                f"graph {name!r} is already hosted; drop_graph() it first"
            )

    def _register(self, host: _GraphHost, concurrency: int) -> str:
        """Give ``host`` its store pool and start serving it."""
        host.pool = StorePool(host.store, self._rehydrator(host),
                              size=concurrency,
                              registry=self._registry, graph=host.name)
        self._hosts[host.name] = host
        return host.name

    def _require_catalog(self) -> "Catalog":
        if self._catalog is None:
            raise ServiceError(
                "this PathService has no catalog bound; construct it with "
                "catalog_path=... (or use PathService.open)"
            )
        return self._catalog

    # -- graph lifecycle ---------------------------------------------------------

    def add_graph(self, name: str, graph: Graph,
                  backend: Optional[str] = None,
                  buffer_capacity: int = 256,
                  index_mode: str = IndexMode.CLUSTERED,
                  db_path: Optional[str] = None,
                  concurrency: int = 1,
                  persist: bool = True) -> str:
        """Host ``graph`` under ``name``, loading it into a fresh store.

        Args:
            name: session-unique graph name.
            graph: the graph to load; treated as frozen once hosted.
            backend: registry backend name (service default when ``None``).
            buffer_capacity: buffer-pool pages (engines without one ignore it).
            index_mode: index strategy for the relational tables.
            db_path: optional backing file; in-memory by default.
            concurrency: store-pool capacity for this graph — how many
                reader connections parallel batches may use at once.
                Replicas are created lazily, so ``1`` (the default) costs
                nothing extra; a later ``shortest_path_many(concurrency=N)``
                grows the pool on demand anyway.  Backends whose store class
                does not set ``supports_concurrent_readers`` are clamped
                to 1 regardless.
            persist: when this service is bound to a catalog and the store
                persists (a ``db_path``-backed graph on a
                persistence-capable backend), record the graph in the
                catalog so later sessions can warm-start it.  ``False``
                opts this graph out; graphs whose store cannot persist are
                skipped either way.

        Returns:
            The graph name, for chaining into a query call.

        Raises:
            DuplicateGraphError: when ``name`` is already hosted.
            UnknownBackendError: when ``backend`` is not registered.
        """
        self._check_new(name)
        backend = (backend or self.default_backend).lower()
        index_mode = IndexMode.validate(index_mode)
        store = create_store(backend, path=db_path,
                             buffer_capacity=buffer_capacity)
        try:
            store.load_graph(graph, index_mode=index_mode)
        except Exception:
            store.close()
            raise
        host = _GraphHost(name=name, graph=graph, store=store,
                          backend=backend, index_mode=index_mode,
                          buffer_capacity=buffer_capacity)
        self._register(host, concurrency)
        if (persist and self._catalog is not None and db_path is not None
                and store.supports_persistence()):
            from repro.catalog.manifest import CatalogEntry
            self._catalog.put(CatalogEntry(
                name=name, backend=backend,
                db_path=self._catalog.normalize_db_path(db_path),
                fingerprint=host.fingerprint, directed=graph.directed,
                index_mode=index_mode, buffer_capacity=buffer_capacity,
                num_nodes=graph.num_nodes, num_edges=graph.num_edges,
                statistics=host.statistics,
            ))
        return name

    def _rehydrator(self, host: _GraphHost):
        """Replica factory for ``host``'s pool: a fresh in-memory store of
        the same backend, reloaded from the frozen hosted graph (and the
        segment rows captured at build time).  Reads nothing from the
        primary store, which may be serving another worker right now."""
        def rehydrate(primary: GraphStore) -> GraphStore:
            del primary  # replicas rebuild from the frozen graph instead
            store = create_store(host.backend, path=None,
                                 buffer_capacity=host.buffer_capacity)
            try:
                store.load_graph(host.graph, index_mode=host.index_mode)
                if host.segment_rows is not None:
                    out_rows, in_rows = host.segment_rows
                    store.load_segtable(out_rows, in_rows,
                                        host.store.segtable_lthd or 0.0,
                                        index_mode=host.index_mode)
            except Exception:
                store.close()
                raise
            return store
        return rehydrate

    def drop_graph(self, name: str) -> None:
        """Close and forget the graph hosted under ``name``, dropping its
        cached results."""
        host = self._host(name)
        del self._hosts[name]
        self._cache.invalidate_graph(name)
        assert host.pool is not None
        host.pool.close()

    def graphs(self) -> Tuple[str, ...]:
        """Names of the hosted graphs, in insertion order."""
        return tuple(self._hosts)

    def graph(self, name: str = DEFAULT_GRAPH) -> Graph:
        """The :class:`Graph` hosted under ``name``."""
        return self._host(name).graph

    def store(self, name: str = DEFAULT_GRAPH) -> GraphStore:
        """The :class:`GraphStore` backing the graph hosted under ``name``."""
        return self._host(name).store

    def statistics(self, name: str = DEFAULT_GRAPH) -> GraphStatistics:
        """Memoized :class:`GraphStatistics` for the hosted graph."""
        return self._host(name).statistics

    def pool_stats(self, name: str = DEFAULT_GRAPH) -> PoolStats:
        """Counters of the graph's store pool (capacity, members created,
        checkouts, waits, clone vs. rehydrate replica counts)."""
        host = self._host(name)
        assert host.pool is not None
        return host.pool.stats()

    # -- SegTable management -----------------------------------------------------

    def build_segtable(self, graph: str = DEFAULT_GRAPH, *,
                       lthd: Union[float, str],
                       sql_style: str = NSQL,
                       index_mode: Optional[str] = None,
                       force: bool = False) -> SegTableBuildStats:
        """Build the SegTable index for a hosted graph, memoized.

        ``lthd="auto"`` picks the threshold with the cost model: predicted
        BSEG online cost traded against predicted construction cost/size
        (see :meth:`recommend_lthd` for the per-candidate predictions).

        Rebuilding with the same parameters returns the previous
        :class:`SegTableBuildStats` without touching the store; pass
        ``force=True`` (or different parameters) to rebuild.  The memo key
        is ``(graph name, lthd, sql_style, index_mode)`` and lives on the
        graph's host, whose graph is frozen: a graph dropped and
        re-registered under a reused name (or reattached from a catalog)
        gets a new host with no memo, so it can never be served a stale
        table, and no build hashes the graph to find that out.

        On a catalog-bound service the finished build is persisted:
        metadata and construction statistics go into the graph's manifest
        entry, and a later warm start adopts the materialized tables
        instead of running this construction again.
        """
        host = self._host(graph)
        if isinstance(lthd, str):
            if lthd.lower() != "auto":
                raise InvalidQueryError(
                    f"lthd must be a positive number or 'auto', got {lthd!r}"
                )
            lthd, _ = self.recommend_lthd(graph)
        validate_sql_style(sql_style)
        mode = IndexMode.validate(index_mode or host.index_mode)
        key = self._segtable_memo_key(host, lthd, sql_style, mode)
        if not force and host._segtable_key == key:
            assert host.segtable_stats is not None
            return host.segtable_stats
        assert host.pool is not None
        # The build writes into the store's shared data, so seal the whole
        # pool behind the drain barrier: with SQLite clones, readers hold
        # shared locks on the very file the build is about to write, and
        # the barrier also stops checkouts from growing a *fresh* reader
        # mid-build.  Queries queue and resume once the barrier lifts.
        primary = host.store
        with host.pool.drain() as members:
            try:
                host.segtable_stats = _build_segtable(primary, lthd,
                                                      sql_style=sql_style,
                                                      index_mode=mode)
                self._segtable_builds += 1
                host._segtable_key = key
                host.capture_segments()
            finally:
                # Retire replicas built against the old index (checkin
                # after reset() closes them; the primary survives).
                host.pool.reset()
                for member in members:
                    host.pool.checkin(member)
        if (self._catalog is not None and host.name in self._catalog
                and primary.supports_persistence()):
            from repro.catalog.manifest import SegTableRecord
            self._catalog.set_segtable(host.name, SegTableRecord(
                lthd=lthd, sql_style=sql_style, index_mode=mode,
                build=host.segtable_stats, built_at=wall_time(),
            ))
        return host.segtable_stats

    @staticmethod
    def _segtable_memo_key(host: _GraphHost, lthd: float, sql_style: str,
                           mode: str) -> Tuple[Hashable, ...]:
        """Memo key of one SegTable build on ``host``: name and parameters.
        The host's graph never changes, so its content needs no key."""
        return (host.name, lthd, sql_style, mode)

    def segtable_stats(self, graph: str = DEFAULT_GRAPH
                       ) -> Optional[SegTableBuildStats]:
        """Build statistics of the graph's SegTable (``None`` if unbuilt)."""
        return self._host(graph).segtable_stats

    # -- cost model / calibration ------------------------------------------------

    def cost_model(self, backend: Optional[str] = None) -> CostModel:
        """The :class:`CostModel` pricing ``method="auto"`` for ``backend``
        (the service default when ``None``): the model :meth:`calibrate`
        measured in this session, or else one over the built-in default
        profile.  The same object keeps receiving runtime feedback.
        """
        backend = (backend or self.default_backend).lower()
        model = self._cost_models.get(backend)
        if model is None:
            model = CostModel(default_profile(backend))
            self._cost_models[backend] = model
        return model

    def calibrate(self, backend: Optional[str] = None,
                  **probe_options: object) -> Dict[str, CostProfile]:
        """Measure unit costs for one or more backends and adopt them for
        the rest of this session.  Nothing is persisted: a probe prices
        the process that ran it.

        Args:
            backend: a backend name, or ``None`` to calibrate every
                backend this session currently hosts graphs on (falling
                back to the service default when nothing is hosted yet).
            **probe_options: forwarded to
                :func:`repro.service.calibrate.calibrate_profile`
                (``seed``, ``probe_nodes``, ``queries_per_method``, ...).

        Returns:
            Backend name -> the measured :class:`CostProfile`.
        """
        from repro.service.calibrate import calibrate_profile
        if backend is not None:
            backends = [backend.lower()]
        else:
            backends = sorted({host.backend for host in self._hosts.values()}
                              or {self.default_backend.lower()})
        profiles: Dict[str, CostProfile] = {}
        for name in backends:
            options = dict(probe_options)
            if "store_path" not in options:
                # Client-server backends have no in-memory probe mode: the
                # constants being measured are the *server's*, so probe the
                # server a hosted graph lives on — under a fresh table
                # prefix (calibration_path) so the probe can never touch
                # hosted tables.  Embedded backends return None and keep
                # their in-memory probe store.
                hosted = next((host for host in self._hosts.values()
                               if host.backend == name), None)
                if hosted is not None:
                    probe_path = hosted.store.calibration_path()
                    if probe_path is not None:
                        options["store_path"] = probe_path
            profile = calibrate_profile(name, **options)  # type: ignore[arg-type]
            self._cost_models[name] = CostModel(profile)
            profiles[name] = profile
        return profiles

    def recommend_lthd(self, graph: str = DEFAULT_GRAPH,
                       amortize_queries: int = 500
                       ) -> Tuple[float, List[Dict[str, float]]]:
        """Cost-driven SegTable threshold for a hosted graph.

        Trades the predicted BSEG online cost against the predicted
        construction cost amortized over ``amortize_queries`` queries
        (Figure 7's trade-off, automated).  Returns ``(lthd, predictions)``
        where ``predictions`` holds one row per candidate threshold.
        """
        host = self._host(graph)
        model = self.cost_model(host.backend)
        return model.choose_lthd(host.statistics,
                                 amortize_queries=amortize_queries)

    def _observe(self, plan: QueryPlan, host: _GraphHost,
                 executed_seconds: float) -> None:
        """Feed one executed query back into the backend's cost model.

        Only relational, uncapped queries train the model; and when an
        explicit-method query never computed the graph's statistics, the
        sample is dropped rather than paying the O(V+E) scan on the hot
        path (auto queries always have statistics by construction).
        """
        if plan.method in MEMORY_METHODS:
            return
        if plan.spec.kind != KIND_PATH:
            # Hop kinds run a fixed driver — there is no method choice to
            # train, and folding their (differently shaped) times into the
            # shared global bias would skew the weighted methods' ordering.
            return
        if plan.spec.max_iterations is not None:
            return  # capped runs may stop early; their times are not real
        if plan.spec.timeout_s is not None:
            return  # budgeted runs race a deadline; don't train on them
        if host._statistics is None:
            return
        self.cost_model(host.backend).observe(
            plan.method, host.statistics, executed_seconds,
            segtable_lthd=host.store.segtable_lthd,
            segtable=host.segtable_stats)

    # -- planning ----------------------------------------------------------------

    def plan(self, spec: QuerySpec, estimate: bool = False) -> QueryPlan:
        """Plan ``spec`` without executing it.

        Statistics are computed lazily: explicit-method plans skip the
        O(V+E) graph-statistics scan unless ``estimate=True``.
        ``method="auto"`` is priced by the backend's (possibly calibrated)
        cost model; the chosen plan carries the per-method breakdown.
        """
        host = self._host(spec.graph)
        self._check_nodes(host, spec.source, spec.target)
        validate_sql_style(spec.sql_style)
        return plan_query(spec, lambda: host.statistics,
                          host.store.has_segtable, estimate=estimate,
                          cost_model=self.cost_model(host.backend),
                          segtable_lthd=host.store.segtable_lthd,
                          segtable=host.segtable_stats)

    def explain(self, source: int, target: int, graph: str = DEFAULT_GRAPH,
                method: str = "auto", sql_style: str = NSQL,
                kind: str = KIND_PATH,
                max_hops: Optional[int] = None,
                analyze: bool = False) -> QueryPlan:
        """Return the :class:`QueryPlan` the service would execute, with
        the predicted FEM iteration shape filled in.

        With ``analyze=True`` the query is also *executed* (bypassing the
        result cache, like ``EXPLAIN ANALYZE``) and the returned plan
        carries the full per-phase trace tree in ``plan.trace`` — plan,
        cache lookup, pool checkout, and one span per FEM iteration with
        frontier sizes and SQL statement counts.

        Raises:
            PathNotFoundError: with ``analyze=True``, when the endpoints
                are not connected — exactly as the query itself would.
        """
        spec = QuerySpec(source=source, target=target, graph=graph,
                         method=method, sql_style=sql_style,
                         kind=kind, max_hops=max_hops)
        plan = self.plan(spec, estimate=True)
        if not analyze:
            return plan
        result, _ = self._answer(spec, use_cache=False)
        return replace(plan, trace=result.trace)

    # -- queries -----------------------------------------------------------------

    def shortest_path(self, source: int, target: int,
                      graph: str = DEFAULT_GRAPH, method: str = "auto",
                      sql_style: str = NSQL,
                      max_iterations: Optional[int] = None,
                      use_cache: bool = True,
                      kind: str = KIND_PATH,
                      max_hops: Optional[int] = None,
                      timeout_s: Optional[float] = None) -> PathResult:
        """Answer one path query against a hosted graph.

        ``kind`` selects the question asked (see
        :data:`repro.service.planner.QUERY_KINDS`): ``"path"`` is the
        weighted shortest path; ``"bounded_hop"`` finds a fewest-hops path
        within ``max_hops``; ``"reachability"`` returns a witness path
        with no weighted bookkeeping at all.  The hop kinds report the
        hop count as ``distance``.

        ``timeout_s`` bounds the query end to end — pool wait included,
        checked between FEM iterations — so an expired budget overruns by
        at most one iteration (see :mod:`repro.core.deadline`).

        Raises:
            UnknownGraphError: when ``graph`` is not hosted.
            NodeNotFoundError: when an endpoint is not in the graph.
            InvalidQueryError: for unknown methods/kinds, BSEG without an
                index, or a ``max_hops`` that does not fit the kind.
            PathNotFoundError: when the nodes are not connected (or not
                within ``max_hops`` hops).
            DeadlineExceededError: when ``timeout_s`` ran out first.
        """
        spec = QuerySpec(source=source, target=target, graph=graph,
                         method=method, sql_style=sql_style,
                         max_iterations=max_iterations,
                         kind=kind, max_hops=max_hops,
                         timeout_s=timeout_s)
        result, _ = self._answer(spec, use_cache=use_cache)
        return result

    def one_to_many(self, source: int, targets: Sequence[int],
                    graph: str = DEFAULT_GRAPH, sql_style: str = NSQL,
                    max_iterations: Optional[int] = None,
                    checkout_timeout: Optional[float] = None,
                    timeout_s: Optional[float] = None
                    ) -> OneToManyResult:
        """Answer every ``source -> target`` pair with ONE shared DJ
        frontier expansion (see
        :func:`repro.core.multi.dijkstra_one_to_many`): the public
        one-source, many-target query.

        Each answered pair is bit-identical — distance *and* path — to
        running the pair alone with ``method="DJ"``; unreachable targets
        map to ``None`` instead of raising.  Results bypass the cache.
        ``timeout_s`` bounds the whole shared run, pool wait included.
        """
        host = self._host(graph)
        validate_sql_style(sql_style)
        if not host.graph.has_node(source):
            raise NodeNotFoundError(
                f"node {source} is not in graph {host.name!r}"
            )
        for target in targets:
            if not host.graph.has_node(target):
                raise NodeNotFoundError(
                    f"node {target} is not in graph {host.name!r}"
                )
        assert host.pool is not None
        deadline = deadline_from_timeout(timeout_s)
        with _leased(host.pool, checkout_timeout, deadline) as lease:
            return dijkstra_one_to_many(lease.store, source, list(targets),
                                        sql_style=sql_style,
                                        max_iterations=max_iterations,
                                        deadline=deadline)

    def shortest_path_many(self, queries: Sequence[BatchQuery],
                           graph: str = DEFAULT_GRAPH, method: str = "auto",
                           sql_style: str = NSQL,
                           raise_on_unreachable: bool = False,
                           concurrency: int = 1,
                           checkout_timeout: Optional[float] = None,
                           timeout_s: Optional[float] = None):
        """Answer a batch of queries; see
        :func:`repro.service.batch.execute_batch` for the full contract.

        ``concurrency=1`` (the default) answers the queries one after
        another; ``concurrency=N`` runs the same per-query path across N
        worker threads, growing each touched graph's store
        pool on demand (capability permitting).  Either way identical
        queries execute once — the lowest input position leads — and
        results are in input order.

        ``timeout_s`` sets a default per-query time budget for queries
        that do not already carry one (``QuerySpec.timeout_s`` wins).  A
        query whose budget runs out records its
        :class:`~repro.errors.DeadlineExceededError` positionally in
        ``batch.errors`` — its siblings finish normally — and counts in
        ``batch.stats.deadline_exceeded``.
        """
        from repro.service.batch import execute_batch
        return execute_batch(self, queries, graph=graph, method=method,
                             sql_style=sql_style,
                             raise_on_unreachable=raise_on_unreachable,
                             concurrency=concurrency,
                             checkout_timeout=checkout_timeout,
                             timeout_s=timeout_s)

    # -- cache -------------------------------------------------------------------

    def cache_info(self) -> CacheStats:
        """Counters of the shared result cache."""
        return self._cache.stats()

    # -- observability -----------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The service's metrics registry — every component of this
        service (cache, pools, executor, planner feedback) publishes into
        it, and the serve server renders it at ``GET /metrics``."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The service's tracer (disable with ``tracing=False``)."""
        return self._tracer

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """A JSON-safe snapshot of every metric family this service
        publishes (see :mod:`repro.obs.schema` for the catalog)."""
        return self._registry.snapshot()

    def clear_cache(self) -> None:
        """Drop every cached result."""
        self._cache.clear()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every hosted store pool and drop the cache."""
        if self._closed:
            return
        self._closed = True
        for host in self._hosts.values():
            if host.pool is not None:
                host.pool.close()
            else:  # pragma: no cover - hosts always carry a pool
                host.store.close()
        self._hosts.clear()
        self._cache.clear()

    def __enter__(self) -> "PathService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _host(self, name: str) -> _GraphHost:
        try:
            return self._hosts[name]
        except KeyError:
            hosted = tuple(self._hosts) or "(no graphs hosted)"
            raise UnknownGraphError(
                f"graph {name!r} is not hosted by this service; "
                f"hosted graphs: {hosted}"
            ) from None

    @staticmethod
    def _check_nodes(host: _GraphHost, source: int, target: int) -> None:
        for nid in (source, target):
            if not host.graph.has_node(nid):
                raise NodeNotFoundError(
                    f"node {nid} is not in graph {host.name!r}"
                )

    def _query_key(self, plan: QueryPlan) -> Optional[Tuple[Hashable, ...]]:
        """Result-cache and duplicate-grouping key of a planned query, or
        ``None`` when its answer must never be reused: capped runs may
        return partial work, budgeted runs may be cut short.

        The graph name stays first — :meth:`ResultCache.invalidate_graph`
        matches on it — and the hosting shard's identity is appended last,
        making every cached result and batch group shard-aware (see
        the ``shard_id`` constructor argument).
        """
        spec = plan.spec
        if spec.max_iterations is not None or spec.timeout_s is not None:
            return None
        return (spec.graph, spec.source, spec.target, plan.method,
                spec.sql_style, spec.kind, spec.max_hops, self.shard_id)

    def _answer(self, plan: Union[QueryPlan, QuerySpec], *,
                use_cache: bool = True,
                stats: Optional[BatchStats] = None,
                replay: Optional[Outcome] = None,
                checkout_timeout: Optional[float] = None
                ) -> Tuple[PathResult, bool]:
        """Answer one planned query — the only code that does, for single
        queries, ``explain(analyze=True)`` and every batch member alike —
        through the service's :class:`~repro.service.answer.AnswerPath`
        (cache lookup → replay → run → cache fill), with "run" meaning
        :meth:`_run_timed` on a pooled store.

        Returns ``(result, replayed)``: ``replayed`` is ``True`` when the
        answer came from the result cache or an identical batch member
        rather than from an execution here.  ``stats`` and ``replay``
        come from a batch (see :class:`~repro.service.executor.Executor`):
        the counters to bump, and a duplicate member's leader outcome.

        Opens a ``query`` trace span: the root of a fresh trace when no
        span is ambient (a direct ``shortest_path`` or
        ``explain(analyze=True)`` call, a batch worker), or a child when
        an outer layer — the shard router — already traces this query.
        Whoever owns the root attaches the finished tree to
        ``result.trace``.  A bare :class:`QuerySpec` (a single query) is
        planned inside that span, under a ``plan`` child, so the root
        covers its planning."""
        spec = plan if isinstance(plan, QuerySpec) else plan.spec
        with self._tracer.span("query", graph=spec.graph, source=spec.source,
                               target=spec.target, kind=spec.kind,
                               shard=self.shard_id) as query_span:
            if isinstance(plan, QuerySpec):
                with obs_span("plan") as plan_span:
                    plan = self.plan(spec)
                    plan_span.tag(method=plan.method)
            query_span.tag(method=plan.method)
            # A disabled cache gets no key, so it reports no phantom misses.
            key = (self._query_key(plan)
                   if use_cache and self._cache.capacity else None)

            def run() -> PathResult:
                try:
                    result, queued, ran = self._run_timed(plan,
                                                          checkout_timeout)
                except BaseException as exc:
                    if isinstance(exc, DeadlineExceededError):
                        self._registry.counter(
                            METRIC_DEADLINE_EXCEEDED, {"graph": spec.graph},
                            help="Queries whose time budget ran out "
                                 "mid-flight").inc()
                    # An unreachable pair still ran a full search; a pool
                    # failure happened before any store was obtained, so
                    # nothing ran.
                    if stats is not None and not isinstance(
                            exc, ConcurrencyError):
                        stats.add(executed=1)
                    raise
                if stats is not None:
                    stats.add(executed=1, queue_time=queued, execute_time=ran)
                return result

            result, replayed = self._answers.answer(
                key, run, replay=replay, stats=stats)
            if query_span.trace is not None:
                result.trace = query_span.trace
        return result, replayed

    def _run_timed(self, plan: QueryPlan,
                   checkout_timeout: Optional[float] = None
                   ) -> Tuple[PathResult, float, float]:
        """Run a planned query against a pooled store connection.

        Returns ``(result, queue_seconds, execute_seconds)`` — how long the
        query waited for a store and how long it actually ran.  With an
        all-idle pool the checkout is an uncontended lock acquire.
        """
        spec = plan.spec
        host = self._host(spec.graph)
        deadline = deadline_from_timeout(spec.timeout_s)
        if plan.method in MEMORY_METHODS:
            check_deadline(deadline, f"{plan.method} execution")
            with obs_span("execute", method=plan.method):
                with timer() as ran:
                    try:
                        result = run_in_memory(host.graph, spec.source,
                                               spec.target,
                                               method=plan.method)
                    except PathNotFoundError:
                        self._note_not_found(plan, 0.0, ran.seconds)
                        raise
            self._publish_query(plan, 0.0, ran.seconds)
            return result, 0.0, ran.seconds
        assert host.pool is not None
        with obs_span("execute", method=plan.method,
                      sql_style=spec.sql_style) as exec_span:
            with _leased(host.pool, checkout_timeout, deadline) as lease:
                queued = lease.queue_seconds
                record_span("pool.checkout", queued, graph=spec.graph)
                with timer() as ran:
                    try:
                        if plan.method in (METHOD_HOPS, METHOD_REACH):
                            result = hop_limited_search(
                                lease.store, spec.source, spec.target,
                                sql_style=spec.sql_style,
                                max_hops=spec.max_hops,
                                max_iterations=spec.max_iterations,
                                method=plan.method,
                                deadline=deadline)
                        else:
                            algorithm = RELATIONAL_METHODS[plan.method]
                            result = algorithm(
                                lease.store, spec.source, spec.target,
                                sql_style=spec.sql_style,
                                max_iterations=spec.max_iterations,
                                deadline=deadline)
                    except PathNotFoundError:
                        self._note_not_found(plan, queued, ran.seconds)
                        raise
            executed = ran.seconds
            if result.stats is not None:
                exec_span.tag(statements=result.stats.statements,
                              expansions=result.stats.expansions)
        # Close the planner's loop: every relational execution is a free
        # calibration sample for this backend's cost model.
        self._observe(plan, host, executed)
        if result.stats is not None:
            result.stats.predicted_seconds = plan.predicted_seconds
        self._publish_query(plan, queued, executed)
        return result, queued, executed

    def _note_not_found(self, plan: QueryPlan, queued: float,
                        executed: float) -> None:
        """An unreachable pair still ran a full search: count the query
        (and its latency) plus the dedicated not-found counter."""
        self._registry.counter(
            METRIC_NOT_FOUND,
            help="Queries whose endpoints proved unreachable").inc()
        self._publish_query(plan, queued, executed)

    def _publish_query(self, plan: QueryPlan, queued: float,
                       executed: float) -> None:
        """Publish one executed query into the metrics registry — counts,
        latency/queue histograms, and the planner's predicted-vs-actual
        cost error.  Runs on every execution (single queries and batch
        members alike), so registry histogram counts equal the number of
        queries that actually ran."""
        spec = plan.spec
        registry = self._registry
        # The backend label separates embedded engines from client-server
        # ones in /metrics (in-memory methods run against no store at
        # all).  Aggregations use registry totals, which sum label sets.
        host = self._hosts.get(spec.graph)
        backend = ("memory" if plan.method in MEMORY_METHODS
                   else host.backend if host is not None else "unknown")
        registry.counter(
            METRIC_QUERIES,
            {"graph": spec.graph, "kind": spec.kind, "method": plan.method,
             "backend": backend},
            help="Queries executed against a store (cache hits excluded)",
        ).inc()
        registry.histogram(
            METRIC_QUERY_LATENCY, {"kind": spec.kind},
            help="Store execution seconds per query").observe(executed)
        registry.histogram(
            METRIC_QUERY_QUEUE,
            help="Seconds spent waiting for a pooled store").observe(queued)
        predicted = plan.predicted_seconds
        if predicted is not None and predicted > 0 and executed > 0:
            registry.histogram(
                METRIC_PLANNER_COST_ERROR, {"method": plan.method},
                help="abs(predicted - actual) / actual execution seconds",
            ).observe(abs(predicted - executed) / executed)


__all__ = ["DEFAULT_GRAPH", "PathService", "run_in_memory"]
