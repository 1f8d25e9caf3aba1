"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the package
layout: storage-engine errors, relational-engine errors, and graph/search
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Graph substrate
# ---------------------------------------------------------------------------

class GraphError(ReproError):
    """Base class for graph construction and access errors."""


class NodeNotFoundError(GraphError):
    """A referenced node identifier does not exist in the graph."""


class NegativeWeightError(GraphError):
    """An edge weight is negative; Dijkstra-family algorithms require
    non-negative weights."""


class GraphFormatError(GraphError):
    """An edge-list or CSV file could not be parsed."""


# ---------------------------------------------------------------------------
# Storage engine
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-engine errors."""


class PageError(StorageError):
    """A page-level invariant was violated (overflow, bad slot, bad id)."""


class PageFullError(PageError):
    """A record does not fit into the target page."""


class BufferPoolError(StorageError):
    """Buffer-pool misuse: unpinning an unpinned page, no evictable frame."""


class DiskError(StorageError):
    """The disk manager could not read or write a page."""


class SerializationError(StorageError):
    """A row could not be encoded or decoded against its schema."""


# ---------------------------------------------------------------------------
# Index substrate
# ---------------------------------------------------------------------------

class IndexError_(StorageError):
    """Base class for index errors (named with a trailing underscore to avoid
    shadowing the built-in :class:`IndexError`)."""


class DuplicateKeyError(IndexError_):
    """A unique index rejected a duplicate key."""


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------

class RelationalError(ReproError):
    """Base class for relational-engine errors."""


class SchemaError(RelationalError):
    """A schema definition or row/schema mismatch error."""


class CatalogError(RelationalError):
    """Unknown table/index, or an attempt to redefine an existing one."""


class QueryError(RelationalError):
    """A logical or physical plan is malformed."""


class TypeMismatchError(RelationalError):
    """A value does not match the declared column type."""


class ConstraintViolationError(RelationalError):
    """A primary-key or unique constraint was violated."""


# ---------------------------------------------------------------------------
# Search / FEM core
# ---------------------------------------------------------------------------

class SearchError(ReproError):
    """Base class for path-search errors."""


class PathNotFoundError(SearchError):
    """No path exists between the requested source and target nodes."""


class InvalidQueryError(SearchError):
    """The shortest-path query itself is invalid (unknown node, bad method)."""


# ---------------------------------------------------------------------------
# Service layer (backend registry, sessions)
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for service-layer errors (registry, sessions, batches)."""


class UnknownBackendError(ServiceError, InvalidQueryError):
    """A backend name is not present in the backend registry.

    Also an :class:`InvalidQueryError`: a request naming an unregistered
    backend is malformed like one naming an unknown method.
    """


class DuplicateBackendError(ServiceError):
    """A backend name is already registered (pass ``replace=True`` to
    overwrite it deliberately)."""


class UnknownGraphError(ServiceError):
    """A graph name is not hosted by the :class:`~repro.service.PathService`."""


class DuplicateGraphError(ServiceError):
    """A graph name is already hosted by the service."""


class ConcurrencyError(ServiceError):
    """Base class for store-pool and parallel-execution errors."""


class PoolClosedError(ConcurrencyError):
    """A checkout (or checkin) was attempted against a closed
    :class:`~repro.service.pool.StorePool`."""


class PoolTimeoutError(ConcurrencyError):
    """Waiting for a pooled store connection exceeded the caller's timeout
    (every member was checked out and the pool is at capacity)."""


class StoreCloneUnsupportedError(ConcurrencyError):
    """The store cannot produce a cheap reader clone of itself; the pool
    falls back to rehydrating a fresh replica from the hosted graph."""


class DeadlineExceededError(ServiceError):
    """A query's end-to-end time budget (``timeout_s``) ran out.

    Raised at whichever tier noticed first: waiting for a pooled store
    connection, between FEM iterations, on the serve wire before
    dispatch, or inside the router's failover loop.  The query may have
    done partial work; nothing partial is ever cached or used for
    planner training.  Retrying with a larger ``timeout_s`` (or none) is
    always safe — deadline expiry is a budget verdict, not a statement
    about the data."""


# ---------------------------------------------------------------------------
# Persistent session catalog
# ---------------------------------------------------------------------------

class PersistentCatalogError(ServiceError):
    """Base class for persistent-catalog errors (manifest, warm attach).

    Distinct from :class:`CatalogError`, which belongs to the mini
    relational engine's *table* catalog.
    """


class ManifestError(PersistentCatalogError):
    """The on-disk catalog manifest is missing, unreadable, or of an
    unsupported format version, or an entry references a database file
    that no longer exists."""


class CatalogEntryNotFoundError(PersistentCatalogError):
    """No catalog entry exists under the requested graph name."""


class FingerprintMismatchError(PersistentCatalogError):
    """The graph content on disk no longer matches the catalog entry's
    recorded fingerprint.  The entry is marked stale; re-register the graph
    or run ``python -m repro.catalog rebuild`` to re-derive it from the
    database file."""


class PersistenceUnsupportedError(PersistentCatalogError):
    """The store backend cannot persist (or re-export) its graph data, so
    it cannot participate in the session catalog."""


# ---------------------------------------------------------------------------
# Shard router (cross-service sharding)
# ---------------------------------------------------------------------------

class ShardError(ServiceError):
    """Base class for shard-router errors (routing, specs, rebalancing)."""


class ShardConflictError(ShardError):
    """Two shards claim ownership of the same graph name with *different*
    content fingerprints.  The router refuses to open (or to route) until
    one of the conflicting catalog entries is removed or rebuilt —
    silently picking a shard would answer queries against the wrong graph.

    Identical fingerprints are not a conflict: they are replicas, and the
    router deterministically routes to the first shard that lists one.
    """


class UnknownShardError(ShardError):
    """A shard name is not part of the router (or a graph name is routed
    to no shard at all)."""


class ShardUnavailableError(ShardError):
    """A shard could not be reached over its transport: connection refused,
    request timeout, or the server died mid-request.  Raised only for
    *transport-level* failures — query errors (unknown graph, unreachable
    pair, ...) propagate as themselves — so the router knows the query may
    be retried verbatim on an identical-fingerprint replica."""


class ServerOverloadedError(ShardUnavailableError):
    """A shard server shed this request under admission control: its
    in-flight gauge and wait queue were both full (``max_inflight`` /
    ``max_queue``).  Retryable by construction — the server answered, it
    just refused to take on more work — so it rides the
    :class:`ShardUnavailableError` machinery (client retries, router
    failover).  ``retry_after`` is the server's backoff hint in seconds;
    :class:`~repro.serve.client.ShardClient` sleeps at least that long
    before the next attempt."""

    def __init__(self, message: str = "server overloaded",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RemoteProtocolError(ShardError):
    """A remote shard answered, but with a payload this client cannot
    interpret: malformed JSON, a missing field, or an error type that does
    not map back onto the :mod:`repro.errors` hierarchy.  Distinct from
    :class:`ShardUnavailableError` because retrying will not help — the
    two ends disagree about the protocol."""


# ---------------------------------------------------------------------------
# Client-server store backends (DB-API / PostgreSQL)
# ---------------------------------------------------------------------------

class StoreBackendError(ServiceError):
    """Base class for errors raised by client-server store backends (the
    DB-API family: PostgreSQL, the stdlib fallback server)."""


class BackendConnectionError(StoreBackendError, ShardUnavailableError):
    """The database *server* behind a store could not be reached — refused
    connection, dropped socket, server shutdown mid-statement.

    Also a :class:`ShardUnavailableError`: a shard whose backing database
    server is down is, from the router's point of view, an unavailable
    shard, so replica failover and :class:`~repro.serve.client.ShardClient`
    retry policies treat both identically."""


class BackendOperationalError(StoreBackendError):
    """The database server was reachable but rejected a statement (SQL
    error, constraint violation, permission problem).  Never retried —
    the statement itself is at fault, not the transport."""


class MissingDriverError(StoreBackendError):
    """The DSN requires a database driver that is not importable in this
    environment (e.g. ``postgresql://`` without ``psycopg`` installed).
    Hermetic environments use the ``fallback://`` stdlib server instead."""


class InvalidDSNError(StoreBackendError):
    """A connection string could not be parsed, or its scheme maps to no
    known driver."""
