"""The SQL graph store: Listings 2-4 over any PEP-249 (DB-API) connection.

This is the paper's actual deployment story: the FEM operators running as
plain SQL inside an *unmodified RDBMS*.  The statement texts are written
once, here, and run on whichever engine a *driver* connects to::

    service.add_graph("social", graph, backend="dbapi",
                      db_path="postgresql://repro@db.example.com/graphs")
    service.add_graph("roads", graph, backend="dbapi",
                      db_path="fallback://127.0.0.1:5433/")
    service.add_graph("local", graph, backend="sqlite", db_path="local.db")

A DSN's scheme picks a *wire driver*: ``postgresql://`` (and
``postgres://``) dials PostgreSQL through ``psycopg`` (see
:mod:`repro.store.postgres`), ``fallback://`` dials the pure-stdlib
socket server of :mod:`repro.store.fallback_server` so tests and CI
exercise the full client-server path with zero third-party dependencies.
``backend="sqlite"`` is this same store over the in-process ``sqlite3``
driver of :mod:`repro.core.store.sqlite` — no wire, no DSN, no table
prefix.  Everything above the driver — statement texts, capability
surface, error mapping — is shared, so conformance results on one
engine transfer directly to the others.

Capability surface, implemented natively rather than inherited:

* ``TVisited`` and the TSQL scratch tables are server-side ``TEMP``
  tables — connection-private on both engines — while ``TNodes`` /
  ``TEdges`` / the SegTable are shared durable relations.  That is what
  lets ``supports_concurrent_readers`` map the
  :class:`~repro.service.pool.StorePool` onto real server connections.
* :meth:`max_connections` reports the server's (or the DSN's
  ``pool_size``/``max_overflow``) connection cap so the pool can never
  exhaust the server.
* Persistence (:meth:`content_fingerprint`, :meth:`adopt_segtable`, a
  durable metadata relation recording the SegTable's ``lthd``) makes
  catalog warm starts — and even catalog-*less* adoption of a populated
  server database — rebuild nothing.
* Relocation (:meth:`export_database`) snapshots the tables into a
  local SQLite file that opens under ``backend="sqlite"`` unchanged.
* Driver errors map onto :mod:`repro.errors`:
  :class:`~repro.errors.BackendConnectionError` (a
  :class:`~repro.errors.ShardUnavailableError`, so router failover and
  ``ShardClient`` retries treat a dead database server exactly like a
  dead shard) vs :class:`~repro.errors.BackendOperationalError` (the
  statement's fault; never retried).

Every DSN-addressed store namespaces its shared relations with the
DSN's ``table_prefix`` (default ``repro_``), so several stores can share
one server database without touching each other.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)
from urllib.parse import parse_qs, urlencode, urlsplit, urlunsplit

from repro.core.directions import Direction, INFINITY
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import OPERATOR_E, OPERATOR_F, OPERATOR_M
from repro.core.store.base import GraphStore, IndexMode
from repro.core.store.registry import create_store, is_dsn, register_backend
from repro.errors import (
    BackendConnectionError,
    BackendOperationalError,
    InvalidDSNError,
    InvalidQueryError,
    PersistenceUnsupportedError,
    StoreCloneUnsupportedError,
)
from repro.graph.fingerprint import fingerprint_content
from repro.graph.model import Graph
from repro.store import fallback_server

_INF = INFINITY

DEFAULT_TABLE_PREFIX = "repro_"

# A memoized statement shape: one text, or the TSQL (create, update,
# insert) triple.
_SQLText = Any


# ---------------------------------------------------------------------------
# DSN
# ---------------------------------------------------------------------------

class ParsedDSN:
    """A connection string split into driver address + repro options.

    The repro-specific query parameters (``table_prefix``, ``pool_size``,
    ``max_overflow``) are stripped from :attr:`driver_dsn`, which is what
    the wire driver actually dials.
    """

    REPRO_PARAMS = ("table_prefix", "pool_size", "max_overflow")

    def __init__(self, dsn: str) -> None:
        if not is_dsn(dsn):
            raise InvalidDSNError(
                f"{dsn!r} is not a connection string; the dbapi backend is "
                f"addressed by DSN (e.g. postgresql://user@host/db or "
                f"fallback://127.0.0.1:5433/)"
            )
        self.dsn = dsn
        parts = urlsplit(dsn)
        self.scheme = parts.scheme.lower()
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port
        query = parse_qs(parts.query, keep_blank_values=True)
        self.table_prefix = query.get("table_prefix",
                                      [DEFAULT_TABLE_PREFIX])[0]
        if not self._valid_identifier(self.table_prefix):
            raise InvalidDSNError(
                f"table_prefix {self.table_prefix!r} is not a plain SQL "
                f"identifier prefix ([A-Za-z_][A-Za-z0-9_]*)"
            )
        try:
            pool_size = query.get("pool_size", [None])[0]
            overflow = query.get("max_overflow", ["0"])[0]
            self.pool_size = None if pool_size is None else int(pool_size)
            self.max_overflow = int(overflow)
        except ValueError as exc:
            raise InvalidDSNError(
                f"pool_size/max_overflow in {dsn!r} must be integers"
            ) from exc
        if self.pool_size is not None and self.pool_size < 1:
            raise InvalidDSNError("pool_size must be >= 1")
        stripped = {key: values for key, values in query.items()
                    if key not in self.REPRO_PARAMS}
        self.driver_dsn = urlunsplit(parts._replace(
            query=urlencode(stripped, doseq=True)))

    @staticmethod
    def _valid_identifier(prefix: str) -> bool:
        return bool(prefix) and prefix.isidentifier() and prefix.isascii()

    def connection_limit(self) -> Optional[int]:
        """The DSN-declared handle cap (``pool_size + max_overflow``), or
        ``None`` when the DSN does not declare one."""
        if self.pool_size is None:
            return None
        return self.pool_size + self.max_overflow

    def with_table_prefix(self, prefix: str) -> str:
        """This DSN with its ``table_prefix`` replaced by ``prefix``."""
        parts = urlsplit(self.dsn)
        query = parse_qs(parts.query, keep_blank_values=True)
        query["table_prefix"] = [prefix]
        return urlunsplit(parts._replace(query=urlencode(query, doseq=True)))


# ---------------------------------------------------------------------------
# Dialects and wire drivers
# ---------------------------------------------------------------------------

class Dialect:
    """The (small) SQL surface where PostgreSQL and SQLite differ.

    Everything else — window functions, ``INSERT ... ON CONFLICT DO
    UPDATE``, correlated updates, ``CREATE TEMP TABLE`` — is written once
    in portable form; derived tables always carry an ``AS`` alias because
    PostgreSQL requires one.
    """

    def __init__(self, name: str, placeholder: str, table_exists_sql: str,
                 int_type: str, real_type: str) -> None:
        self.name = name
        self.placeholder = placeholder
        self.table_exists_sql = table_exists_sql
        self.int_type = int_type
        self.real_type = real_type


# INTEGER (not BIGINT) makes ``nid INTEGER PRIMARY KEY`` an alias of the
# rowid, so TVisited and TNodes are their own primary-key index.  The
# table probe ignores case: database files written before the stores
# merged spell the relations ``TNodes``/``TEdges``/...
SQLITE_DIALECT = Dialect(
    name="sqlite",
    placeholder="?",
    table_exists_sql=("SELECT count(*) FROM sqlite_master "
                      "WHERE type='table' AND name = ? COLLATE NOCASE"),
    int_type="INTEGER",
    real_type="REAL",
)

POSTGRES_DIALECT = Dialect(
    name="postgres",
    placeholder="%s",
    table_exists_sql=("SELECT count(*) FROM information_schema.tables "
                      "WHERE table_schema = current_schema() "
                      "AND table_name = %s"),
    int_type="BIGINT",
    real_type="DOUBLE PRECISION",
)


class WireDriver:
    """What connects the store to an engine: how to open PEP-249
    connections, which dialect they speak, and which driver exceptions
    mean *transport* vs *statement* failure."""

    dialect: Dialect = SQLITE_DIALECT
    connection_exceptions: Tuple[type, ...] = ()
    programming_exceptions: Tuple[type, ...] = ()

    shared: bool = True
    """Whether a second :meth:`connect` reaches the same database — what
    cloning, persistence and relocation all rest on.  Only a private
    in-process database (SQLite's ``:memory:``) says ``False``."""

    def connect(self) -> Any:
        raise NotImplementedError

    def server_limit(self, connection: Any) -> Optional[int]:
        """The server-advertised connection cap, when discoverable."""
        return None

    def backup(self, connection: Any, dest_path: str) -> bool:
        """Snapshot the whole database into the SQLite file ``dest_path``
        engine-side, when the engine can; ``False`` makes the store copy
        the relations row by row instead."""
        return False

    def describe(self) -> str:
        return type(self).__name__


class FallbackDriver(WireDriver):
    """Driver for ``fallback://host:port/`` — the stdlib wire server."""

    dialect = SQLITE_DIALECT
    connection_exceptions = (fallback_server.InterfaceError,
                             fallback_server.OperationalError,
                             ConnectionError, OSError)
    programming_exceptions = (fallback_server.ProgrammingError,)

    def __init__(self, parsed: ParsedDSN) -> None:
        self.host = parsed.host
        self.port = parsed.port or 5433

    def connect(self) -> fallback_server.FallbackConnection:
        return fallback_server.connect(self.host, self.port)

    def server_limit(self,
                     connection: fallback_server.FallbackConnection
                     ) -> Optional[int]:
        return connection.server_max_connections

    def describe(self) -> str:
        return f"fallback server at {self.host}:{self.port}"


_DRIVER_BUILDERS: Dict[str, Callable[[ParsedDSN], WireDriver]] = {}


def register_driver(scheme: str,
                    builder: Callable[[ParsedDSN], WireDriver]) -> None:
    """Map a DSN ``scheme`` to a wire-driver builder.

    :mod:`repro.store.postgres` registers ``postgresql``/``postgres``
    through this at import time; third-party engines can do the same.
    """
    _DRIVER_BUILDERS[scheme.lower()] = builder


register_driver("fallback", FallbackDriver)


def driver_for(parsed: ParsedDSN) -> WireDriver:
    """Build the wire driver a parsed DSN's scheme maps to."""
    builder = _DRIVER_BUILDERS.get(parsed.scheme)
    if builder is None:
        known = tuple(sorted(_DRIVER_BUILDERS))
        raise InvalidDSNError(
            f"no driver for DSN scheme {parsed.scheme!r}; known schemes: "
            f"{known}"
        )
    return builder(parsed)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class DBAPIGraphStore(GraphStore):
    """Graph store speaking PEP-249 to a relational database.

    Shared relations are prefix-namespaced lower-case tables
    (``{prefix}tnodes``, ``{prefix}tedges``, ``{prefix}toutsegs``,
    ``{prefix}tinsegs``, plus ``{prefix}meta`` recording the SegTable's
    ``lthd`` durably); per-query state (``tvisited``, TSQL scratch) lives
    in ``TEMP`` tables, private to this store's connection.
    :meth:`clone` therefore just opens another connection — no data
    movement — which is what makes pooled parallel batches real
    concurrent sessions against the same database.

    A store is addressed by DSN, whose scheme resolves the driver — or
    is handed a ready-made in-process ``driver``, in which case there is
    no DSN: no table prefix and no declared connection cap.
    """

    backend_name = "dbapi"
    supports_concurrent_readers = True

    def __init__(self, dsn: str, parsed: Optional[ParsedDSN] = None,
                 driver: Optional[WireDriver] = None) -> None:
        super().__init__()
        self.path = dsn
        if driver is None:
            parsed = parsed or ParsedDSN(dsn)
            driver = driver_for(parsed)
        self.parsed = parsed
        self.driver = driver
        self.dialect = self.driver.dialect
        self._p = self.dialect.placeholder
        self.index_mode = IndexMode.CLUSTERED
        prefix = parsed.table_prefix if parsed else ""
        self._tnodes = f"{prefix}tnodes"
        self._tedges = f"{prefix}tedges"
        self._toutsegs = f"{prefix}toutsegs"
        self._tinsegs = f"{prefix}tinsegs"
        self._meta = f"{prefix}meta"
        self._sql_cache: Dict[Tuple[Hashable, ...], _SQLText] = {}
        self._server_limit: Optional[int] = None
        self._closed = False
        try:
            self.connection = self.driver.connect()
        except self.driver.connection_exceptions as exc:
            raise BackendConnectionError(
                f"cannot connect to {self.driver.describe()}: {exc}"
            ) from exc
        self._server_limit = self.driver.server_limit(self.connection)
        self._create_visited_table()

    # -------------------------------------------------------------- execution

    def _run(self, sql: str, parameters: Sequence[object] = (),
             many: bool = False) -> Any:
        """Execute one statement, mapping driver errors onto the repro
        hierarchy: transport failures are retryable
        :class:`BackendConnectionError`, statement rejections are
        :class:`BackendOperationalError`."""
        try:
            cursor = self.connection.cursor()
            if many:
                cursor.executemany(sql, parameters)
            else:
                cursor.execute(sql, tuple(parameters))
            return cursor
        except self.driver.programming_exceptions as exc:
            raise BackendOperationalError(
                f"{self.driver.describe()} rejected a statement: {exc}"
            ) from exc
        except self.driver.connection_exceptions as exc:
            raise BackendConnectionError(
                f"lost connection to {self.driver.describe()}: {exc}"
            ) from exc

    def _execute(self, sql: str, parameters: Sequence[object] = ()) -> Any:
        self.stats.record_statement()
        return self._run(sql, parameters)

    def _execute_unlogged(self, sql: str,
                          parameters: Sequence[object] = ()) -> Any:
        return self._run(sql, parameters)

    def _scalar(self, cursor: Any) -> Any:
        row = cursor.fetchone()
        return None if row is None else row[0]

    def _commit(self) -> None:
        try:
            self.connection.commit()
        except self.driver.connection_exceptions as exc:
            raise BackendConnectionError(
                f"lost connection to {self.driver.describe()}: {exc}"
            ) from exc

    def _cached_sql(self, key: Tuple[Hashable, ...],
                    build: Callable[[], _SQLText]) -> _SQLText:
        cached = self._sql_cache.get(key)
        if cached is None:
            cached = build()
            self._sql_cache[key] = cached
        return cached

    def _table_exists(self, name: str) -> bool:
        cursor = self._run(self.dialect.table_exists_sql, (name,))
        return bool(self._scalar(cursor))

    def _seg_relation(self, direction: Direction) -> str:
        return self._toutsegs if direction.is_forward else self._tinsegs

    # ----------------------------------------------------------- capabilities

    def max_connections(self) -> Optional[int]:
        """Tightest of the DSN's declared ``pool_size + max_overflow`` and
        the server's own connection cap (the fallback server's hello
        frame; PostgreSQL's ``max_connections`` setting)."""
        declared = self.parsed.connection_limit() if self.parsed else None
        bounds = [bound for bound in (declared, self._server_limit)
                  if bound is not None]
        return min(bounds) if bounds else None

    def supports_clone(self) -> bool:
        """A clone is just one more connection to a shared database; a
        private in-memory one has nothing to point it at."""
        return self.driver.shared

    def clone(self) -> "DBAPIGraphStore":
        """Open a fresh connection over the same database.

        The clone sees the shared (committed) graph and SegTable
        relations and gets its own private ``tvisited`` temp table; no
        bulk load happens.
        """
        if not self.driver.shared:
            raise StoreCloneUnsupportedError(
                f"{self.driver.describe()} cannot share its database with "
                f"a second connection; the pool will rehydrate a replica"
            )
        replica = type(self)(self.path)
        replica.index_mode = self.index_mode
        replica.has_segtable = self.has_segtable
        replica.segtable_lthd = self.segtable_lthd
        return replica

    def quiesce(self) -> None:
        """Commit the (possibly implicit) transaction so an idle pooled
        connection holds no server-side locks."""
        self._commit()

    # ----------------------------------------------------------- persistence

    def supports_persistence(self) -> bool:
        """Tables in a shared database (a server's, a file's) survive this
        process; a private in-memory database's do not."""
        return self.driver.shared

    def has_persistent_tables(self) -> bool:
        return (self._table_exists(self._tnodes)
                and self._table_exists(self._tedges))

    def has_persistent_segtable(self) -> bool:
        return (self._table_exists(self._toutsegs)
                and self._table_exists(self._tinsegs))

    def adopt_segtable(self, lthd: float) -> None:
        if not self.has_persistent_segtable():
            raise PersistenceUnsupportedError(
                f"{self.path!r} holds no {self._toutsegs}/{self._tinsegs} "
                f"tables to adopt; build the SegTable before cataloging it"
            )
        self.has_segtable = True
        self.segtable_lthd = lthd

    def persistent_segtable_lthd(self) -> Optional[float]:
        """The durably recorded ``lthd`` (written by :meth:`seg_finish` /
        :meth:`load_segtable` into the metadata relation), enabling
        catalog-less adoption of a populated server database."""
        if not self._table_exists(self._meta):
            return None
        cursor = self._run(
            f"SELECT meta_value FROM {self._meta} "
            f"WHERE meta_key = {self._p}", ("segtable_lthd",))
        value = self._scalar(cursor)
        return None if value is None else float(value)

    def export_graph(self) -> Graph:
        self._require_persistent_tables()
        graph = Graph(directed=True)
        for (nid,) in self._run(
                f"SELECT nid FROM {self._tnodes}").fetchall():
            graph.add_node(int(nid))
        for fid, tid, cost in self._run(
                f"SELECT fid, tid, cost FROM {self._tedges}").fetchall():
            graph.add_edge(int(fid), int(tid), float(cost))
        return graph

    def content_fingerprint(self) -> str:
        self._require_persistent_tables()
        nodes = [int(row[0]) for row in self._run(
            f"SELECT nid FROM {self._tnodes}").fetchall()]
        edges = self._run(
            f"SELECT fid, tid, cost FROM {self._tedges}").fetchall()
        return fingerprint_content(nodes, edges)

    def supports_relocation(self) -> bool:
        """A shared database can be snapshotted into a local SQLite file
        (the portable interchange format of :meth:`export_database`)."""
        return self.driver.shared

    def export_database(self, dest_path: str) -> None:
        """Snapshot the graph (and any SegTable) into the SQLite file
        ``dest_path``, which opens directly under ``backend="sqlite"``
        and warm-attaches without any rebuild: the engine's own online
        backup where the driver has one (consistent even while other
        connections hold the source open), else a reload of the exported
        relations — the client-server analogue of a ``pg_dump``.  Shard
        rebalancing uses it to ship a graph onto file-backed storage.
        """
        if not self.driver.shared:
            raise PersistenceUnsupportedError(
                f"{self.driver.describe()} has no database to relocate; "
                f"only db_path- or DSN-backed stores can export_database"
            )
        self._require_persistent_tables()
        self._commit()  # snapshot committed state only
        if self.driver.backup(self.connection, dest_path):
            return
        dest = create_store("sqlite", path=dest_path)
        try:
            dest.load_graph(self.export_graph(), self.index_mode)
            if self.has_persistent_segtable():
                dest.load_segtable(*self.seg_rows(),
                                   self.persistent_segtable_lthd(),
                                   self.index_mode)
        finally:
            dest.close()

    def _require_persistent_tables(self) -> None:
        if not self.has_persistent_tables():
            raise PersistenceUnsupportedError(
                f"{self.path!r} holds no {self._tnodes}/{self._tedges} "
                f"tables; it is not a loaded graph database"
            )

    # -------------------------------------------------------------- lifecycle

    def load_graph(self, graph: Graph,
                   index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create and populate the prefixed ``tnodes`` / ``tedges``."""
        self.index_mode = IndexMode.validate(index_mode)
        p = self._p
        integer, real = self.dialect.int_type, self.dialect.real_type
        self._execute_unlogged(f"DROP TABLE IF EXISTS {self._tnodes}")
        self._execute_unlogged(f"DROP TABLE IF EXISTS {self._tedges}")
        self._execute_unlogged(
            f"CREATE TABLE {self._tnodes} (nid {integer} PRIMARY KEY)")
        self._execute_unlogged(
            f"CREATE TABLE {self._tedges} "
            f"(fid {integer}, tid {integer}, cost {real})")
        node_rows = [(nid,) for nid in sorted(graph.nodes())]
        if node_rows:
            self._run(f"INSERT INTO {self._tnodes} (nid) VALUES ({p})",
                      node_rows, many=True)
        edge_rows = [(edge.fid, edge.tid, edge.cost)
                     for edge in graph.edges()]
        if edge_rows:
            self._run(
                f"INSERT INTO {self._tedges} (fid, tid, cost) "
                f"VALUES ({p}, {p}, {p})", edge_rows, many=True)
        if self.index_mode != IndexMode.NONE:
            self._execute_unlogged(
                f"CREATE INDEX ix_{self._tedges}_fid ON {self._tedges} (fid)")
            self._execute_unlogged(
                f"CREATE INDEX ix_{self._tedges}_tid ON {self._tedges} (tid)")
        self._ensure_meta_table()
        self._create_visited_table()
        self._commit()

    def _ensure_meta_table(self) -> None:
        self._execute_unlogged(
            f"CREATE TABLE IF NOT EXISTS {self._meta} "
            f"(meta_key TEXT PRIMARY KEY, meta_value TEXT)")

    def _record_meta(self, key: str, value: str) -> None:
        self._ensure_meta_table()
        p = self._p
        self._execute_unlogged(
            f"INSERT INTO {self._meta} (meta_key, meta_value) "
            f"VALUES ({p}, {p}) "
            f"ON CONFLICT (meta_key) DO UPDATE SET "
            f"meta_value = excluded.meta_value",
            (key, value))

    def _create_visited_table(self) -> None:
        # TEMP: session-private on PostgreSQL, connection-private on
        # SQLite (where it also shadows any same-named table in the shared
        # file) — either way, pooled clones over one database never see
        # each other's search state.
        integer, real = self.dialect.int_type, self.dialect.real_type
        self._execute_unlogged(
            f"""
            CREATE TEMP TABLE IF NOT EXISTS tvisited (
                nid {integer} PRIMARY KEY,
                d2s {real}, p2s {integer}, f INTEGER,
                d2t {real}, p2t {integer}, b INTEGER
            )
            """
        )

    def load_segtable(self, out_segments: Sequence[Dict[str, object]],
                      in_segments: Sequence[Dict[str, object]],
                      lthd: float,
                      index_mode: str = IndexMode.CLUSTERED) -> None:
        p = self._p

        def fill(name: str, outward: bool) -> int:
            seg_rows = [(row["fid"], row["tid"], row["pid"], row["cost"])
                        for row in (out_segments if outward else in_segments)]
            if seg_rows:
                self._run(
                    f"INSERT INTO {name} (fid, tid, pid, cost) "
                    f"VALUES ({p}, {p}, {p}, {p})", seg_rows, many=True)
            return len(seg_rows)

        self._write_segtables(fill, index_mode)
        self._publish_segtable(lthd)

    def _write_segtables(self, fill: Callable[[str, bool], int],
                         index_mode: str) -> int:
        """Recreate TOutSegs and TInSegs, ``fill(name, outward)`` each,
        and build their ``fid`` indexes once the rows are in.  Returns the
        TOutSegs row count."""
        index_mode = IndexMode.validate(index_mode)
        integer, real = self.dialect.int_type, self.dialect.real_type
        names = (self._toutsegs, self._tinsegs)
        stored = []
        for name, outward in zip(names, (True, False)):
            self._execute_unlogged(f"DROP TABLE IF EXISTS {name}")
            self._execute_unlogged(
                f"CREATE TABLE {name} (fid {integer}, tid {integer}, "
                f"pid {integer}, cost {real})")
            stored.append(fill(name, outward))
        if index_mode != IndexMode.NONE:
            for name in names:
                self._execute_unlogged(
                    f"CREATE INDEX ix_{name}_fid ON {name} (fid)")
        return stored[0]

    def _publish_segtable(self, lthd: float) -> None:
        """Record ``lthd`` and commit: pooled reader clones are separate
        sessions and only see committed data."""
        self._record_meta("segtable_lthd", repr(float(lthd)))
        self._commit()
        self.has_segtable = True
        self.segtable_lthd = lthd

    def segment_counts(self) -> Dict[str, int]:
        counts = {"out": 0, "in": 0}
        for key, name in (("out", self._toutsegs), ("in", self._tinsegs)):
            if self._table_exists(name):
                counts[key] = int(self._scalar(self._run(
                    f"SELECT count(*) FROM {name}")))
        return counts

    def close(self) -> None:
        """Close the connection (temp state dies with the session; shared
        tables stay in the database)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.connection.close()
        except self.driver.connection_exceptions:
            pass  # server already gone; nothing left to release

    def destroy(self) -> None:
        """Drop this store's (prefixed) tables, then close.

        This is the cleanup path for test fixtures sharing one server
        database: it removes exactly this
        prefix's namespace and nothing else.
        """
        try:
            for name in (self._tnodes, self._tedges, self._toutsegs,
                         self._tinsegs, self._meta):
                self._execute_unlogged(f"DROP TABLE IF EXISTS {name}")
            self._commit()
        except BackendConnectionError:
            pass  # the server died first; its tables are its problem
        finally:
            self.close()

    # ---------------------------------------------------------- TVisited setup

    def reset_visited(self) -> None:
        self._create_visited_table()
        self._execute_unlogged("DELETE FROM tvisited")

    def insert_visited(self, rows: Sequence[Dict[str, object]]) -> None:
        self.stats.record_statement()
        p = self._p
        self._run(
            f"INSERT INTO tvisited (nid, d2s, p2s, f, d2t, p2t, b) "
            f"VALUES ({p}, {p}, {p}, {p}, {p}, {p}, {p})",
            [
                (row["nid"], row.get("d2s", _INF), row.get("p2s"),
                 row.get("f", 0), row.get("d2t", _INF), row.get("p2t"),
                 row.get("b", 0))
                for row in rows
            ],
            many=True,
        )

    # ---------------------------------------------------- statistics statements

    def top1_min_unfinalized(self, direction: Direction) -> Optional[int]:
        sql = self._cached_sql(("top1", direction.is_forward), lambda: (
            f"SELECT nid FROM tvisited WHERE {direction.flag_col} = 0 AND "
            f"{direction.dist_col} < {self._p} "
            f"ORDER BY {direction.dist_col} LIMIT 1"
        ))
        value = self._scalar(self._execute(sql, (_INF,)))
        return None if value is None else int(value)

    def min_unfinalized_distance(self, direction: Direction) -> Optional[float]:
        sql = self._cached_sql(("min_unfin", direction.is_forward), lambda: (
            f"SELECT min({direction.dist_col}) FROM tvisited "
            f"WHERE {direction.flag_col} = 0"
        ))
        value = self._scalar(self._execute(sql))
        if value is None or value >= _INF:
            return None
        return float(value)

    def count_unfinalized(self, direction: Direction) -> int:
        sql = self._cached_sql(("count_unfin", direction.is_forward), lambda: (
            f"SELECT count(*) FROM tvisited WHERE {direction.flag_col} = 0 "
            f"AND {direction.dist_col} < {self._p}"
        ))
        return int(self._scalar(self._execute(sql, (_INF,))))

    def min_total_cost(self) -> float:
        value = self._scalar(self._execute(
            "SELECT min(d2s + d2t) FROM tvisited"))
        return INFINITY if value is None else float(value)

    def meeting_node(self, min_cost: float) -> Optional[int]:
        sql = self._cached_sql(("meeting",), lambda: (
            f"SELECT nid FROM tvisited "
            f"WHERE abs(d2s + d2t - {self._p}) < 1e-9 LIMIT 1"
        ))
        value = self._scalar(self._execute(sql, (min_cost,)))
        return None if value is None else int(value)

    def is_finalized(self, nid: int, direction: Direction) -> bool:
        sql = self._cached_sql(("is_final", direction.is_forward), lambda: (
            f"SELECT 1 FROM tvisited WHERE nid = {self._p} AND "
            f"{direction.flag_col} = 1"
        ))
        return self._execute(sql, (nid,)).fetchone() is not None

    def visited_count(self) -> int:
        return int(self._scalar(self._execute_unlogged(
            "SELECT count(*) FROM tvisited")))

    def visited_rows(self) -> List[Dict[str, object]]:
        columns = ["nid", "d2s", "p2s", "f", "d2t", "p2t", "b"]
        rows = self._execute_unlogged(
            "SELECT nid, d2s, p2s, f, d2t, p2t, b FROM tvisited").fetchall()
        return [dict(zip(columns, row)) for row in rows]

    # ---------------------------------------------------- F-operator statements

    def finalize_node(self, nid: int, direction: Direction) -> None:
        sql = self._cached_sql(("final_node", direction.is_forward), lambda: (
            f"UPDATE tvisited SET {direction.flag_col} = 1 "
            f"WHERE nid = {self._p}"
        ))
        with self.stats.operator(OPERATOR_F):
            self._execute(sql, (nid,))

    def select_frontier_set(self, direction: Direction,
                            max_distance: float) -> int:
        def build() -> str:
            dist, flag = direction.dist_col, direction.flag_col
            p = self._p
            return f"""
                UPDATE tvisited SET {flag} = 2
                WHERE {flag} = 0 AND {dist} < {p}
                  AND ({dist} <= {p} OR {dist} = (
                        SELECT min(inner_v.{dist}) FROM tvisited inner_v
                        WHERE inner_v.{flag} = 0))
            """
        sql = self._cached_sql(("sel_frontier", direction.is_forward), build)
        with self.stats.operator(OPERATOR_F):
            cursor = self._execute(sql, (_INF, max_distance))
            return max(0, cursor.rowcount)

    def finalize_frontier(self, direction: Direction) -> int:
        sql = self._cached_sql(("final_frontier", direction.is_forward),
                               lambda: (f"UPDATE tvisited SET "
                                        f"{direction.flag_col} = 1 WHERE "
                                        f"{direction.flag_col} = 2"))
        with self.stats.operator(OPERATOR_F):
            cursor = self._execute(sql)
            return max(0, cursor.rowcount)

    # ------------------------------------------------------------ E+M operators

    def expand(self, direction: Direction, mid: Optional[int] = None,
               use_segtable: bool = False,
               prune_lb: Optional[float] = None,
               prune_min_cost: Optional[float] = None) -> int:
        if use_segtable and not self.has_segtable:
            raise InvalidQueryError(
                "SegTable expansion requested but no SegTable loaded")
        node_mode = mid is not None
        pruned = prune_lb is not None and prune_min_cost is not None
        parameters: List[object] = []
        if node_mode:
            parameters.append(mid)
        parameters.append(_INF)
        if pruned:
            parameters.extend([prune_lb, prune_min_cost])
        style = validate_sql_style(self.sql_style)
        shape = (direction.is_forward, node_mode, use_segtable, pruned)
        if style == NSQL:
            affected = self._expand_nsql(direction, shape, parameters)
        else:
            affected = self._expand_tsql(direction, shape, parameters)
        self.stats.affected_rows += affected
        return affected

    def _candidate_sql_text(self, direction: Direction, node_mode: bool,
                            use_segtable: bool, pruned: bool) -> str:
        """The inner SELECT producing (nid, cost, pred) candidates.

        Every expansion join is written ``<work> CROSS JOIN <relation> e
        WHERE <key match>``: SQLite never reorders a ``CROSS JOIN``, so the
        frontier drives the join and ``e`` is probed by its index instead
        of scanned (which the enclosing window function or ``agg`` join
        would otherwise invite).  PostgreSQL plans it as an inner join.

        Parameter slots, in order: ``[mid?] [inf] [prune_lb prune_min]?``.
        """
        dist, flag = direction.dist_col, direction.flag_col
        p = self._p
        if use_segtable:
            relation, key_col, other_col = (
                self._seg_relation(direction), "fid", "tid")
            pred_expr = "e.pid"
        else:
            relation = self._tedges
            key_col, other_col = direction.edge_key, direction.edge_other
            pred_expr = "q.nid"
        frontier_clause = f"q.nid = {p}" if node_mode else f"q.{flag} = 2"
        prune_clause = (f"AND q.{dist} + e.cost + {p} <= {p}"
                        if pruned else "")
        return f"""
            SELECT e.{other_col} AS nid, q.{dist} + e.cost AS cost,
                   {pred_expr} AS pred
            FROM tvisited q CROSS JOIN {relation} e
            WHERE q.nid = e.{key_col} AND {frontier_clause}
              AND q.{dist} < {p} {prune_clause}
        """

    def _expand_nsql(self, direction: Direction,
                     shape: Tuple[Hashable, ...],
                     parameters: List[object]) -> int:
        """Window-function dedup + upsert, with the ``AS`` aliases
        PostgreSQL requires on derived tables."""
        def build() -> str:
            candidate_sql = self._candidate_sql_text(direction, *shape[1:])
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            return f"""
                INSERT INTO tvisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT nid, cost, pred, 0, {self._p}, NULL, 0 FROM (
                    SELECT nid, cost, pred,
                           row_number() OVER (PARTITION BY nid ORDER BY cost)
                               AS rownum
                    FROM ({candidate_sql}) AS cand
                ) AS ranked WHERE rownum = 1
                ON CONFLICT (nid) DO UPDATE SET
                    {dist} = excluded.{dist},
                    {pred} = excluded.{pred},
                    {flag} = 0
                WHERE tvisited.{dist} > excluded.{dist}
            """

        sql = self._cached_sql(("expand", NSQL) + shape, build)
        with self.stats.operator(OPERATOR_E):
            cursor = self._execute(sql, [_INF] + parameters)
            return max(0, cursor.rowcount)

    def _expand_tsql(self, direction: Direction,
                     shape: Tuple[Hashable, ...],
                     parameters: List[object]) -> int:
        """GROUP BY dedup into a temp table, then UPDATE + INSERT.

        The candidates are indexed on ``nid`` and drive the UPDATE, so M
        probes ``tvisited`` and the candidates by key instead of scanning
        either one per row."""
        def build() -> Tuple[str, str, str]:
            candidate_sql = self._candidate_sql_text(direction, *shape[1:])
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            create = f"""
                CREATE TEMP TABLE tmp_expanded AS
                SELECT cand.nid AS nid, cand.cost AS cost,
                       min(cand.pred) AS pred
                FROM ({candidate_sql}) AS cand
                JOIN (
                    SELECT nid, min(cost) AS mincost
                    FROM ({candidate_sql}) AS inner_cand
                    GROUP BY nid
                ) AS agg ON cand.nid = agg.nid AND cand.cost = agg.mincost
                GROUP BY cand.nid, cand.cost
            """
            update = f"""
                UPDATE tvisited SET
                    {dist} = (SELECT cost FROM tmp_expanded t
                              WHERE t.nid = tvisited.nid),
                    {pred} = (SELECT pred FROM tmp_expanded t
                              WHERE t.nid = tvisited.nid),
                    {flag} = 0
                WHERE nid IN (
                    SELECT t.nid FROM tmp_expanded t
                    WHERE t.cost < (SELECT v.{dist} FROM tvisited v
                                    WHERE v.nid = t.nid))
            """
            insert = f"""
                INSERT INTO tvisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT nid, cost, pred, 0, {self._p}, NULL, 0
                FROM tmp_expanded t
                WHERE NOT EXISTS (SELECT 1 FROM tvisited v
                                  WHERE v.nid = t.nid)
            """
            return create, update, insert

        create, update, insert = self._cached_sql(("expand", "tsql") + shape,
                                                  build)
        with self.stats.operator(OPERATOR_E):
            self._execute_unlogged("DROP TABLE IF EXISTS tmp_expanded")
            self._execute(create, parameters + parameters)
            self._execute_unlogged(
                "CREATE INDEX ix_tmp_expanded_nid ON tmp_expanded (nid)")
        with self.stats.operator(OPERATOR_M):
            updated = max(0, self._execute(update).rowcount)
            inserted = max(0, self._execute(insert, (_INF,)).rowcount)
            self._execute_unlogged("DROP TABLE IF EXISTS tmp_expanded")
        return updated + inserted

    def expand_hops(self, direction: Direction) -> int:
        """Hop-counting E/M: insert-only frontier expansion, ties on the
        predecessor broken to ``min(frontier nid)`` so the recovered
        witness path is deterministic (and bit-identical to the embedded
        backends')."""
        def build() -> str:
            dist, pred, flag = (direction.dist_col, direction.pred_col,
                                direction.flag_col)
            other_dist = "d2t" if direction.is_forward else "d2s"
            other_pred = "p2t" if direction.is_forward else "p2s"
            other_flag = "b" if direction.is_forward else "f"
            key_col, other_col = direction.edge_key, direction.edge_other
            return f"""
                INSERT INTO tvisited (nid, {dist}, {pred}, {flag},
                                      {other_dist}, {other_pred}, {other_flag})
                SELECT e.{other_col}, min(q.{dist}) + 1, min(q.nid), 0,
                       {self._p}, NULL, 0
                FROM tvisited q CROSS JOIN {self._tedges} e
                WHERE q.nid = e.{key_col} AND q.{flag} = 2
                  AND NOT EXISTS (SELECT 1 FROM tvisited v
                                  WHERE v.nid = e.{other_col})
                GROUP BY e.{other_col}
            """

        sql = self._cached_sql(("expand_hops", direction.is_forward), build)
        with self.stats.operator(OPERATOR_E):
            cursor = self._execute(sql, (_INF,))
            affected = max(0, cursor.rowcount)
        self.stats.affected_rows += affected
        return affected

    # ------------------------------------------------------------ path recovery

    def get_link(self, nid: int, direction: Direction) -> Optional[int]:
        sql = self._cached_sql(("get_link", direction.is_forward), lambda: (
            f"SELECT {direction.pred_col} FROM tvisited "
            f"WHERE nid = {self._p}"
        ))
        row = self._execute(sql, (nid,)).fetchone()
        if row is None or row[0] is None:
            return None
        return int(row[0])

    def get_distance(self, nid: int, direction: Direction) -> Optional[float]:
        sql = self._cached_sql(("get_dist", direction.is_forward), lambda: (
            f"SELECT {direction.dist_col} FROM tvisited "
            f"WHERE nid = {self._p}"
        ))
        row = self._execute(sql, (nid,)).fetchone()
        if row is None or row[0] is None or row[0] >= _INF:
            return None
        return float(row[0])

    # --------------------------------------------------- SegTable construction
    #
    # Connection-private relations: ``tsegwork`` holds every segment found
    # so far, its unexpanded rows (``f = 0``) reached through the partial
    # index ``ix_tsegwork_open``; ``tsegfront`` holds the current frontier.

    def seg_init(self) -> None:
        self._execute_unlogged("DROP TABLE IF EXISTS tsegwork")
        self._execute(
            f"""
            CREATE TEMP TABLE tsegwork AS
            SELECT fid, tid, fid AS pid, tid AS sid, min(cost) AS cost, 0 AS f
            FROM {self._tedges}
            WHERE fid != tid
            GROUP BY fid, tid
            """
        )
        self._execute_unlogged(
            "CREATE UNIQUE INDEX ix_tsegwork_pair ON tsegwork (fid, tid)")
        self._execute_unlogged(
            "CREATE INDEX ix_tsegwork_open ON tsegwork (cost) WHERE f = 0")

    def seg_min_unexpanded(self) -> Optional[float]:
        value = self._scalar(self._execute(
            "SELECT min(cost) FROM tsegwork WHERE f = 0"))
        return None if value is None else float(value)

    def seg_select_frontier(self, max_cost: float) -> int:
        self._execute_unlogged("DROP TABLE IF EXISTS tsegfront")
        self._execute(
            f"""
            CREATE TEMP TABLE tsegfront AS
            SELECT fid, tid, sid, cost FROM tsegwork
            WHERE f = 0 AND cost <= {self._p}
            """,
            (max_cost,),
        )
        cursor = self._execute(
            f"UPDATE tsegwork SET f = 1 WHERE f = 0 AND cost <= {self._p}",
            (max_cost,))
        return max(0, cursor.rowcount)

    def seg_expand(self, lthd: float) -> int:
        p = self._p
        candidate_sql = f"""
            SELECT s.fid AS fid, e.tid AS tid, s.tid AS pid, s.sid AS sid,
                   s.cost + e.cost AS cost
            FROM tsegfront s CROSS JOIN {self._tedges} e
            WHERE s.tid = e.fid AND s.cost + e.cost <= {p}
              AND e.tid != s.fid
        """
        if validate_sql_style(self.sql_style) == NSQL:
            cursor = self._execute(
                f"""
                INSERT INTO tsegwork (fid, tid, pid, sid, cost, f)
                SELECT fid, tid, pid, sid, cost, 0 FROM (
                    SELECT fid, tid, pid, sid, cost,
                           row_number() OVER (PARTITION BY fid, tid
                                              ORDER BY cost) AS rownum
                    FROM ({candidate_sql}) AS cand
                ) AS ranked WHERE rownum = 1
                ON CONFLICT (fid, tid) DO UPDATE SET
                    cost = excluded.cost, pid = excluded.pid,
                    sid = excluded.sid, f = 0
                WHERE tsegwork.cost > excluded.cost
                """,
                (lthd,),
            )
            return max(0, cursor.rowcount)
        self._execute_unlogged("DROP TABLE IF EXISTS tmp_segcand")
        self._execute(
            f"""
            CREATE TEMP TABLE tmp_segcand AS
            SELECT cand.fid, cand.tid, min(cand.pid) AS pid,
                   min(cand.sid) AS sid, cand.cost
            FROM ({candidate_sql}) AS cand
            JOIN (SELECT fid, tid, min(cost) AS mincost
                  FROM ({candidate_sql}) AS inner_cand
                  GROUP BY fid, tid) AS agg
              ON cand.fid = agg.fid AND cand.tid = agg.tid
                 AND cand.cost = agg.mincost
            GROUP BY cand.fid, cand.tid, cand.cost
            """,
            (lthd, lthd),
        )
        self._execute_unlogged(
            "CREATE INDEX ix_tmp_segcand_pair ON tmp_segcand (fid, tid)")
        matched = ("FROM tmp_segcand t "
                   "WHERE t.fid = tsegwork.fid AND t.tid = tsegwork.tid")
        updated = max(0, self._execute(
            f"""
            UPDATE tsegwork SET
                cost = (SELECT t.cost {matched}),
                pid = (SELECT t.pid {matched}),
                sid = (SELECT t.sid {matched}),
                f = 0
            WHERE (fid, tid) IN (
                SELECT t.fid, t.tid FROM tmp_segcand t
                WHERE t.cost < (SELECT w.cost FROM tsegwork w
                                WHERE w.fid = t.fid AND w.tid = t.tid))
            """
        ).rowcount)
        inserted = max(0, self._execute(
            """
            INSERT INTO tsegwork (fid, tid, pid, sid, cost, f)
            SELECT fid, tid, pid, sid, cost, 0 FROM tmp_segcand t
            WHERE NOT EXISTS (SELECT 1 FROM tsegwork w
                              WHERE w.fid = t.fid AND w.tid = t.tid)
            """
        ).rowcount)
        self._execute_unlogged("DROP TABLE IF EXISTS tmp_segcand")
        return updated + inserted

    def seg_finish(self, lthd: float,
                   index_mode: str = IndexMode.CLUSTERED) -> int:
        clustered = IndexMode.validate(index_mode) == IndexMode.CLUSTERED

        def fill(name: str, outward: bool) -> int:
            # A clustered table is written in ``fid`` order, so the
            # segments BSEG probes through the ``fid`` index sit together.
            columns, key = (("fid, tid, pid", "fid") if outward
                            else ("tid, fid, sid", "tid"))
            order = f"ORDER BY {key}" if clustered else ""
            return max(0, self._execute(
                f"INSERT INTO {name} (fid, tid, pid, cost) "
                f"SELECT {columns}, cost FROM tsegwork {order}").rowcount)

        stored = self._write_segtables(fill, index_mode)
        self._execute_unlogged("DROP TABLE IF EXISTS tsegwork")
        self._execute_unlogged("DROP TABLE IF EXISTS tsegfront")
        self._publish_segtable(lthd)
        return stored

    def seg_rows(self) -> Tuple[List[Dict[str, object]],
                                List[Dict[str, object]]]:
        def rows(name: str) -> List[Dict[str, object]]:
            if not self._table_exists(name):
                return []
            return [dict(zip(("fid", "tid", "pid", "cost"), row))
                    for row in self._execute_unlogged(
                        f"SELECT fid, tid, pid, cost FROM {name}").fetchall()]

        return rows(self._toutsegs), rows(self._tinsegs)


def _create_dbapi_store(path: Optional[str] = None,
                        buffer_capacity: int = 256) -> DBAPIGraphStore:
    """Backend-registry factory: ``path`` is the DSN.  The server manages
    its own caching, so ``buffer_capacity`` is accepted but unused."""
    del buffer_capacity
    if path is None:
        raise InvalidDSNError(
            "the dbapi backend has no in-memory mode; pass db_path=<DSN> "
            "(e.g. fallback://127.0.0.1:5433/ or postgresql://host/db)"
        )
    return DBAPIGraphStore(path)


register_backend(DBAPIGraphStore.backend_name, _create_dbapi_store,
                 replace=True)
