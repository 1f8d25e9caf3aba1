"""Embedded SQLite: the in-process driver of the one SQL graph store.

The paper validates its approach on a second platform besides the
commercial DBMS-x; here SQLite plays that role (like PostgreSQL 9.0 in
the paper it has no MERGE statement, so the M-operator is an upsert).
No statement is written here: ``backend="sqlite"`` is
:class:`~repro.store.dbapi.DBAPIGraphStore` — the single home of the SQL
of Listings 2–4 — over a ``sqlite3`` connection opened in this process,
exactly as ``fallback://`` and ``postgresql://`` are the same store over
a wire.  This module holds only that driver and the store binding.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Optional, Sequence

from repro.core.store.registry import register_backend
from repro.store.dbapi import DBAPIGraphStore, WireDriver


class _Cursor(sqlite3.Cursor):
    """A cursor whose ``rowcount`` is the ``total_changes`` delta of its
    last statement — exactly ``changes()`` without a second statement, and
    right for ``INSERT .. SELECT`` and upserts, where sqlite3's own
    ``rowcount`` is not on every Python version."""

    rowcount = -1

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "_Cursor":
        before = self.connection.total_changes
        super().execute(sql, parameters)
        self.rowcount = self.connection.total_changes - before
        return self

    def executemany(self, sql: str,
                    seq_of_parameters: Sequence[Sequence[Any]]) -> "_Cursor":
        before = self.connection.total_changes
        super().executemany(sql, seq_of_parameters)
        self.rowcount = self.connection.total_changes - before
        return self


class _Connection(sqlite3.Connection):
    def cursor(self, factory: type = _Cursor) -> sqlite3.Cursor:
        return super().cursor(factory)


class SQLiteDriver(WireDriver):
    """Driver for a database file (or ``:memory:``) opened in-process.

    Both exception tuples stay empty: nothing here is a transport, and a
    local ``sqlite3.Error`` reaches the caller as itself rather than as a
    retryable backend failure.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # A second connection to ":memory:" is a second, empty database.
        self.shared = path != ":memory:"

    def connect(self) -> sqlite3.Connection:
        # check_same_thread=False: the store pool hands a connection to one
        # worker thread at a time; serialized handoff is safe, sqlite's
        # same-thread assertion is stricter than we need.
        # cached_statements: the FEM hot loop re-executes a handful of
        # statement shapes thousands of times; a roomy prepared-statement
        # cache keeps sqlite from ever re-compiling them.
        connection = sqlite3.connect(self.path, check_same_thread=False,
                                     cached_statements=256,
                                     factory=_Connection)
        connection.execute("PRAGMA journal_mode = MEMORY")
        connection.execute("PRAGMA synchronous = OFF")
        connection.execute("PRAGMA temp_store = MEMORY")
        return connection

    def backup(self, connection: sqlite3.Connection, dest_path: str) -> bool:
        """SQLite's online backup API: every relation and index, consistent
        even while other connections hold the source file open."""
        dest = sqlite3.connect(dest_path)
        try:
            connection.backup(dest)
        finally:
            dest.close()
        return True

    def describe(self) -> str:
        return ("an in-memory SQLite database" if not self.shared
                else f"SQLite database {self.path!r}")


class SQLiteGraphStore(DBAPIGraphStore):
    """The SQL graph store over embedded SQLite (in-memory by default).

    Per-query state lives in the connection-private ``temp`` schema, so
    any number of connections over the same database file answer queries
    concurrently — which is what makes :meth:`clone` (and therefore pooled
    parallel execution) safe for ``db_path``-backed stores.
    """

    backend_name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__(path, driver=SQLiteDriver(path))


def _create_sqlite_store(path: Optional[str] = None,
                         buffer_capacity: int = 256) -> SQLiteGraphStore:
    """Backend-registry factory; SQLite manages its own page cache, so the
    ``buffer_capacity`` lifecycle argument is accepted but unused."""
    del buffer_capacity
    return SQLiteGraphStore(path=path or ":memory:")


# replace=True keeps re-imports (importlib.reload, notebook autoreload)
# from tripping the duplicate-name guard.
register_backend(SQLiteGraphStore.backend_name, _create_sqlite_store,
                 replace=True)
