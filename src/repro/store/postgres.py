"""PostgreSQL wire driver for the DB-API graph store.

The paper's experiments ran on PostgreSQL as the open-source platform;
this module makes ``postgresql://`` DSNs dial a real server through
``psycopg`` (version 3 preferred, ``psycopg2`` accepted).  The driver
import is *gated*: environments without either package — the hermetic CI
default — can still import this module, register the backend, and parse
DSNs; only actually connecting raises
:class:`~repro.errors.MissingDriverError`, pointing at the
``fallback://`` stdlib server as the dependency-free alternative.

Registered twice:

* as the ``postgresql`` / ``postgres`` DSN schemes of the generic
  ``dbapi`` backend (``backend="dbapi", db_path="postgresql://..."``);
* as a ``postgres`` backend name of its own, which additionally rejects
  non-PostgreSQL DSNs up front.

The CI ``postgres`` job runs the whole conformance suite against a live
``postgres:16`` service container via ``REPRO_TEST_DSN``; see
``tests/test_backend_conformance.py``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.store.registry import register_backend
from repro.errors import InvalidDSNError, MissingDriverError
from repro.store.dbapi import (
    POSTGRES_DIALECT,
    DBAPIGraphStore,
    ParsedDSN,
    WireDriver,
    register_driver,
)

try:  # psycopg 3, the preferred driver
    import psycopg as _psycopg  # type: ignore[import-not-found]
    _PSYCOPG_VERSION = 3
except ImportError:  # pragma: no cover - depends on environment
    try:
        import psycopg2 as _psycopg  # type: ignore[import-not-found]
        _PSYCOPG_VERSION = 2
    except ImportError:
        _psycopg = None
        _PSYCOPG_VERSION = 0

POSTGRES_SCHEMES = ("postgresql", "postgres")


class PostgresDriver(WireDriver):
    """Wire driver dialing PostgreSQL through psycopg (3 or 2)."""

    dialect = POSTGRES_DIALECT

    def __init__(self, parsed: ParsedDSN) -> None:
        if _psycopg is None:
            raise MissingDriverError(
                f"DSN {parsed.dsn!r} needs psycopg (or psycopg2), which is "
                f"not installed; use a fallback:// DSN for the stdlib "
                f"server, or install a PostgreSQL driver"
            )
        self.parsed = parsed
        # psycopg's exception hierarchy: OperationalError/InterfaceError
        # are transport-level, everything else under Error is the
        # statement's fault.
        self.connection_exceptions: Tuple[type, ...] = (
            _psycopg.OperationalError, _psycopg.InterfaceError, OSError)
        self.programming_exceptions: Tuple[type, ...] = (_psycopg.Error,)

    def connect(self) -> Any:
        if _PSYCOPG_VERSION == 3:
            return _psycopg.connect(self.parsed.driver_dsn, autocommit=True)
        connection = _psycopg.connect(self.parsed.driver_dsn)
        connection.autocommit = True
        return connection

    def server_limit(self, connection: Any) -> Optional[int]:
        cursor = connection.cursor()
        try:
            cursor.execute("SHOW max_connections")
            row = cursor.fetchone()
        finally:
            cursor.close()
        return None if row is None else int(row[0])

    def describe(self) -> str:
        return f"PostgreSQL at {self.parsed.host}"


for _scheme in POSTGRES_SCHEMES:
    register_driver(_scheme, PostgresDriver)


def _create_postgres_store(path: Optional[str] = None,
                           buffer_capacity: int = 256) -> DBAPIGraphStore:
    """Factory for ``backend="postgres"``: the generic DB-API store,
    restricted to PostgreSQL DSNs."""
    del buffer_capacity
    if path is None:
        raise InvalidDSNError(
            "the postgres backend has no in-memory mode; pass "
            "db_path='postgresql://user@host/db'"
        )
    parsed = ParsedDSN(path)
    if parsed.scheme not in POSTGRES_SCHEMES:
        raise InvalidDSNError(
            f"backend 'postgres' expects a postgresql:// DSN, got "
            f"{parsed.scheme!r}; use backend='dbapi' for other schemes"
        )
    return DBAPIGraphStore(path, parsed=parsed)


register_backend("postgres", _create_postgres_store, replace=True)
