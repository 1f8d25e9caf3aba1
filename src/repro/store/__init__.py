"""The SQL graph store and its wire drivers (the DB-API family).

Importing this package registers two backends with the store registry:

* ``dbapi`` — the generic PEP-249 store of :mod:`repro.store.dbapi`,
  addressed by connection string (``fallback://`` for the stdlib wire
  server, ``postgresql://`` for PostgreSQL through psycopg);
* ``postgres`` — the same store restricted to PostgreSQL DSNs
  (:mod:`repro.store.postgres`; registration succeeds even without
  psycopg installed — connecting is what needs the driver).

The embedded ``sqlite`` backend (:mod:`repro.core.store.sqlite`) is the
same store over an in-process driver; it imports this package, so these
backends are available wherever the embedded ones are.
"""

from repro.store import postgres  # noqa: F401  (registers postgresql://)
from repro.store.dbapi import (
    DBAPIGraphStore,
    ParsedDSN,
    WireDriver,
    register_driver,
)
from repro.store.fallback_server import serve_in_thread

__all__ = [
    "DBAPIGraphStore",
    "ParsedDSN",
    "WireDriver",
    "register_driver",
    "serve_in_thread",
]
