"""Graph stores: the "RDB side" of the FEM framework.

A store owns the relational tables (``TNodes``, ``TEdges``, ``TVisited``,
``TOutSegs``, ``TInSegs``) and exposes one method per SQL statement in the
paper's Listings 2–4.  The search algorithms in ``repro.core`` are thin
clients issuing those statements, exactly as the paper's Java client drives
the RDB through JDBC.

Two engines are built in:

* :class:`~repro.core.store.minidb.MiniDBGraphStore` — backed by the
  built-in relational engine (``repro.rdb``), giving full control over the
  buffer pool and index clustering (the paper's DBMS-x role).
* :class:`~repro.store.dbapi.DBAPIGraphStore` — the one SQL store: literal
  SQL text over any PEP-249 connection, playing the role of the paper's
  "second platform" (PostgreSQL), including its lack of a MERGE statement.
  :class:`~repro.core.store.sqlite.SQLiteGraphStore` is that store over an
  in-process ``sqlite3`` connection; ``fallback://`` and ``postgresql://``
  DSNs are the same store over a wire.

Stores register themselves in the backend registry
(:mod:`repro.core.store.registry`) when imported; importing this package is
what populates the default ``minidb`` and ``sqlite`` entries — and, because
the SQLite binding imports :mod:`repro.store`, the ``dbapi`` / ``postgres``
ones.  The dependency runs one way: ``repro.store`` builds on the base
interfaces and the registry here and never imports the bindings back.
Additional engines plug in via :func:`register_backend` without any
service-layer changes.
"""

from repro.core.store.base import GraphStore, IndexMode
from repro.core.store.registry import (
    available_backends,
    backend_factory,
    create_store,
    is_dsn,
    register_backend,
    unregister_backend,
)
from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore

__all__ = [
    "GraphStore",
    "IndexMode",
    "MiniDBGraphStore",
    "SQLiteGraphStore",
    "available_backends",
    "backend_factory",
    "create_store",
    "is_dsn",
    "register_backend",
    "unregister_backend",
]
