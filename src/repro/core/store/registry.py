"""Backend registry: pluggable graph-store factories by name.

The registry replaces the historical hard-coded ``BACKENDS`` tuple.  Each
store module registers a factory for itself when it is imported (the entry
points live at the bottom of :mod:`repro.core.store.minidb`,
:mod:`repro.core.store.sqlite` and :mod:`repro.store.dbapi`), and
external code can plug in additional
engines without touching the service layer::

    from repro.service import register_backend

    register_backend("postgres", PostgresGraphStore.create)
    service.add_graph("social", graph, backend="postgres")

A factory is any callable returning a fresh, unloaded
:class:`~repro.core.store.base.GraphStore`.  Factories receive the
store-lifecycle keyword arguments the service layer forwards —
``path`` (backing file, ``None`` for in-memory) and ``buffer_capacity``
(page budget; engines without a buffer pool may ignore it) — and must
accept both even if unused.

Concurrency contract: the :class:`~repro.service.pool.StorePool` grows a
per-graph pool of stores for parallel batches, but only when the backend
class sets :attr:`~repro.core.store.base.GraphStore.supports_concurrent_readers`
to ``True``.  Pool replicas are created either through the store's
:meth:`~repro.core.store.base.GraphStore.clone` fast path (e.g. a second
SQLite connection over the same ``db_path``) or, when cloning is
unsupported, by calling this registry's factory again and reloading the
hosted graph into the fresh store.  Backends that are not safe to read from
multiple threads simply keep the default ``False`` and their queries stay
serialized.  See ``docs/backends.md`` for a worked third-party example.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import DuplicateBackendError, UnknownBackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store.base import GraphStore

BackendFactory = Callable[..., "GraphStore"]

_REGISTRY: Dict[str, BackendFactory] = {}


def is_dsn(path: Optional[str]) -> bool:
    """Whether a store ``path`` is a connection string rather than a file.

    Client-server backends are addressed by DSN (``postgresql://...``,
    ``fallback://host:port/``); everything that consumes a store path and
    would otherwise treat it as a filesystem location — the catalog's
    path normalization, the warm-attach existence check, the shard
    router's relocation logic — branches on this.
    """
    return bool(path) and "://" in path  # type: ignore[operator]


def register_backend(name: str, factory: BackendFactory,
                     replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    Args:
        name: backend identifier (matched case-insensitively, stored
            lower-cased).
        factory: callable ``(path=None, buffer_capacity=...) -> GraphStore``.
        replace: allow overwriting an existing registration.

    Raises:
        DuplicateBackendError: when ``name`` is taken and not ``replace``.
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise DuplicateBackendError(
            f"backend {name!r} is already registered; "
            f"pass replace=True to overwrite it"
        )
    _REGISTRY[key] = factory


def unregister_backend(name: str) -> None:
    """Remove a backend registration.

    Raises:
        UnknownBackendError: when ``name`` is not registered.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise UnknownBackendError(_unknown_message(name))
    del _REGISTRY[key]


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted (the dynamic ``BACKENDS``)."""
    return tuple(sorted(_REGISTRY))


def backend_factory(name: str) -> BackendFactory:
    """Look up the factory registered under ``name``.

    Raises:
        UnknownBackendError: when ``name`` is not registered.
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise UnknownBackendError(_unknown_message(name)) from None


def create_store(name: str, path: Optional[str] = None,
                 buffer_capacity: int = 256) -> "GraphStore":
    """Instantiate a fresh store for backend ``name``.

    Args:
        name: a registered backend name.
        path: backing file for the database; ``None`` keeps it in memory.
        buffer_capacity: buffer-pool page budget (ignored by engines that
            manage their own caching, e.g. SQLite).
    """
    factory = backend_factory(name)
    return factory(path=path, buffer_capacity=buffer_capacity)


def _unknown_message(name: str) -> str:
    known = available_backends()
    return f"unknown backend {name!r}; expected one of {known or '(none registered)'}"
