"""Fault installers — one per seam.

Each installer takes a live object and a :class:`~repro.faults.plan.FaultPlan`
and rebinds the object's operation methods (instance-level, so the class
and every other instance are untouched) to consult the plan first.  A
fired error-kind fault raises the **same typed error the seam raises for
a real failure**, so drivers, retry loops, failover and circuit breakers
all exercise their production recovery paths:

========================  =========================================
seam                      injected error
========================  =========================================
:class:`GraphStore`       :class:`repro.errors.BackendConnectionError`
:class:`ShardClient`      :class:`repro.errors.ShardUnavailableError`
``FallbackConnection``    ``repro.store.fallback_server.InterfaceError``
========================  =========================================

Every installer returns the object it was given (for chaining) and is
idempotent-unsafe by design — installing twice stacks two interceptors.
Use :func:`uninstall_faults` to restore the original bindings.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendConnectionError, ShardUnavailableError
from repro.faults.plan import FaultPlan

STORE_STATEMENT_METHODS: Tuple[str, ...] = (
    "reset_visited",
    "insert_visited",
    "iterate",
    "recover",
    "visited_count",
)
"""The per-query surface of :class:`~repro.core.store.base.GraphStore` —
every call a FEM driver makes while a query is running, one per FEM
iteration for ``iterate``.  Intercepting these is what makes
``drop_at(n)`` a *kill mid-FEM*: the Nth store call lands inside the
iteration loop and the backend dies under the driver."""

_SAVED_ATTR = "__repro_fault_saved__"


def _remember(target: object, name: str) -> None:
    saved: List[Tuple[str, Any]] = getattr(target, _SAVED_ATTR, None)
    if saved is None:
        saved = []
        setattr(target, _SAVED_ATTR, saved)
    saved.append((name, getattr(target, name)))


def uninstall_faults(target: object) -> None:
    """Restore every method an installer rebound on ``target`` (in
    reverse install order, so stacked installs unwind cleanly)."""
    saved = getattr(target, _SAVED_ATTR, None)
    if not saved:
        return
    for name, original in reversed(saved):
        setattr(target, name, original)
    delattr(target, _SAVED_ATTR)


def install_store_faults(store: object, plan: FaultPlan,
                         methods: Sequence[str] = STORE_STATEMENT_METHODS
                         ) -> object:
    """Arm ``plan`` on a :class:`GraphStore`'s statement surface.

    Fired error faults raise :class:`BackendConnectionError` — the exact
    error a dropped database connection produces — from whichever store
    call the plan lands on.  Context strings are ``store.<method>``, so
    ``match="iterate"`` kills specifically inside a FEM iteration.
    """
    for name in methods:
        original = getattr(store, name, None)
        if original is None or not callable(original):
            continue
        _remember(store, name)

        def wrapped(*args: object, __original: Any = original,
                    __name: str = name, **kwargs: object) -> object:
            if plan.before(f"store.{__name}") is not None:
                raise BackendConnectionError(
                    f"injected fault: backend connection dropped at "
                    f"store.{__name}")
            return __original(*args, **kwargs)

        functools.update_wrapper(wrapped, original)
        setattr(store, name, wrapped)
    return store


def install_client_faults(client: object, plan: FaultPlan) -> object:
    """Arm ``plan`` on a :class:`~repro.serve.client.ShardClient`.

    Wraps the single-attempt request primitive, so fired error faults
    raise :class:`ShardUnavailableError` *before* anything touches the
    wire — exercising the client's jittered retry loop and the router's
    failover/breaker exactly as a dead server would.  Context strings
    are ``client.<path>`` (e.g. ``client./shortest_path``).
    """
    original = client._request_once  # type: ignore[attr-defined]
    _remember(client, "_request_once")

    def wrapped(path: str, body: Optional[Dict[str, object]],
                request_id: Optional[str] = None,
                timeout: Optional[float] = None) -> Dict[str, object]:
        if plan.before(f"client.{path}") is not None:
            raise ShardUnavailableError(
                f"injected fault: shard unreachable for {path}")
        return original(path, body, request_id=request_id, timeout=timeout)

    client._request_once = wrapped  # type: ignore[attr-defined]
    return client


def install_connection_faults(connection: object, plan: FaultPlan) -> object:
    """Arm ``plan`` on a fallback wire ``FallbackConnection``.

    Fired error faults sever the socket for real (so the connection is
    unusable afterwards, like a genuine drop) and raise the DB-API
    ``InterfaceError`` that :mod:`repro.store.dbapi` maps to
    :class:`BackendConnectionError`.  Context strings are
    ``fallback.<op>``.
    """
    from repro.store.fallback_server import InterfaceError

    original = connection._roundtrip  # type: ignore[attr-defined]
    _remember(connection, "_roundtrip")

    def wrapped(request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op", "?") if isinstance(request, dict) else "?"
        if plan.before(f"fallback.{op}") is not None:
            connection._closed = True  # type: ignore[attr-defined]
            try:
                connection._sock.close()  # type: ignore[attr-defined]
            except OSError:  # pragma: no cover - close is best-effort
                pass
            raise InterfaceError(
                f"injected fault: fallback connection dropped at {op}")
        return original(request)

    connection._roundtrip = wrapped  # type: ignore[attr-defined]
    return connection


__all__ = [
    "STORE_STATEMENT_METHODS",
    "install_client_faults",
    "install_connection_faults",
    "install_store_faults",
    "uninstall_faults",
]
