"""Shard descriptions and the transport seam.

A :class:`ShardSpec` names one shard and points at the catalog whose
manifest is that shard's routing-table contribution.  *How* the shard's
service is reached — the **transport** — follows from that address: a
catalog directory opens an :class:`InProcessTransport`, which warm-starts
a :class:`~repro.service.session.PathService` right here via
``PathService.open``; an ``http(s)://`` URL opens a
:class:`~repro.serve.transport.RemoteTransport`, which speaks the serve
wire protocol to a shard server in another process.  The router talks to
every shard exclusively through the :class:`ShardTransport` operation
surface, so the two are interchangeable — including mixed within one
router.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)
from urllib.parse import urlsplit

from repro.errors import ShardError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.manifest import CatalogEntry
    from repro.core.path import PathResult
    from repro.service.batch import BatchResult
    from repro.service.planner import QueryPlan, QuerySpec
    from repro.service.session import PathService

_URL_SCHEMES = ("http://", "https://")


def is_shard_url(path: str) -> bool:
    """Whether ``path`` addresses a networked shard server rather than a
    catalog directory on this filesystem."""
    return path.startswith(_URL_SCHEMES)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a :class:`~repro.shard.router.ShardRouter`.

    Attributes:
        name: router-unique shard name; it is stamped into the owned
            catalog entries as the manifest ownership record and appended
            to the shard service's cache keys (``shard_id``).
        catalog_path: the shard's catalog directory — its manifest is the
            slice of the routing table this shard contributes — or a shard
            server's base URL (``http://host:port``) for a networked
            shard.  The address picks the transport (see :meth:`open`).
        service_options: extra keyword arguments for the shard service
            (``cache_size``, ``default_backend``, ...), applied by the
            transport when it opens the service.  The remote transport
            reads its client knobs (``timeout``, ``retries``) from here.
    """

    name: str
    catalog_path: str
    service_options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ShardError(
                f"shard name {self.name!r} is invalid; use a non-empty "
                f"name without path separators"
            )

    def open(self, strict: bool = True) -> "ShardTransport":
        """Connect this shard: a :class:`RemoteTransport
        <repro.serve.transport.RemoteTransport>` for an ``http(s)://``
        ``catalog_path``, an :class:`InProcessTransport` otherwise."""
        if is_shard_url(self.catalog_path):
            # repro.serve imports this module; import it here, not above.
            from repro.serve.transport import RemoteTransport
            return RemoteTransport(self, strict)
        return InProcessTransport(self, strict)


class ShardTransport(ABC):
    """A connected shard: the router talks to every shard through this
    surface only, so in-process and remote shards are interchangeable.

    Every operation has a default implementation that delegates to
    :attr:`service`, so an in-process (or any service-backed third-party)
    transport only implements ``service`` and ``close``; a networked
    transport overrides each operation with a wire call instead and lets
    ``service`` raise.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec

    @property
    @abstractmethod
    def service(self) -> "PathService":
        """The shard's in-process query service.

        Transports without one (networked shards) raise
        :class:`ShardError` — callers that need direct service access
        (full data moves, pool inspection) must check the transport type.
        """

    @abstractmethod
    def close(self) -> None:
        """Release the shard's resources."""

    # -- operation surface (defaults delegate to the in-process service) ---------

    def graphs(self) -> Tuple[str, ...]:
        """Graph names this shard actually hosts (attached and queryable)."""
        return self.service.graphs()

    def routing_entries(self) -> Dict[str, "CatalogEntry"]:
        """The shard's catalog manifest — its routing-table contribution."""
        catalog = self.service.catalog
        assert catalog is not None  # shard services are catalog-bound
        return dict(catalog.entries())

    def stamp_ownership(self, graph: str, shard: str) -> None:
        """Record ``shard`` as ``graph``'s owner in this shard's manifest
        (a no-op when the record already matches)."""
        catalog = self.service.catalog
        assert catalog is not None
        catalog.set_shard(graph, shard)

    def shortest_path(self, spec: "QuerySpec",
                      use_cache: bool = True) -> "PathResult":
        """Answer one query on this shard."""
        return self.service.shortest_path(
            spec.source, spec.target, graph=spec.graph, method=spec.method,
            sql_style=spec.sql_style, max_iterations=spec.max_iterations,
            use_cache=use_cache, kind=spec.kind, max_hops=spec.max_hops,
            timeout_s=spec.timeout_s)

    def explain(self, spec: "QuerySpec") -> "QueryPlan":
        """The plan this shard would execute for ``spec``."""
        return self.service.plan(spec)

    def plan_specs(self, specs: Sequence["QuerySpec"]) -> List["QueryPlan"]:
        """Plan a batch slice (the router's fail-fast validation pass).

        Malformed specs — unknown graph, unknown node, bad method — raise
        here, before anything executes anywhere.
        """
        return [self.service.plan(spec) for spec in specs]

    def execute_specs(self, specs: Sequence["QuerySpec"], *,
                      concurrency: int = 1,
                      plans: Optional[Sequence["QueryPlan"]] = None
                      ) -> "BatchResult":
        """Execute one scatter slice on this shard.

        ``plans`` replays the validation pass's plans so an in-process
        slice is not planned twice; transports that cannot ship plans
        (remote) ignore it and re-plan server-side — planning is
        deterministic, so the results are identical.
        """
        from repro.service.batch import execute_batch
        return execute_batch(
            self.service, list(specs), concurrency=concurrency,
            plans=None if plans is None else list(plans))

    def health(self) -> Dict[str, object]:
        """A cheap liveness probe.  Raises (transport-dependent) when the
        shard is unreachable; returns a status document when it is up."""
        return {
            "status": "ok",
            "shard": self.spec.name,
            "graphs": list(self.graphs()),
        }


class InProcessTransport(ShardTransport):
    """The zero-copy transport: the shard *is* a warm-started
    :class:`PathService` in this process, opened from the spec's catalog
    with the shard name as its cache-key ``shard_id``."""

    def __init__(self, spec: ShardSpec, strict: bool = True) -> None:
        super().__init__(spec)
        from repro.service.session import PathService
        self._service = PathService.open(
            spec.catalog_path, strict=strict, shard_id=spec.name,
            **spec.service_options)  # type: ignore[arg-type]

    @property
    def service(self) -> "PathService":
        return self._service

    def close(self) -> None:
        self._service.close()


def default_shard_name(catalog_path: str) -> str:
    """The default name of the shard at ``catalog_path``: the catalog
    directory's basename (trailing separators ignored), or ``host:port``
    for a shard server URL."""
    if is_shard_url(catalog_path):
        parts = urlsplit(catalog_path)
        return parts.netloc or catalog_path
    normalized = os.path.normpath(os.path.abspath(catalog_path))
    return os.path.basename(normalized) or normalized


__all__ = [
    "InProcessTransport",
    "ShardSpec",
    "ShardTransport",
    "default_shard_name",
    "is_shard_url",
]
