"""The routing table: graph name → owning shard, derived from manifests.

The PR-3 catalog manifest was designed as "the routing table a shard
router would read", and this module is that reader.  It works purely on
catalog documents — no service is opened — so the same code backs both
:meth:`ShardRouter.open` validation and the offline
``python -m repro.catalog shards`` inspection command.

Ownership rules:

* every graph name maps to exactly one **owning** shard — the first shard
  (in spec order) whose catalog lists it;
* a name listed by several shards with the **same** content fingerprint is
  a *replica*: allowed, deterministic (first shard wins), and recorded on
  the route so operators can see the duplication;
* a name listed by several shards with **different** fingerprints is a
  *conflict* — two shards claim the same name for different graphs — and
  the table refuses to build (:class:`~repro.errors.ShardConflictError`)
  rather than guess which graph the caller means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.manifest import CatalogEntry
from repro.errors import ShardConflictError, UnknownGraphError


@dataclass(frozen=True)
class Route:
    """Where one graph lives.

    Attributes:
        graph: the graph name.
        shard: the owning shard's name.
        fingerprint: content fingerprint recorded by the owner's catalog.
        stale: the owning entry is flagged stale (attaches will refuse
            until it is rebuilt).
        replicas: other shards listing the same name with an identical
            fingerprint (not routed to while the owner answers; tried in
            order when it fails at the transport level).
    """

    graph: str
    shard: str
    fingerprint: str
    stale: bool = False
    replicas: Tuple[str, ...] = ()


@dataclass
class RoutingTable:
    """Immutable-by-convention mapping of graph name → :class:`Route`."""

    routes: Dict[str, Route] = field(default_factory=dict)

    def __contains__(self, graph: object) -> bool:
        return graph in self.routes

    def __len__(self) -> int:
        return len(self.routes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.routes)

    def graphs(self) -> Tuple[str, ...]:
        """Routed graph names, sorted."""
        return tuple(sorted(self.routes))

    def owner(self, graph: str) -> str:
        """Name of the shard owning ``graph``.

        Raises:
            UnknownGraphError: when no shard lists ``graph``.
        """
        return self.route(graph).shard

    def route(self, graph: str) -> Route:
        """The full :class:`Route` for ``graph``.

        Raises:
            UnknownGraphError: when no shard lists ``graph``.
        """
        route = self.routes.get(graph)
        if route is None:
            known = self.graphs() or "(no graphs routed)"
            raise UnknownGraphError(
                f"graph {graph!r} is not routed to any shard; "
                f"routed graphs: {known}"
            )
        return route

    def by_shard(self) -> Dict[str, Tuple[str, ...]]:
        """Shard name → sorted names of the graphs it owns."""
        grouped: Dict[str, List[str]] = {}
        for route in self.routes.values():
            grouped.setdefault(route.shard, []).append(route.graph)
        return {shard: tuple(sorted(names))
                for shard, names in sorted(grouped.items())}


def build_routing_table(
        shard_entries: Sequence[Tuple[str, Mapping[str, CatalogEntry]]],
) -> RoutingTable:
    """Build a :class:`RoutingTable` from ``(shard name, entries)`` pairs.

    ``shard_entries`` order is the ownership precedence: the first shard
    listing a name owns it.  Duplicate listings with an identical
    fingerprint become replicas on the route; differing fingerprints raise.

    Raises:
        ShardConflictError: two shards list the same graph name with
            different content fingerprints (conflicting ownership).
    """
    table = RoutingTable()
    conflicts: List[str] = []
    for shard, entries in shard_entries:
        for name, entry in sorted(entries.items()):
            existing = table.routes.get(name)
            if existing is None:
                table.routes[name] = Route(
                    graph=name, shard=shard,
                    fingerprint=entry.fingerprint, stale=entry.stale)
            elif existing.fingerprint == entry.fingerprint:
                table.routes[name] = Route(
                    graph=existing.graph, shard=existing.shard,
                    fingerprint=existing.fingerprint, stale=existing.stale,
                    replicas=existing.replicas + (shard,))
            else:
                conflicts.append(
                    f"graph {name!r}: shard {existing.shard!r} has "
                    f"{existing.fingerprint[:18]}..., shard {shard!r} has "
                    f"{entry.fingerprint[:18]}..."
                )
    if conflicts:
        raise ShardConflictError(
            "conflicting graph ownership across shards — the same name "
            "maps to different graph content, so routing would be "
            "ambiguous:\n  " + "\n  ".join(conflicts) +
            "\nremove or rebuild one of the conflicting catalog entries "
            "(python -m repro.catalog shards shows the full table)"
        )
    return table


def routing_table_from_catalogs(
        catalogs: Sequence[Tuple[str, Catalog]],
        reload: bool = False) -> RoutingTable:
    """Build the routing table straight from :class:`Catalog` objects
    (optionally re-reading each manifest from disk first)."""
    pairs: List[Tuple[str, Mapping[str, CatalogEntry]]] = []
    for shard, catalog in catalogs:
        if reload:
            catalog.reload()
        pairs.append((shard, catalog.entries()))
    return build_routing_table(pairs)


def format_routing_table(table: RoutingTable,
                         title: Optional[str] = None) -> List[str]:
    """Render ``table`` as aligned text lines (used by the CLI)."""
    if not table.routes:
        return [title or "(no graphs routed)"]
    header = (f"{'graph':<20} {'shard':<14} {'state':<6} "
              f"{'replicas':<14} fingerprint")
    lines = [header, "-" * len(header)]
    if title:
        lines.insert(0, title)
    for name in table.graphs():
        route = table.routes[name]
        replicas = ",".join(route.replicas) or "-"
        state = "stale" if route.stale else "ok"
        lines.append(
            f"{route.graph:<20} {route.shard:<14} {state:<6} "
            f"{replicas:<14} {route.fingerprint[:18]}..."
        )
    return lines


__all__ = [
    "Route",
    "RoutingTable",
    "build_routing_table",
    "format_routing_table",
    "routing_table_from_catalogs",
]
