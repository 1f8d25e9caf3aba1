"""The remote shard transport: a networked shard behind the router.

:meth:`~repro.shard.spec.ShardSpec.open` picks it for any ``http(s)://``
shard address, so one :class:`~repro.shard.router.ShardRouter` mixes
local and networked shards transparently::

    router = ShardRouter.open(
        catalog_paths=["catalogs/a", "http://10.0.0.7:8155"])

Every :class:`~repro.shard.spec.ShardTransport` operation is overridden
with one wire call (the base class's ``service``-delegating defaults
cannot apply — there is no in-process service).  Scatter-gather stays
bit-identical to a monolithic run because the server executes the very
same :func:`~repro.service.batch.execute_batch` path this process would,
and results cross the wire losslessly (distances, paths, and full
:class:`~repro.core.stats.QueryStats`).

Client knobs ride in ``spec.service_options``: ``timeout`` (seconds per
request — a slow shard exceeding it becomes
:class:`~repro.errors.ShardUnavailableError`, which is what lets the
router fail over), ``retries`` (transport-level retries with full-jitter
backoff before that error escapes), and ``backoff_seed`` (deterministic
jitter for tests and the chaos bench).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ShardError
from repro.serve.client import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ShardClient,
)
from repro.shard.spec import ShardSpec, ShardTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.manifest import CatalogEntry
    from repro.core.path import PathResult
    from repro.service.batch import BatchResult
    from repro.service.planner import QueryPlan, QuerySpec
    from repro.service.session import PathService


class RemoteTransport(ShardTransport):
    """A shard reached over the serve wire protocol.

    The spec's ``catalog_path`` is the server's base URL.  Connecting
    probes ``/health`` once, so a dead address
    fails at :meth:`ShardSpec.open` time — connection refused at open is
    an immediate :class:`~repro.errors.ShardUnavailableError`, not a
    latent batch failure.
    """

    def __init__(self, spec: ShardSpec, strict: bool = True) -> None:
        super().__init__(spec)
        options = dict(spec.service_options)
        seed = options.pop("backoff_seed", None)
        self._client = ShardClient(
            spec.catalog_path,
            timeout=float(options.pop("timeout", DEFAULT_TIMEOUT)),
            retries=int(options.pop("retries", DEFAULT_RETRIES)),
            backoff_seed=None if seed is None else int(seed))  # type: ignore[arg-type]
        if options:
            raise ShardError(
                f"remote shard {spec.name!r} got unsupported service "
                f"options {tuple(sorted(options))}; the remote transport "
                f"accepts 'timeout', 'retries', and 'backoff_seed' "
                f"— service knobs belong to the server process"
            )
        # strict has no remote meaning (the server already warm-started);
        # the health probe is the open-time validation instead.
        self._client.health()

    @property
    def client(self) -> ShardClient:
        """The underlying wire client (for tests and diagnostics)."""
        return self._client

    @property
    def url(self) -> str:
        return self._client.url

    @property
    def service(self) -> "PathService":
        raise ShardError(
            f"shard {self.spec.name!r} is remote ({self._client.url}); it "
            f"has no in-process service — full data moves and pool "
            f"inspection need an in-process shard"
        )

    def close(self) -> None:
        """Nothing to release: connections are per-request, and the server
        process outlives its clients by design."""

    # -- operation surface (every call is one wire round trip) -------------------

    def graphs(self) -> Tuple[str, ...]:
        return tuple(str(name) for name in self._client.health()["graphs"])

    def routing_entries(self) -> Dict[str, "CatalogEntry"]:
        return self._client.routing_entries()

    def stamp_ownership(self, graph: str, shard: str) -> None:
        self._client.stamp_ownership(graph, shard)

    def shortest_path(self, spec: "QuerySpec",
                      use_cache: bool = True) -> "PathResult":
        return self._client.shortest_path(spec, use_cache=use_cache)

    def explain(self, spec: "QuerySpec") -> "QueryPlan":
        return self._client.explain(spec)

    def plan_specs(self, specs: Sequence["QuerySpec"]) -> List["QueryPlan"]:
        return self._client.plan_many(specs)

    def execute_specs(self, specs: Sequence["QuerySpec"], *,
                      concurrency: int = 1,
                      checkout_timeout: Optional[float] = None,
                      plans: Optional[Sequence["QueryPlan"]] = None
                      ) -> "BatchResult":
        # plans cannot ship over the wire; the server re-plans its slice
        # deterministically, so the results are identical anyway.
        from repro.service.batch import BatchResult
        results, from_cache, stats, errors = self._client.execute(
            specs, concurrency=concurrency,
            checkout_timeout=checkout_timeout)
        return BatchResult(specs=list(specs), results=results,
                           from_cache=from_cache, stats=stats,
                           errors=errors)

    def health(self) -> Dict[str, object]:
        return dict(self._client.health())


__all__ = ["RemoteTransport"]
