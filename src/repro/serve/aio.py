"""The asyncio front end: ``await`` and ``async for`` over the engine.

The engine is synchronous by design (SQL execution against embedded
stores), so the async surface is a thin adapter: every blocking call runs
on a bounded :class:`~concurrent.futures.ThreadPoolExecutor` via
``loop.run_in_executor``, and the event loop only ever awaits — one
process can hold tens of thousands of in-flight queries while a handful
of worker threads grind through them.  The service's own thread safety
(store pools, single-flight dedup, locked caches) is what makes the
concurrent calls sound; this module adds no locking of its own.

Two wrappers, mirroring the sync pair:

* :class:`AsyncPathService` over one
  :class:`~repro.service.session.PathService`;
* :class:`AsyncShardRouter` over a
  :class:`~repro.shard.router.ShardRouter` (local, remote, and mixed
  shards alike — failover included, since it wraps the same router).

Both offer ``await shortest_path(...)`` and an ``async for`` batch::

    async with router.as_async() as aio:
        async for index, result in aio.shortest_path_many(queries):
            ...  # completion order, not input order

Batch items resolve *as they complete*; each yielded pair carries the
query's input index so callers can reorder.  Unreachable pairs yield
``None`` results (pass ``raise_on_unreachable=True`` to get the
exception instead).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import (
    AsyncIterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.path import PathResult
from repro.core.sqlstyle import NSQL
from repro.errors import PathNotFoundError
from repro.service.batch import normalize_queries
from repro.service.planner import QueryPlan, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.session import BatchQuery, PathService
    from repro.shard.router import ScatterResult, ShardRouter

DEFAULT_ASYNC_WORKERS = 8


class _AsyncFacade:
    """Shared machinery: a worker pool and a run-blocking-call helper."""

    def __init__(self, max_workers: int = DEFAULT_ASYNC_WORKERS) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-aio")
        self._closed = False

    async def _run(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        if kwargs:
            return await loop.run_in_executor(
                self._pool, lambda: fn(*args, **kwargs))
        return await loop.run_in_executor(self._pool, fn, *args)

    async def _stream(self, specs: Sequence[QuerySpec],
                      shortest_path, raise_on_unreachable: bool
                      ) -> AsyncIterator[Tuple[int, Optional[PathResult]]]:
        """Yield ``(input index, result)`` pairs in completion order.

        Every :class:`QuerySpec` field is a keyword of the wrapped sync
        ``shortest_path``, so each query is forwarded whole — kind, hop
        budget and time budget included."""

        async def one(index: int, spec: QuerySpec):
            try:
                return index, await self._run(shortest_path, **asdict(spec))
            except PathNotFoundError:
                if raise_on_unreachable:
                    raise
                return index, None

        tasks = [asyncio.ensure_future(one(index, spec))
                 for index, spec in enumerate(specs)]
        try:
            for next_done in asyncio.as_completed(tasks):
                yield await next_done
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
                elif not task.cancelled():
                    # Retrieve abandoned exceptions (early exit /
                    # raise_on_unreachable) so asyncio does not log
                    # "exception was never retrieved" at teardown.
                    task.exception()

    async def aclose(self) -> None:
        """Shut the worker pool down (idempotent); the wrapped sync object
        is NOT closed — it outlives its async facade by design."""
        if self._closed:
            return
        self._closed = True
        await self._run(lambda: None)  # drain: let queued calls finish
        self._pool.shutdown(wait=True)

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()


class AsyncPathService(_AsyncFacade):
    """``await``-able facade over one :class:`PathService`.

    Obtain via :meth:`PathService.as_async`.  All query semantics —
    caching, planning, single-flight — are the wrapped service's own.
    """

    def __init__(self, service: "PathService",
                 max_workers: int = DEFAULT_ASYNC_WORKERS) -> None:
        super().__init__(max_workers)
        self.service = service

    async def shortest_path(self, source: int, target: int,
                            graph: str = "default", method: str = "auto",
                            sql_style: str = NSQL,
                            max_iterations: Optional[int] = None,
                            use_cache: bool = True) -> PathResult:
        """``await``-able :meth:`PathService.shortest_path`."""
        return await self._run(
            self.service.shortest_path, source, target,
            graph=graph, method=method, sql_style=sql_style,
            max_iterations=max_iterations, use_cache=use_cache)

    async def explain(self, source: int, target: int,
                      graph: str = "default", method: str = "auto",
                      sql_style: str = NSQL) -> QueryPlan:
        """``await``-able :meth:`PathService.explain`."""
        return await self._run(self.service.explain, source, target,
                               graph=graph, method=method,
                               sql_style=sql_style)

    def shortest_path_many(self, queries: Sequence["BatchQuery"],
                           graph: str = "default", method: str = "auto",
                           sql_style: str = NSQL,
                           raise_on_unreachable: bool = False
                           ) -> AsyncIterator[Tuple[int, Optional[PathResult]]]:
        """``async for (index, result)`` over a batch, completion order.

        Every query runs as an independent awaited call, so results
        stream back the moment they finish; duplicates still collapse
        onto the service's result cache.
        """
        specs = normalize_queries(queries, graph=graph, method=method,
                                  sql_style=sql_style)
        return self._stream(specs, self.service.shortest_path,
                            raise_on_unreachable)

    async def gather(self, queries: Sequence["BatchQuery"],
                     graph: str = "default", method: str = "auto",
                     sql_style: str = NSQL,
                     raise_on_unreachable: bool = False
                     ) -> List[Optional[PathResult]]:
        """Await the whole batch; results come back in *input* order."""
        results: List[Optional[PathResult]] = [None] * len(queries)
        async for index, result in self.shortest_path_many(
                queries, graph=graph, method=method, sql_style=sql_style,
                raise_on_unreachable=raise_on_unreachable):
            results[index] = result
        return results


class AsyncShardRouter(_AsyncFacade):
    """``await``-able facade over a :class:`ShardRouter`.

    Obtain via :meth:`ShardRouter.as_async`.  Routing, replica failover,
    and the shared cross-shard cache are the wrapped router's own — the
    facade only moves the blocking calls off the event loop.
    """

    def __init__(self, router: "ShardRouter",
                 max_workers: int = DEFAULT_ASYNC_WORKERS) -> None:
        super().__init__(max_workers)
        self.router = router

    async def shortest_path(self, source: int, target: int, graph: str,
                            method: str = "auto", sql_style: str = NSQL,
                            max_iterations: Optional[int] = None,
                            use_cache: bool = True) -> PathResult:
        """``await``-able :meth:`ShardRouter.shortest_path` (routed,
        failover included)."""
        return await self._run(
            self.router.shortest_path, source, target, graph=graph,
            method=method, sql_style=sql_style,
            max_iterations=max_iterations, use_cache=use_cache)

    async def explain(self, source: int, target: int, graph: str,
                      method: str = "auto",
                      sql_style: str = NSQL) -> QueryPlan:
        """``await``-able :meth:`ShardRouter.explain`."""
        return await self._run(self.router.explain, source, target,
                               graph=graph, method=method,
                               sql_style=sql_style)

    def shortest_path_many(self, queries: Sequence["BatchQuery"],
                           graph: Optional[str] = None,
                           method: str = "auto", sql_style: str = NSQL,
                           raise_on_unreachable: bool = False
                           ) -> AsyncIterator[Tuple[int, Optional[PathResult]]]:
        """``async for (index, result)`` over a routed batch, completion
        order; each query routes (and fails over) independently."""
        from repro.shard.router import DEFAULT_GRAPH
        specs = normalize_queries(queries, graph=graph or DEFAULT_GRAPH,
                                  method=method, sql_style=sql_style)
        return self._stream(specs, self.router.shortest_path,
                            raise_on_unreachable)

    async def scatter(self, queries: Sequence["BatchQuery"],
                      graph: Optional[str] = None, method: str = "auto",
                      sql_style: str = NSQL,
                      raise_on_unreachable: bool = False,
                      concurrency: int = 1,
                      checkout_timeout: Optional[float] = None
                      ) -> "ScatterResult":
        """``await``-able :meth:`ShardRouter.shortest_path_many`: one full
        scatter-gather (slice batching, per-shard stats, input order)."""
        return await self._run(
            self.router.shortest_path_many, queries, graph=graph,
            method=method, sql_style=sql_style,
            raise_on_unreachable=raise_on_unreachable,
            concurrency=concurrency, checkout_timeout=checkout_timeout)


__all__ = [
    "DEFAULT_ASYNC_WORKERS",
    "AsyncPathService",
    "AsyncShardRouter",
]
