"""Tests for the asyncio front end: ``await``-able queries and
``async for`` batch streaming over both the service and the router."""

import asyncio
import os

import pytest

from repro.errors import (
    DeadlineExceededError,
    PathNotFoundError,
    UnknownGraphError,
)
from repro.graph.generators import grid_graph, path_graph, power_law_graph
from repro.graph.model import Graph
from repro.serve.aio import AsyncPathService, AsyncShardRouter
from repro.service import PathService, QuerySpec
from repro.shard import ShardRouter

# Queries whose answers depend on the QuerySpec fields beyond the pair:
# on this weighted path graph the hop kinds answer a hop count (5), the
# default weighted search a different distance.
FIELD_QUERIES = [
    {"source": 0, "target": 5, "kind": "reachability"},
    {"source": 0, "target": 5, "kind": "bounded_hop", "max_hops": 5},
    {"source": 0, "target": 5},
]


def _answers(results):
    return [(r.stats.method, r.distance, tuple(r.path)) for r in results]


def _streamed(owner, queries, **kwargs):
    """Stream ``queries`` through ``owner.as_async()``; input order."""
    async def go():
        got = {}
        async with owner.as_async() as aio:
            async for index, result in aio.shortest_path_many(queries,
                                                              **kwargs):
                got[index] = result
        return [got[i] for i in range(len(queries))]

    return asyncio.run(go())


def _seed_catalog(catalog_dir, graphs):
    with PathService(catalog_path=catalog_dir) as service:
        for name, graph in graphs.items():
            service.add_graph(name, graph, backend="sqlite",
                              db_path=os.path.join(catalog_dir, f"{name}.db"))


def _shape(result):
    return None if result is None else (result.distance, tuple(result.path))


@pytest.fixture
def service():
    split = Graph()
    split.add_edge(1, 2, 1.0)
    split.add_edge(3, 4, 1.0)
    with PathService() as svc:
        svc.add_graph("g", power_law_graph(50, edges_per_node=2, seed=5))
        svc.add_graph("split", split)
        yield svc


class TestAsyncPathService:
    def test_as_async_returns_borrowing_facade(self, service):
        aio = service.as_async()
        assert isinstance(aio, AsyncPathService)
        assert aio.service is service

    def test_await_matches_sync(self, service):
        expected = _shape(service.shortest_path(0, 20, graph="g"))

        async def go():
            async with service.as_async() as aio:
                return await aio.shortest_path(0, 20, graph="g")

        assert _shape(asyncio.run(go())) == expected

    def test_await_explain(self, service):
        expected = service.explain(0, 20, graph="g").method

        async def go():
            async with service.as_async() as aio:
                plan = await aio.explain(0, 20, graph="g")
                return plan.method

        assert asyncio.run(go()) == expected

    def test_async_for_streams_every_index_once(self, service):
        queries = [("g", 0, t) for t in (5, 10, 15, 20, 25)]
        expected = [_shape(r) for r in
                    service.shortest_path_many(queries).results]

        async def go():
            got = {}
            async with service.as_async(max_workers=3) as aio:
                async for index, result in aio.shortest_path_many(queries):
                    assert index not in got
                    got[index] = _shape(result)
            return got

        got = asyncio.run(go())
        assert sorted(got) == list(range(len(queries)))
        assert [got[i] for i in range(len(queries))] == expected

    def test_gather_keeps_input_order(self, service):
        queries = [("g", 0, 25), ("split", 1, 4), ("g", 0, 5)]

        async def go():
            async with service.as_async() as aio:
                return await aio.gather(queries)

        results = asyncio.run(go())
        assert results[1] is None  # unreachable pair -> None slot
        assert results[0] is not None and results[2] is not None
        assert _shape(results[0]) == _shape(
            service.shortest_path(0, 25, graph="g"))

    def test_raise_on_unreachable_propagates(self, service):
        async def go():
            async with service.as_async() as aio:
                await aio.gather([("split", 1, 4)],
                                 raise_on_unreachable=True)

        with pytest.raises(PathNotFoundError):
            asyncio.run(go())

    def test_query_errors_propagate_through_await(self, service):
        async def go():
            async with service.as_async() as aio:
                await aio.shortest_path(0, 1, graph="nope")

        with pytest.raises(UnknownGraphError):
            asyncio.run(go())

    def test_aclose_leaves_the_service_usable(self, service):
        async def go():
            aio = service.as_async()
            await aio.shortest_path(0, 20, graph="g")
            await aio.aclose()
            await aio.aclose()  # idempotent

        asyncio.run(go())
        assert service.shortest_path(0, 20, graph="g") is not None

    def test_concurrent_awaits_share_the_single_flight(self, service):
        async def go():
            async with service.as_async(max_workers=4) as aio:
                return await asyncio.gather(*[
                    aio.shortest_path(0, 20, graph="g") for _ in range(8)])

        results = asyncio.run(go())
        shapes = {_shape(r) for r in results}
        assert len(shapes) == 1  # all eight awaited the same answer

    def test_stream_forwards_every_query_field(self):
        with PathService() as svc:
            svc.add_graph("default", path_graph(6, weight_range=(1, 5),
                                                seed=3))
            expected = _answers(svc.shortest_path_many(FIELD_QUERIES))
            assert expected[0][:2] == ("REACH", 5.0)
            assert _answers(_streamed(svc, FIELD_QUERIES)) == expected
            expired = [QuerySpec(source=0, target=5, timeout_s=1e-9)]
            with pytest.raises(DeadlineExceededError):
                _streamed(svc, expired)


class TestAsyncShardRouter:
    @pytest.fixture
    def router(self, tmp_path):
        cat_a = str(tmp_path / "a")
        cat_b = str(tmp_path / "b")
        _seed_catalog(cat_a, {"alpha": power_law_graph(
            50, edges_per_node=2, seed=6)})
        _seed_catalog(cat_b, {"gamma": grid_graph(5, 5, seed=7)})
        with ShardRouter.open([cat_a, cat_b]) as opened:
            yield opened

    def test_as_async_returns_borrowing_facade(self, router):
        aio = router.as_async()
        assert isinstance(aio, AsyncShardRouter)
        assert aio.router is router

    def test_await_routes_to_the_owner(self, router):
        expected = _shape(router.shortest_path(0, 20, graph="alpha"))

        async def go():
            async with router.as_async() as aio:
                return await aio.shortest_path(0, 20, graph="alpha")

        assert _shape(asyncio.run(go())) == expected

    def test_async_for_routes_each_query_independently(self, router):
        queries = [("alpha", 0, 10), ("gamma", 0, 24), ("alpha", 0, 20)]
        expected = [_shape(r) for r in
                    router.shortest_path_many(queries).results]

        async def go():
            got = {}
            async with router.as_async() as aio:
                async for index, result in aio.shortest_path_many(queries):
                    got[index] = _shape(result)
            return [got[i] for i in range(len(queries))]

        assert asyncio.run(go()) == expected

    def test_stream_forwards_every_query_field(self, tmp_path):
        catalog = str(tmp_path / "p")
        _seed_catalog(catalog, {"p": path_graph(6, weight_range=(1, 5),
                                                seed=3)})
        with ShardRouter.open([catalog]) as router:
            expected = _answers(
                router.shortest_path_many(FIELD_QUERIES, graph="p").results)
            assert expected[0][:2] == ("REACH", 5.0)
            assert _answers(_streamed(router, FIELD_QUERIES,
                                      graph="p")) == expected

    def test_scatter_returns_the_full_scatter_result(self, router):
        queries = [("alpha", 0, 10), ("gamma", 0, 24)]
        expected = router.shortest_path_many(queries)

        async def go():
            async with router.as_async() as aio:
                return await aio.scatter(queries, concurrency=2)

        scatter = asyncio.run(go())
        assert [_shape(r) for r in scatter.results] == [
            _shape(r) for r in expected.results]
        assert scatter.stats.total == 2
        assert set(scatter.stats.per_shard) == {"a", "b"}

    def test_await_explain(self, router):
        async def go():
            async with router.as_async() as aio:
                return await aio.explain(0, 24, graph="gamma")

        assert asyncio.run(go()).method == router.explain(
            0, 24, graph="gamma").method
