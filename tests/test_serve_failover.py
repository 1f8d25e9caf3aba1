"""Transport failure modes: a server dying mid-batch, connection refused
at open, a slow shard hitting the client timeout, client-level retries —
and the failover guarantee that replica answers are bit-identical with
zero wrong answers.  Also covers the opt-in shared cross-shard cache."""

import os
import socket

import pytest

from repro.errors import PathNotFoundError, ShardUnavailableError
from repro.graph.generators import power_law_graph
from repro.graph.model import Graph
from repro.obs.schema import METRIC_FAILOVERS
from repro.serve import ShardClient, ShardServer
from repro.serve.server import _ShardRequestHandler
from repro.service import PathService
from repro.service.planner import QuerySpec
from repro.shard import ShardRouter


def _seed_catalog(catalog_dir, graphs, lthd=None):
    with PathService(catalog_path=catalog_dir) as service:
        for name, graph in graphs.items():
            service.add_graph(name, graph, backend="sqlite",
                              db_path=os.path.join(catalog_dir, f"{name}.db"))
            if lthd is not None:
                service.build_segtable(name, lthd=lthd)


def _shapes(results):
    return [(None if r is None else (r.distance, tuple(r.path)))
            for r in results]


def _free_port():
    """A port that was just bound and released: connecting to it refuses."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _die(handler):
    """Drop the connection without answering (the client sees the server
    die mid-request)."""
    try:
        handler.connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    handler.close_connection = True


class _DyingOnExecuteHandler(_ShardRequestHandler):
    """Answers everything except ``/execute`` — planning succeeds, then
    the server 'dies' the moment the batch slice arrives (and stays dead
    for every later execute)."""

    def do_POST(self):  # noqa: N802 - http.server API
        if self.path == "/execute":
            _die(self)
            return
        super().do_POST()


class _SlowExecuteHandler(_ShardRequestHandler):
    """Sleeps past the client timeout on ``/execute`` only."""

    delay = 1.5

    def do_POST(self):  # noqa: N802 - http.server API
        if self.path == "/execute":
            import time
            time.sleep(self.delay)
        try:
            super().do_POST()
        except (ConnectionError, OSError):
            pass  # the client hung up during the sleep; expected


class _FlakyOnceHandler(_ShardRequestHandler):
    """Drops exactly the first ``/shortest_path`` connection, then
    behaves — the client's transport-level retry should absorb it."""

    def do_POST(self):  # noqa: N802 - http.server API
        if (self.path == "/shortest_path"
                and not getattr(self.server, "flaked", False)):
            self.server.flaked = True
            _die(self)
            return
        super().do_POST()


REPLICATED = {"rep": power_law_graph(50, edges_per_node=2, seed=4)}
BATCH = [("rep", 0, t) for t in (5, 10, 15, 20, 25, 30, 35, 40)]


@pytest.fixture
def replicated(tmp_path):
    """Two catalogs hosting the identical graph (same fingerprint): the
    first is served remotely as the owner, the second is a local
    replica."""
    cat_primary = str(tmp_path / "primary")
    cat_replica = str(tmp_path / "replica")
    _seed_catalog(cat_primary, REPLICATED, lthd=3.0)
    _seed_catalog(cat_replica, REPLICATED, lthd=3.0)
    return cat_primary, cat_replica


def _expected(cat_replica):
    with PathService.open(cat_replica) as service:
        return _shapes(service.shortest_path_many(BATCH).results)


class TestConnectionRefusedAtOpen:
    def test_router_open_fails_immediately(self):
        with pytest.raises(ShardUnavailableError, match="unreachable"):
            ShardRouter.open([f"http://127.0.0.1:{_free_port()}"])

    def test_client_health_raises_without_retry_delay(self):
        client = ShardClient(f"http://127.0.0.1:{_free_port()}", retries=5)
        with pytest.raises(ShardUnavailableError):
            client.health()  # health never retries


class TestServerDiesMidBatch:
    def test_batch_completes_via_replica_bit_identical(self, replicated):
        cat_primary, cat_replica = replicated
        expected = _expected(cat_replica)
        service = PathService.open(cat_primary, shard_id="primary")
        with ShardServer(service, port=0, own_service=True,
                         handler_class=_DyingOnExecuteHandler) as server:
            remote_name = f"{server.host}:{server.port}"
            with ShardRouter.open([server.url, cat_replica],
                                  remote_retries=0) as router:
                assert router.owner("rep") == remote_name
                scatter = router.shortest_path_many(BATCH, concurrency=2)
                # Zero wrong answers: every result matches the replica's
                # own (= the monolith's) answer, nothing dropped.
                assert _shapes(scatter.results) == expected
                assert all(result is not None for result in scatter.results)
                # The detour is visible in the batch accounting.
                assert scatter.stats.failovers == len(BATCH)
                assert scatter.stats.per_shard_errors[remote_name] >= 1
                assert set(scatter.shard_of) == {"replica"}
                # ... and in the router's lifetime health view.
                health = router.shard_health()
                assert health[remote_name]["errors"] >= 1
                assert health[remote_name]["down"] is True
                assert health["replica"]["errors"] == 0

    def test_server_killed_between_batches_fails_over(self, replicated):
        cat_primary, cat_replica = replicated
        expected = _expected(cat_replica)
        service = PathService.open(cat_primary, shard_id="primary")
        server = ShardServer(service, port=0, own_service=True).start()
        remote_name = f"{server.host}:{server.port}"
        with ShardRouter.open([server.url, cat_replica],
                              remote_retries=0) as router:
            first = router.shortest_path_many(BATCH)
            assert _shapes(first.results) == expected
            assert set(first.shard_of) == {remote_name}
            server.close()  # the owner goes away mid-workload
            second = router.shortest_path_many(BATCH)
            assert _shapes(second.results) == expected
            assert set(second.shard_of) == {"replica"}
            assert second.stats.per_shard_errors[remote_name] >= 1
            report = router.check_health()
            assert report[remote_name]["status"] == "down"
            assert report["replica"]["status"] == "ok"

    def test_single_query_fails_over_bit_identical(self, replicated):
        cat_primary, cat_replica = replicated
        service = PathService.open(cat_primary, shard_id="primary")
        server = ShardServer(service, port=0, own_service=True).start()
        remote_name = f"{server.host}:{server.port}"
        with ShardRouter.open([server.url, cat_replica],
                              remote_retries=0) as router:
            before = router.shortest_path(0, 20, graph="rep")
            server.close()
            after = router.shortest_path(0, 20, graph="rep", use_cache=False)
            assert after.distance == before.distance
            assert list(after.path) == list(before.path)
            assert router.shard_health()[remote_name]["errors"] >= 1

    def test_explain_fails_over_like_a_query(self, replicated):
        cat_primary, cat_replica = replicated
        service = PathService.open(cat_primary, shard_id="primary")
        server = ShardServer(service, port=0, own_service=True).start()
        remote_name = f"{server.host}:{server.port}"
        with ShardRouter.open([server.url, cat_replica],
                              remote_retries=0) as router:
            server.close()
            plan = router.explain(0, 20, graph="rep")
            assert plan.method == router.service("replica").explain(
                0, 20, graph="rep").method
            assert router.shard_health()[remote_name]["errors"] == 1
            assert router.registry.value(METRIC_FAILOVERS,
                                         {"shard": remote_name}) == 1

    def test_no_replica_left_raises_shard_unavailable(self, tmp_path):
        catalog = str(tmp_path / "only")
        _seed_catalog(catalog, REPLICATED)
        service = PathService.open(catalog, shard_id="only")
        server = ShardServer(service, port=0, own_service=True).start()
        with ShardRouter.open([server.url], remote_retries=0) as router:
            server.close()
            with pytest.raises(ShardUnavailableError):
                router.shortest_path(0, 20, graph="rep")
            with pytest.raises(ShardUnavailableError):
                router.shortest_path_many(BATCH)
            # No replica existed, so nothing was re-routed: neither the
            # single query nor the batch counts a failover.
            assert router.registry.total(METRIC_FAILOVERS) == 0


class TestSlowShard:
    def test_client_timeout_triggers_failover(self, replicated):
        cat_primary, cat_replica = replicated
        expected = _expected(cat_replica)
        service = PathService.open(cat_primary, shard_id="primary")
        with ShardServer(service, port=0, own_service=True,
                         handler_class=_SlowExecuteHandler) as server:
            remote_name = f"{server.host}:{server.port}"
            with ShardRouter.open([server.url, cat_replica],
                                  remote_timeout=0.25,
                                  remote_retries=0) as router:
                scatter = router.shortest_path_many(BATCH)
                assert _shapes(scatter.results) == expected
                assert set(scatter.shard_of) == {"replica"}
                assert scatter.stats.per_shard_errors[remote_name] >= 1


class TestClientRetry:
    def test_transient_drop_is_absorbed_by_retry(self, tmp_path):
        catalog = str(tmp_path / "flaky")
        _seed_catalog(catalog, REPLICATED)
        service = PathService.open(catalog, shard_id="flaky")
        with ShardServer(service, port=0, own_service=True,
                         handler_class=_FlakyOnceHandler) as server:
            client = ShardClient(server.url, retries=2)
            result = client.shortest_path(
                QuerySpec(source=0, target=20, graph="rep"))
            assert result.distance > 0
            local = service.shortest_path(0, 20, graph="rep",
                                          use_cache=False)
            assert result.distance == local.distance

    def test_zero_retries_surfaces_the_drop(self, tmp_path):
        catalog = str(tmp_path / "flaky0")
        _seed_catalog(catalog, REPLICATED)
        service = PathService.open(catalog, shard_id="flaky0")
        with ShardServer(service, port=0, own_service=True,
                         handler_class=_FlakyOnceHandler) as server:
            client = ShardClient(server.url, retries=0)
            with pytest.raises(ShardUnavailableError):
                client.shortest_path(
                    QuerySpec(source=0, target=20, graph="rep"))


class TestSharedCrossShardCache:
    @pytest.fixture
    def replica_pair(self, tmp_path):
        """Two local catalogs hosting the same graph (plus a graph with a
        disconnected pair, for negative caching)."""
        disconnected = Graph()
        disconnected.add_edge(1, 2, 1.0)
        disconnected.add_edge(3, 4, 1.0)
        graphs = dict(REPLICATED)
        graphs["split"] = disconnected
        cat_a = str(tmp_path / "a")
        cat_b = str(tmp_path / "b")
        _seed_catalog(cat_a, graphs)
        _seed_catalog(cat_b, graphs)
        return cat_a, cat_b

    def test_disabled_by_default(self, replica_pair):
        cat_a, cat_b = replica_pair
        with ShardRouter.open([cat_a, cat_b]) as router:
            assert router.shared_cache_info() is None
            router.shortest_path(0, 20, graph="rep")
            assert router.shared_cache_info() is None

    def test_repeat_query_hits_shared_cache(self, replica_pair):
        cat_a, cat_b = replica_pair
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            first = router.shortest_path(0, 20, graph="rep")
            info = router.shared_cache_info()
            assert info.size == 1 and info.hits == 0
            second = router.shortest_path(0, 20, graph="rep")
            assert router.shared_cache_info().hits == 1
            assert second.distance == first.distance
            assert list(second.path) == list(first.path)
            # The cache hands out copies: mutating one answer must not
            # poison the cached entry.
            second.path.append(-1)
            third = router.shortest_path(0, 20, graph="rep")
            assert list(third.path) == list(first.path)

    def test_batch_counts_shared_cache_hits(self, replica_pair):
        cat_a, cat_b = replica_pair
        batch = [("rep", 0, t) for t in (5, 10, 15)]
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            first = router.shortest_path_many(batch)
            assert first.stats.shared_cache_hits == 0
            second = router.shortest_path_many(batch)
            assert second.stats.shared_cache_hits == len(batch)
            assert second.from_cache == [True] * len(batch)
            assert _shapes(second.results) == _shapes(first.results)
            # No shard ran anything the second time.
            assert second.stats.executed == 0

    def test_negative_verdicts_are_shared(self, replica_pair):
        cat_a, cat_b = replica_pair
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            with pytest.raises(PathNotFoundError):
                router.shortest_path(1, 4, graph="split")
            with pytest.raises(PathNotFoundError):
                router.shortest_path(1, 4, graph="split")
            assert router.shared_cache_info().negative_hits == 1
            # Batches consult the same negative entries.
            scatter = router.shortest_path_many([("split", 1, 4)])
            assert scatter.results == [None]
            assert scatter.from_cache == [True]
            assert scatter.stats.shared_cache_hits == 1

    def test_single_queries_replay_batch_filled_entries(self, replica_pair):
        """Batches and single queries fill and read the shared cache
        through one answer path: a batch's answers and unreachable
        verdicts serve later single queries without asking any shard."""
        cat_a, cat_b = replica_pair
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            scatter = router.shortest_path_many([("rep", 0, 20),
                                                 ("split", 1, 4)])
            assert scatter.results[1] is None
            before = {shard: router.service(shard).cache_info()
                      for shard in router.shards()}
            single = router.shortest_path(0, 20, graph="rep")
            assert _shapes([single]) == _shapes(scatter.results[:1])
            with pytest.raises(PathNotFoundError, match="from 1 to 4"):
                router.shortest_path(1, 4, graph="split")
            info = router.shared_cache_info()
            assert (info.hits, info.negative_hits) == (1, 1)
            assert {shard: router.service(shard).cache_info()
                    for shard in router.shards()} == before

    def test_batch_answers_are_copies(self, replica_pair):
        cat_a, cat_b = replica_pair
        batch = [("rep", 0, 20)]
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            first = router.shortest_path_many(batch)
            expected = list(first.results[0].path)
            first.results[0].path.append(-1)
            second = router.shortest_path_many(batch)
            assert second.from_cache == [True]
            assert list(second.results[0].path) == expected
            second.results[0].path.append(-1)
            assert list(router.shortest_path(0, 20, graph="rep").path) == (
                expected)

    def test_capped_queries_bypass_the_shared_cache(self, replica_pair):
        cat_a, cat_b = replica_pair
        with ShardRouter.open([cat_a, cat_b],
                              shared_cache_size=32) as router:
            router.shortest_path(0, 20, graph="rep", max_iterations=64)
            assert router.shared_cache_info().size == 0

    def test_cached_answer_survives_owner_death(self, replicated):
        """Cross-shard sharing, the acceptance shape: an answer cached
        from the (remote) owner keeps serving after that owner dies,
        without even counting a failover."""
        cat_primary, cat_replica = replicated
        service = PathService.open(cat_primary, shard_id="primary")
        server = ShardServer(service, port=0, own_service=True).start()
        remote_name = f"{server.host}:{server.port}"
        with ShardRouter.open([server.url, cat_replica],
                              remote_retries=0,
                              shared_cache_size=32) as router:
            before = router.shortest_path(0, 20, graph="rep")
            server.close()
            after = router.shortest_path(0, 20, graph="rep")
            assert after.distance == before.distance
            assert list(after.path) == list(before.path)
            # Served from the shared cache: the dead owner was never
            # touched, so its health record stays clean.
            assert router.shard_health()[remote_name]["errors"] == 0
