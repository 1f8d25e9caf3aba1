"""Metrics under concurrency: a parallel batch, a thread storm, and a
mid-batch failover (reusing the ``test_serve_failover`` harness) must all
leave the registry consistent — counter sums equal batch totals, no lost
increments, histogram counts match executed queries."""

import sys
import threading
from types import SimpleNamespace

from test_serve_failover import (
    BATCH,
    REPLICATED,
    _DyingOnExecuteHandler,
    _seed_catalog,
    _shapes,
)

from repro.errors import ShardUnavailableError
from repro.graph.generators import power_law_graph
from repro.obs.schema import (
    METRIC_CACHE_HITS,
    METRIC_CACHE_MISSES,
    METRIC_FAILOVERS,
    METRIC_QUERIES,
    METRIC_QUERY_LATENCY,
    METRIC_ROUTER_QUERIES,
    METRIC_SHARD_ERRORS,
)
from repro.serve import ShardServer
from repro.service import PathService
from repro.shard import Route, RouterStats, RoutingTable, ShardRouter

GRAPH = power_law_graph(100, edges_per_node=2, seed=21)


class TestParallelBatch:
    def test_parallel_batch_counts_are_exact(self):
        with PathService() as service:
            service.add_graph("g", GRAPH, backend="sqlite")
            pairs = [(0, t) for t in range(40, 80)]
            batch = service.shortest_path_many(pairs, graph="g",
                                               concurrency=4)
            registry = service.registry
            stats = batch.stats
            assert stats.total == len(pairs)
            # Every executed query was counted exactly once — by the
            # query counter AND the latency histogram.
            assert registry.total(METRIC_QUERIES) == stats.executed
            assert registry.summary(METRIC_QUERY_LATENCY)["count"] == \
                stats.executed
            # A second identical parallel batch answers from cache; the
            # hit counters absorb exactly the batch's hits.
            hits_before = registry.total(METRIC_CACHE_HITS)
            again = service.shortest_path_many(pairs, graph="g",
                                               concurrency=4)
            assert again.stats.executed == 0
            assert registry.total(METRIC_CACHE_HITS) - hits_before == \
                again.stats.cache_hits == len(pairs)
            assert registry.total(METRIC_QUERIES) == stats.executed

    def test_thread_storm_loses_no_increments(self):
        with PathService() as service:
            service.add_graph("g", GRAPH, backend="sqlite")
            threads, per_thread = 8, 12
            errors = []

            def work(offset):
                try:
                    for i in range(per_thread):
                        target = 40 + (offset * per_thread + i) % 50
                        service.shortest_path(0, target, graph="g",
                                              use_cache=False)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            workers = [threading.Thread(target=work, args=(n,))
                       for n in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert not errors
            total = threads * per_thread
            registry = service.registry
            assert registry.total(METRIC_QUERIES) == total
            assert registry.summary(METRIC_QUERY_LATENCY)["count"] == total


REP2 = [("rep2", 0, t) for t in (4, 8, 12, 16, 20)]
TWO_GRAPHS = {**REPLICATED,
              "rep2": power_law_graph(40, edges_per_node=2, seed=9)}
# The two graphs' queries interleave, so the merge must restore input order.
TWO_GRAPH_BATCH = ([query for pair in zip(BATCH, REP2) for query in pair]
                   + BATCH[len(REP2):])


class _DyingTogetherHandler(_DyingOnExecuteHandler):
    """Holds each ``/execute`` until both graph slices have arrived, then
    dies on both: the two slices fail over concurrently, and neither is
    routed around the shard before it went down."""

    barrier = threading.Barrier(2)

    def do_POST(self):  # noqa: N802 - http.server API
        if self.path == "/execute":
            try:
                self.barrier.wait(timeout=10)
            except threading.BrokenBarrierError:
                pass
        super().do_POST()


def _check_mid_batch_failover(tmp_path, graphs, batch, handler_class):
    cat_primary = str(tmp_path / "primary")
    cat_replica = str(tmp_path / "replica")
    _seed_catalog(cat_primary, graphs, lthd=3.0)
    _seed_catalog(cat_replica, graphs, lthd=3.0)
    with PathService.open(cat_replica) as reference:
        expected = _shapes(reference.shortest_path_many(batch).results)
    service = PathService.open(cat_primary, shard_id="primary")
    with ShardServer(service, port=0, own_service=True,
                     handler_class=handler_class) as server:
        remote_name = f"{server.host}:{server.port}"
        with ShardRouter.open([server.url, cat_replica],
                              remote_retries=0) as router:
            scatter = router.shortest_path_many(batch, concurrency=2)
            assert all(r is not None for r in scatter.results)
            assert _shapes(scatter.results) == expected
            registry = router.registry
            stats = scatter.stats
            # Failover and error counters mirror the batch stats.
            assert stats.failovers == len(batch)
            assert registry.total(METRIC_FAILOVERS) == stats.failovers
            assert registry.value(METRIC_SHARD_ERRORS,
                                  {"shard": remote_name}) == \
                stats.per_shard_errors[remote_name]
            # Every query the batch reports as executed ran on the
            # local replica, which publishes into the SAME registry.
            assert stats.executed == len(batch)
            assert registry.total(METRIC_QUERIES) == stats.executed
            assert registry.summary(METRIC_QUERY_LATENCY)["count"] == \
                stats.executed
            assert registry.total(METRIC_ROUTER_QUERIES) == len(batch)
    return stats, remote_name


class TestFailoverConsistency:
    def test_mid_batch_failover_keeps_registry_consistent(self, tmp_path):
        _check_mid_batch_failover(tmp_path, REPLICATED, BATCH,
                                  _DyingOnExecuteHandler)

    def test_two_graph_slices_fail_over_concurrently(self, tmp_path):
        # One dying shard owns both replicated graphs: each graph's slice
        # fails over on its own thread, one transport error each.
        stats, remote_name = _check_mid_batch_failover(
            tmp_path, TWO_GRAPHS, TWO_GRAPH_BATCH, _DyingTogetherHandler)
        assert stats.per_shard_errors[remote_name] == 2

    def test_concurrent_failovers_lose_no_counts(self):
        # Many slice threads failing over at once share one RouterStats:
        # every failure and every re-routed query must be counted once.
        router = ShardRouter(
            [SimpleNamespace(spec=SimpleNamespace(name=name))
             for name in ("a", "b")],
            RoutingTable({"g": Route(graph="g", shard="a", fingerprint="f",
                                     replicas=("b",))}))
        stats = RouterStats()
        threads, calls, weight = 8, 40, 3

        def first_attempt_fails():
            tries = []

            def call(shard):
                tries.append(shard)
                if len(tries) == 1:
                    raise ShardUnavailableError(f"{shard} dropped the call")
                return shard
            return call

        def work():
            for _ in range(calls):
                router._failover("g", first_attempt_fails(), weight=weight,
                                 stats=stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        failures = threads * calls
        assert stats.transport_errors == failures
        assert stats.failovers == failures * weight
        assert router.registry.total(METRIC_SHARD_ERRORS) == failures
        assert router.registry.total(METRIC_FAILOVERS) == stats.failovers
        assert sum(health["errors"] for health
                   in router.shard_health().values()) == failures

    def test_failover_counters_survive_repeat_batches(self, tmp_path):
        cat_primary = str(tmp_path / "primary")
        cat_replica = str(tmp_path / "replica")
        _seed_catalog(cat_primary, REPLICATED, lthd=3.0)
        _seed_catalog(cat_replica, REPLICATED, lthd=3.0)
        service = PathService.open(cat_primary, shard_id="primary")
        with ShardServer(service, port=0, own_service=True,
                         handler_class=_DyingOnExecuteHandler) as server:
            with ShardRouter.open([server.url, cat_replica],
                                  remote_retries=0) as router:
                first = router.shortest_path_many(BATCH, concurrency=2)
                second = router.shortest_path_many(BATCH, concurrency=2)
                registry = router.registry
                # Counters accumulate across batches without double or
                # lost counting: the second batch answers from the
                # replica's cache (down-shard routing skips the failover
                # detour), so only executed queries add latency samples.
                expected_failovers = (first.stats.failovers
                                      + second.stats.failovers)
                assert registry.total(METRIC_FAILOVERS) == expected_failovers
                executed = first.stats.executed + second.stats.executed
                assert registry.total(METRIC_QUERIES) == executed
                assert registry.summary(METRIC_QUERY_LATENCY)["count"] == \
                    executed
                hits = first.stats.cache_hits + second.stats.cache_hits
                assert registry.total(METRIC_CACHE_HITS) == hits
                assert registry.total(METRIC_CACHE_MISSES) >= \
                    first.stats.executed
