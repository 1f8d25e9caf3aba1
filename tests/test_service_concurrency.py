"""Tests for parallel batch execution: serial-equality stress, duplicate
replay, capability clamping through the service, error paths, and the
thread-safety of the shared result cache."""

import random
import sys
import threading
import time

import pytest

from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.registry import register_backend, unregister_backend
from repro.errors import InvalidQueryError, PathNotFoundError
from repro.graph.generators import path_graph, random_graph
from repro.service import PathService
from repro.service.cache import ResultCache


def _random_queries(graph, count, seed):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def _shapes(batch):
    return [(None if r is None else (r.distance, list(r.path)))
            for r in batch.results]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("backend", ["minidb", "sqlite"])
    def test_stress_concurrency_8_matches_serial(self, backend):
        graph = random_graph(200, avg_degree=3.0, seed=21)
        queries = _random_queries(graph, 64, seed=22)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph, backend=backend)
            serial = service.shortest_path_many(queries, graph="g")
            parallel = service.shortest_path_many(queries, graph="g",
                                                  concurrency=8)
            assert _shapes(parallel) == _shapes(serial)
            assert parallel.stats.concurrency == 8
            assert parallel.stats.executed == serial.stats.executed

    def test_sqlite_file_backed_clone_pool_matches_serial(self, tmp_path):
        graph = random_graph(150, avg_degree=3.0, seed=31)
        queries = _random_queries(graph, 48, seed=32)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph, backend="sqlite",
                              db_path=str(tmp_path / "conc.db"),
                              concurrency=4)
            serial = service.shortest_path_many(queries, graph="g")
            parallel = service.shortest_path_many(queries, graph="g",
                                                  concurrency=4)
            assert _shapes(parallel) == _shapes(serial)
            stats = service.pool_stats("g")
            assert stats.replicas_cloned >= 1
            assert stats.replicas_rehydrated == 0

    def test_unreachable_pairs_match_serial(self):
        graph = path_graph(5, weight_range=(1, 1))
        graph.add_node(99)  # disconnected island
        queries = [(0, 4), (0, 99), (1, 3), (99, 2)]
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            serial = service.shortest_path_many(queries, graph="g")
            parallel = service.shortest_path_many(queries, graph="g",
                                                  concurrency=4)
            assert _shapes(parallel) == _shapes(serial)
            assert parallel.stats.not_found == serial.stats.not_found == 2

    def test_parallel_after_segtable_build(self):
        graph = random_graph(120, avg_degree=3.0, seed=41)
        queries = _random_queries(graph, 32, seed=42)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph, concurrency=4)
            service.build_segtable("g", lthd=3)
            serial = service.shortest_path_many(queries, graph="g")
            parallel = service.shortest_path_many(queries, graph="g",
                                                  concurrency=4)
            assert _shapes(parallel) == _shapes(serial)
            assert set(parallel.stats.per_method) == {"BSEG"}

    def test_segtable_build_during_parallel_batch(self, tmp_path):
        """A build landing mid-batch drains the pool, never corrupts or
        deadlocks, and post-build batches use the fresh index."""
        graph = random_graph(150, avg_degree=3.0, seed=71)
        queries = _random_queries(graph, 48, seed=72)
        with PathService(cache_size=0) as service:
            # Capacity (8) deliberately exceeds the batch's workers (4):
            # the drain barrier must also stop checkouts from *growing* a
            # fresh reader clone mid-build, not just wait for current ones.
            service.add_graph("g", graph, backend="sqlite",
                              db_path=str(tmp_path / "build_race.db"),
                              concurrency=8)
            errors = []

            def run_batch():
                try:
                    service.shortest_path_many(queries, graph="g",
                                               concurrency=4)
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            thread = threading.Thread(target=run_batch)
            thread.start()
            time.sleep(0.05)  # let the batch get in flight
            service.build_segtable("g", lthd=3)
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert not errors
            serial = service.shortest_path_many(queries, graph="g")
            parallel = service.shortest_path_many(queries, graph="g",
                                                  concurrency=4)
            assert _shapes(parallel) == _shapes(serial)
            assert set(parallel.stats.per_method) == {"BSEG"}

    def test_mixed_graphs_in_one_parallel_batch(self):
        left = path_graph(8, weight_range=(1, 1), seed=1)
        right = path_graph(8, weight_range=(2, 2), seed=2)
        queries = [("left", 0, 7), ("right", 0, 7), ("left", 1, 6),
                   ("right", 1, 6)] * 4
        with PathService() as service:
            service.add_graph("left", left)
            service.add_graph("right", right)
            parallel = service.shortest_path_many(queries, concurrency=4)
            assert parallel.distances()[:2] == [7, 14]
            assert parallel.stats.per_graph == {"left": 8, "right": 8}


class TestSingleFlightAndStats:
    def test_duplicates_execute_once(self):
        graph = path_graph(12, weight_range=(1, 1))
        queries = [(0, 11)] * 32
        with PathService() as service:
            service.add_graph("g", graph)
            batch = service.shortest_path_many(queries, graph="g",
                                               concurrency=8)
            assert len(set(batch.distances())) == 1
            assert batch.stats.executed == 1
            answered_without_executing = (batch.stats.cache_hits
                                          + batch.stats.single_flight_hits)
            assert answered_without_executing == 31
            assert batch.from_cache.count(True) == 31

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_timing_counters_populated(self, concurrency):
        graph = random_graph(100, avg_degree=3.0, seed=51)
        queries = _random_queries(graph, 16, seed=52)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            batch = service.shortest_path_many(queries, graph="g",
                                               concurrency=concurrency)
            assert batch.stats.execute_time > 0.0
            assert batch.stats.queue_time >= 0.0
            as_dict = batch.stats.as_dict()
            for field in ("concurrency", "single_flight_hits", "queue_time_s",
                          "execute_time_s"):
                assert field in as_dict

    def test_counters_reconcile_under_thread_switch_pressure(self):
        # Workers count into one BatchStats: a lost update would leave
        # some answered query uncounted.
        graph = path_graph(12, weight_range=(1, 1))
        queries = [(i % 4, 11 - i % 3) for i in range(96)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PathService() as service:
                service.add_graph("g", graph)
                batch = service.shortest_path_many(queries, graph="g",
                                                   concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        stats = batch.stats
        assert stats.executed == 12  # one per distinct pair
        assert (stats.executed + stats.cache_hits
                + stats.single_flight_hits) == len(queries)
        assert batch.from_cache.count(True) == len(queries) - 12

    def test_parallel_does_not_inflate_cache_counters(self):
        graph = path_graph(10, weight_range=(1, 1))
        queries = [(0, 9), (1, 8), (2, 7), (3, 6)]
        with PathService() as service:
            service.add_graph("g", graph)
            service.shortest_path_many(queries, graph="g", concurrency=4)
            info = service.cache_info()
            # One counted lookup per query, exactly like a serial batch.
            assert info.misses == 4
            assert info.hits == 0

    def test_invalid_concurrency_rejected(self):
        with PathService() as service:
            service.add_graph("g", path_graph(4))
            with pytest.raises(InvalidQueryError):
                service.shortest_path_many([(0, 3)], graph="g",
                                           concurrency=0)


class TestCapabilityClamp:
    def test_serial_only_backend_still_correct_under_concurrency(self):
        class SerialOnlyStore(MiniDBGraphStore):
            supports_concurrent_readers = False

        def factory(path=None, buffer_capacity=256):
            return SerialOnlyStore(path=path,
                                   buffer_capacity=buffer_capacity)

        register_backend("serialonly", factory, replace=True)
        try:
            graph = random_graph(100, avg_degree=3.0, seed=61)
            queries = _random_queries(graph, 24, seed=62)
            with PathService(cache_size=0) as service:
                service.add_graph("g", graph, backend="serialonly",
                                  concurrency=8)
                assert service.pool_stats("g").capacity == 1
                serial = service.shortest_path_many(queries, graph="g")
                parallel = service.shortest_path_many(queries, graph="g",
                                                      concurrency=8)
                assert _shapes(parallel) == _shapes(serial)
                # Never more than the single clamped member was created.
                assert service.pool_stats("g").created == 1
        finally:
            unregister_backend("serialonly")


class TestErrorPaths:
    def test_unreachable_parallel_member_stays_none(self):
        graph = path_graph(5, weight_range=(1, 1))
        graph.add_node(99)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            batch = service.shortest_path_many([(0, 4), (0, 99), (1, 3)],
                                               graph="g", concurrency=4)
            assert batch.results[1] is None
            assert batch.results[0] is not None
            assert batch.results[2] is not None
            assert batch.stats.not_found == 1

    def test_pool_healthy_after_unreachable_failures(self):
        graph = path_graph(5, weight_range=(1, 1))
        graph.add_node(99)
        queries = [(0, 99), (99, 1), (0, 4), (1, 3)] * 4
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            for _ in range(3):  # leaked members would exhaust the pool
                batch = service.shortest_path_many(queries, graph="g",
                                                   concurrency=4)
                assert batch.stats.not_found == 8
            assert service.pool_stats("g").in_use == 0


class TestThreadSafeCache:
    def test_result_cache_survives_concurrent_hammering(self):
        from repro.core.path import PathResult

        cache = ResultCache(capacity=64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(500):
                    key = ("g", worker % 4, i % 100, "DJ", "nsql")
                    cache.put(key, PathResult(0, 1, 1.0, [0, 1], None))
                    cache.get(key)
                    if i % 50 == 0:
                        cache.invalidate_graph("g")
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * 500

    def test_single_flight_followers_get_leader_result(self):
        # No cache remembers the answer: the duplicate replays its
        # leader's outcome, whichever worker thread runs the group.
        graph = path_graph(12, weight_range=(1, 1))
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            batch = service.shortest_path_many([(0, 11), (2, 9), (0, 11)],
                                               graph="g", concurrency=4)
        assert batch.from_cache == [False, False, True]
        assert batch.stats.executed == 2
        assert batch.stats.single_flight_hits == 1
        assert batch.results[2].path == batch.results[0].path
        assert batch.results[2] is not batch.results[0]

    def test_single_flight_failure_propagates(self):
        graph = path_graph(5, weight_range=(1, 1))
        graph.add_node(99)
        with PathService(cache_size=0) as service:
            service.add_graph("g", graph)
            batch = service.shortest_path_many([(0, 99), (1, 3), (0, 99)],
                                               graph="g", concurrency=4)
        assert batch.results[0] is None and batch.results[2] is None
        assert batch.stats.executed == 2
        assert batch.stats.not_found == 2
        assert batch.stats.single_flight_hits == 1
