"""Tests for shortest_path_many: grouping, caching, stats, and the
100+-mixed-query acceptance workload with a measured cache speedup."""

import time

import pytest

from repro.errors import InvalidQueryError, PathNotFoundError, UnknownGraphError
from repro.graph.generators import grid_graph, path_graph, power_law_graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import BatchResult, PathService, QuerySpec


class TestBatchBasics:
    def test_empty_batch(self):
        with PathService() as service:
            service.add_graph("default", path_graph(4))
            batch = service.shortest_path_many([])
            assert len(batch) == 0
            assert batch.stats.total == 0
            assert batch.stats.cache_hits == 0
            assert batch.distances() == []

    def test_results_aligned_with_input_order(self):
        graph = path_graph(6, weight_range=(2, 2))
        with PathService() as service:
            service.add_graph("default", graph)
            batch = service.shortest_path_many([(0, 5), (0, 3), (1, 2)])
            assert batch.distances() == [10, 6, 2]
            assert [spec.target for spec in batch.specs] == [5, 3, 2]

    def test_duplicate_pairs_hit_cache(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([(0, 24)] * 5)
            assert batch.stats.cache_hits == 4
            assert batch.stats.cache_misses == 1
            assert batch.stats.executed == 1
            assert len(set(batch.distances())) == 1

    def test_unreachable_pairs_counted(self):
        graph = path_graph(3)
        graph.add_node(9)
        with PathService() as service:
            service.add_graph("default", graph)
            batch = service.shortest_path_many([(0, 2), (0, 9)])
            assert batch.results[0] is not None
            assert batch.results[1] is None
            assert batch.stats.not_found == 1
            assert batch.distances()[1] is None
            assert len(batch.found()) == 1

    def test_unreachable_can_raise(self):
        graph = path_graph(3)
        graph.add_node(9)
        with PathService() as service:
            service.add_graph("default", graph)
            with pytest.raises(PathNotFoundError):
                service.shortest_path_many([(0, 9)], raise_on_unreachable=True)

    def test_mixed_methods_per_query(self, small_grid_graph):
        expected = dijkstra_shortest_path(small_grid_graph, 0, 24).distance
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([
                QuerySpec(source=0, target=24, method="BDJ"),
                QuerySpec(source=0, target=24, method="MDJ"),
                QuerySpec(source=0, target=24, method="auto"),
                ("default", 0, 24, "BSDJ"),
            ])
            assert all(abs(d - expected) < 1e-6 for d in batch.distances())
            assert batch.stats.per_method["BDJ"] == 1
            assert batch.stats.per_method["MDJ"] == 1
            assert batch.stats.per_method["BSDJ"] == 1

    def test_multi_graph_batch_grouping(self):
        with PathService() as service:
            service.add_graph("a", path_graph(5, weight_range=(1, 1)))
            service.add_graph("b", path_graph(5, weight_range=(3, 3)))
            batch = service.shortest_path_many(
                [("a", 0, 4), ("b", 0, 4), ("a", 1, 3), ("b", 1, 3)])
            assert batch.distances() == [4, 12, 2, 6]
            assert batch.stats.per_graph == {"a": 2, "b": 2}

    def test_dict_query_form(self):
        with PathService() as service:
            service.add_graph("default", path_graph(4, weight_range=(1, 1)))
            batch = service.shortest_path_many(
                [{"source": 0, "target": 3, "method": "BDJ"}])
            assert batch.distances() == [3]

    def test_malformed_query_rejected_before_execution(self):
        with PathService() as service:
            service.add_graph("default", path_graph(4))
            with pytest.raises(InvalidQueryError):
                service.shortest_path_many([(0, 1, 2, 3, 4)])

    def test_bad_graph_fails_whole_batch_upfront(self):
        with PathService() as service:
            service.add_graph("default", path_graph(4))
            with pytest.raises(UnknownGraphError):
                service.shortest_path_many([(0, 1), ("missing", 0, 1)])

    def test_batch_total_time_recorded(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([(0, 24)])
            assert batch.stats.total_time > 0


class TestBatchAcceptance:
    """The PR acceptance workload: >= 100 mixed queries, correct distances,
    and a measured cache-hit speedup over sequential one-shot calls."""

    def _build_workload(self, graph, repeats=4):
        nodes = sorted(graph.nodes())
        pairs = []
        rng_pairs = [(nodes[i], nodes[-1 - i]) for i in range(15)]
        methods = ["auto", "BDJ", "BSDJ", "MDJ", "MBDJ"]
        for index, (source, target) in enumerate(rng_pairs):
            method = methods[index % len(methods)]
            pairs.append(QuerySpec(source=source, target=target,
                                   method=method))
        return pairs * repeats  # 15 unique pairs x 4 = 60... see caller

    def test_100_mixed_queries_correct_with_cache_speedup(self):
        graph = power_law_graph(150, edges_per_node=2, seed=9)
        specs = self._build_workload(graph, repeats=7)  # 105 queries
        assert len(specs) >= 100

        with PathService() as service:
            service.add_graph("default", graph)
            start = time.perf_counter()
            batch = service.shortest_path_many(specs)
            batch_elapsed = time.perf_counter() - start

        assert batch.stats.total == len(specs)
        # Repeats are served from the cache: at most one execution per
        # distinct (source, target, resolved-method) triple.
        assert batch.stats.cache_hits >= len(specs) - 2 * 15 - 1
        assert batch.stats.executed < len(specs)

        # Every answered query matches the in-memory reference; unreachable
        # pairs are allowed (power-law graphs are not strongly connected)
        # but must be consistently unreachable.
        checked = 0
        for spec, result in zip(batch.specs, batch.results):
            try:
                expected = dijkstra_shortest_path(graph, spec.source,
                                                  spec.target).distance
            except PathNotFoundError:
                assert result is None
                continue
            assert result is not None
            assert abs(result.distance - expected) < 1e-6
            checked += 1
        assert checked >= 50

        # Sequential one-shot services reload the graph every time; the
        # batch must beat them on the same repeated workload.
        start = time.perf_counter()
        for spec in specs[:20]:  # 20 of 105 is already conclusive
            with PathService(cache_size=0) as one_shot:
                one_shot.add_graph("default", graph)
                try:
                    one_shot.shortest_path(spec.source, spec.target,
                                           method=spec.method
                                           if spec.method != "auto" else "BSDJ")
                except PathNotFoundError:
                    pass
        sequential_elapsed = (time.perf_counter() - start) * (len(specs) / 20)
        assert batch_elapsed < sequential_elapsed


class TestBatchResultContainer:
    def test_iteration_and_indexing(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([(0, 24), (0, 12)])
            assert isinstance(batch, BatchResult)
            assert len(list(batch)) == 2
            assert batch[0].distance == batch.distances()[0]

    def test_stats_as_dict_roundtrip(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("default", small_grid_graph)
            batch = service.shortest_path_many([(0, 24), (0, 24)])
            summary = batch.stats.as_dict()
            assert summary["total"] == 2
            assert summary["cache_hits"] == 1
            assert 0 < summary["hit_rate"] <= 1


class TestBatchStatsAccounting:
    def test_unreachable_counts_as_executed(self):
        graph = path_graph(3)
        graph.add_node(9)
        with PathService() as service:
            service.add_graph("default", graph)
            batch = service.shortest_path_many([(0, 9), (0, 9)])
            # The first unreachable query ran a full search; the repeat was
            # answered from the negative result cache without executing.
            assert batch.stats.executed == 1
            assert batch.stats.not_found == 2
            assert batch.stats.negative_hits == 1
            assert batch.stats.cache_misses == 0

    def test_unreachable_reruns_without_negative_cache(self):
        graph = path_graph(3)
        graph.add_node(9)
        with PathService(negative_cache_size=0) as service:
            service.add_graph("default", graph)
            batch = service.shortest_path_many([(0, 9), (0, 9)])
            # Negative caching disabled: each repeat re-runs the search.
            assert batch.stats.executed == 2
            assert batch.stats.not_found == 2
            assert batch.stats.negative_hits == 0

    def test_dict_query_bad_fields_raise_invalid_query(self):
        with PathService() as service:
            service.add_graph("default", path_graph(4))
            with pytest.raises(InvalidQueryError, match="source"):
                service.shortest_path_many([{"src": 0, "dst": 3}])

    def test_two_tuple_with_string_rejected(self):
        with PathService() as service:
            service.add_graph("g", path_graph(4))
            with pytest.raises(InvalidQueryError, match="graph, source, target"):
                service.shortest_path_many([("g", 1)])


class TestTupleFormGuards:
    def test_three_tuple_without_graph_name_rejected(self):
        # (0, 15, "BDJ") is NOT (source, target, method); require the
        # documented (graph, source, target[, method]) form.
        with PathService() as service:
            service.add_graph("default", path_graph(4))
            with pytest.raises(InvalidQueryError, match="graph name"):
                service.shortest_path_many([(0, 3, "BDJ")])
