"""Tests for query workloads, the experiment runner and bench helpers."""

import pytest

from repro.bench.experiments import (
    build_power_graph,
    build_random_graph,
    construction_sweep,
    index_mode_comparison,
    lthd_sweep,
    method_comparison,
    sql_style_comparison,
)
from repro.bench.harness import (
    bench_scale,
    format_table,
    num_bench_queries,
    paper_reference,
    scaled,
)
from repro.graph.generators import grid_graph, path_graph, power_law_graph
from repro.graph.model import Graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService
from repro.workload import generate_queries, run_service_workload


class TestQueryWorkloads:
    def test_generates_requested_count(self):
        graph = power_law_graph(80, edges_per_node=2, seed=1)
        workload = generate_queries(graph, 5, seed=2)
        assert len(workload) == 5

    def test_queries_are_connected(self):
        graph = power_law_graph(80, edges_per_node=2, seed=1)
        workload = generate_queries(graph, 5, seed=3)
        for source, target in workload:
            dijkstra_shortest_path(graph, source, target)  # must not raise

    def test_deterministic_for_seed(self):
        graph = grid_graph(5, 5, seed=1)
        first = generate_queries(graph, 4, seed=7)
        second = generate_queries(graph, 4, seed=7)
        assert first.queries == second.queries

    def test_min_hops_respected(self):
        graph = path_graph(20, weight_range=(1, 1))
        workload = generate_queries(graph, 5, seed=1, min_hops=3)
        for source, target in workload:
            assert abs(source - target) >= 3

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_queries(path_graph(5), 0)

    def test_disconnected_graph_handled(self):
        graph = Graph()
        graph.add_node(0)
        graph.add_node(1)
        workload = generate_queries(graph, 3, seed=1)
        assert len(workload) == 0


class TestRunner:
    def test_aggregate_fields(self):
        graph = grid_graph(4, 4, seed=2)
        workload = generate_queries(graph, 3, seed=5)
        with PathService(cache_size=0) as service:
            service.add_graph("default", graph)
            aggregate, _stats = run_service_workload(service, workload, "BSDJ")
        assert aggregate.method == "BSDJ"
        assert aggregate.queries == 3
        assert aggregate.avg_time > 0
        assert aggregate.avg_expansions > 0
        assert aggregate.avg_visited > 0
        row = aggregate.as_row()
        assert row["method"] == "BSDJ"

    def test_unreachable_queries_counted(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_node(5)
        with PathService(cache_size=0) as service:
            service.add_graph("default", graph)
            aggregate, _stats = run_service_workload(service, [(0, 5)], "BSDJ")
        assert aggregate.not_found == 1
        assert aggregate.queries == 0


class TestBenchHelpers:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": None}], title="T")
        assert "T" in text
        assert "10" in text
        assert "-" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_paper_reference(self):
        text = paper_reference("Table 2", ["DJ is slowest", "BSDJ wins"])
        assert "Table 2" in text and "BSDJ wins" in text

    def test_scaling_helpers(self):
        assert bench_scale() > 0
        assert scaled(1000) >= 50

    @pytest.mark.parametrize("variable, raw", [
        ("REPRO_BENCH_SCALE", "nan"),
        ("REPRO_BENCH_SCALE", "inf"),
        ("REPRO_BENCH_SCALE", "abc"),
        ("REPRO_BENCH_QUERIES", "two"),
    ])
    def test_malformed_env_raises_naming_the_variable(self, monkeypatch,
                                                      variable, raw):
        """A bad knob must fail loudly, not bench the default under its label."""
        read = {"REPRO_BENCH_SCALE": lambda: scaled(1000),
                "REPRO_BENCH_QUERIES": num_bench_queries}[variable]
        monkeypatch.setenv(variable, raw)
        with pytest.raises(ValueError, match=variable):
            read()

    def test_graph_builders(self):
        assert build_power_graph(60).num_nodes == 60
        assert build_random_graph(60).num_nodes == 60


class TestExperimentHelpers:
    GRAPH = power_law_graph(70, edges_per_node=2, seed=9)

    def test_method_comparison(self):
        aggregates = method_comparison(self.GRAPH, ["BSDJ", "BBFS", "BSEG"],
                                       num_queries=2, lthd=10)
        assert [a.method for a in aggregates] == ["BSDJ", "BBFS", "BSEG"]
        assert all(a.queries == 2 for a in aggregates)

    def test_lthd_sweep(self):
        rows = lthd_sweep(self.GRAPH, [5, 20], num_queries=2)
        assert [row["lthd"] for row in rows] == [5, 20]
        assert rows[1]["segments"] >= rows[0]["segments"]

    def test_index_mode_comparison(self):
        rows = index_mode_comparison(self.GRAPH, method="BSDJ", num_queries=1)
        assert [row["index_strategy"] for row in rows] == ["NoIndex", "Index", "CluIndex"]

    def test_sql_style_comparison(self):
        rows = sql_style_comparison(self.GRAPH, method="BSDJ", num_queries=1)
        assert [row["sql_features"] for row in rows] == ["NSQL", "TSQL"]

    def test_construction_sweep(self):
        rows = construction_sweep({"power": grid_graph(3, 3, seed=1)}, [5, 10])
        assert len(rows) == 2
        assert all(row["segments"] > 0 for row in rows)


class TestServiceRunner:
    def test_run_service_workload_aggregate(self):
        graph = power_law_graph(100, edges_per_node=2, seed=6)
        workload = generate_queries(graph, 4, seed=8)
        with PathService() as service:
            service.add_graph("default", graph)
            aggregate, batch_stats = run_service_workload(
                service, workload, method="BSDJ")
        assert aggregate.method == "BSDJ"
        assert aggregate.queries + aggregate.not_found == len(workload)
        assert batch_stats.total == len(workload)
        assert batch_stats.per_method.get("BSDJ") == len(workload)

    def test_run_service_workload_auto_label(self):
        graph = power_law_graph(100, edges_per_node=2, seed=6)
        workload = generate_queries(graph, 3, seed=9)
        with PathService() as service:
            service.add_graph("default", graph)
            aggregate, batch_stats = run_service_workload(
                service, workload, method="auto")
        # The label is the dominant resolved method, never the sentinel.
        assert aggregate.method != "AUTO"
        assert aggregate.method in batch_stats.per_method

    def test_bench_backend_env_override(self, monkeypatch):
        from repro.bench.harness import bench_backend

        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        assert bench_backend() == "minidb"
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "SQLite")
        assert bench_backend() == "sqlite"
        # A typo'd engine must fail loudly, not benchmark the wrong one.
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "oracle")
        with pytest.raises(ValueError):
            bench_backend()

    def test_run_service_workload_counts_each_execution_once(self):
        graph = grid_graph(4, 4, seed=3)
        workload = [(0, 15), (0, 15), (0, 15), (0, 12)]
        with PathService() as service:
            service.add_graph("default", graph)
            aggregate, batch_stats = run_service_workload(
                service, workload, method="BDJ")
        # Cache hits replay an earlier execution; the aggregate must not
        # re-count it per duplicate.
        assert batch_stats.cache_hits == 2
        assert aggregate.queries == 2

    def test_run_service_workload_warm_cache_aggregates_nothing(self):
        graph = grid_graph(4, 4, seed=3)
        workload = [(0, 15), (0, 12)]
        with PathService() as service:
            service.add_graph("default", graph)
            run_service_workload(service, workload, method="BDJ")
            aggregate, batch_stats = run_service_workload(
                service, workload, method="BDJ")  # fully warm
        assert batch_stats.cache_hits == 2
        assert aggregate.queries == 0  # nothing executed in this batch
