"""Tests for the query planner (QuerySpec -> QueryPlan, method="auto",
lthd="auto")."""

import time

import pytest

from repro.errors import InvalidQueryError
from repro.graph.generators import grid_graph, path_graph, power_law_graph
from repro.graph.model import Graph
from repro.graph.stats import compute_statistics
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService, QuerySpec
from repro.service.planner import (
    METHODS,
    NODE_AT_A_TIME,
    SET_AT_A_TIME,
    auto_lthd,
    normalize_method,
    plan_query,
)


class TestNormalizeMethod:
    def test_known_methods_upper_cased(self):
        assert normalize_method("bsdj") == "BSDJ"
        assert normalize_method("MDJ") == "MDJ"

    def test_auto_sentinel(self):
        assert normalize_method("auto") == "AUTO"
        assert normalize_method("Auto") == "AUTO"

    def test_unknown_method_raises(self):
        with pytest.raises(InvalidQueryError):
            normalize_method("ASTAR")

    def test_methods_constant(self):
        assert set(METHODS) == {"DJ", "BDJ", "BSDJ", "BBFS", "BSEG",
                                "MDJ", "MBDJ"}


class TestPlanQuery:
    def _plan(self, graph, method="auto", has_segtable=False, estimate=False):
        spec = QuerySpec(source=0, target=1, method=method)
        return plan_query(spec, compute_statistics(graph), has_segtable,
                          estimate=estimate)

    def test_explicit_method_passthrough(self):
        plan = self._plan(grid_graph(3, 3, seed=1), method="bdj")
        assert plan.method == "BDJ"
        assert plan.frontier_mode == NODE_AT_A_TIME
        assert "explicitly" in plan.reason

    def test_explicit_bseg_without_segtable_raises(self):
        with pytest.raises(InvalidQueryError):
            self._plan(grid_graph(3, 3, seed=1), method="BSEG")

    def test_auto_small_graphs_pick_bsdj(self):
        # The rule has no small-graph clause: DJ wins some small sparse
        # graphs on minidb, but by less than the rule loses elsewhere
        # (docs/planner.md, "Counter-examples").
        for graph in (grid_graph(5, 5, seed=2),
                      path_graph(10, weight_range=(1, 1), seed=1)):
            plan = self._plan(graph)
            assert plan.method == "BSDJ"
            assert plan.bidirectional
            assert plan.frontier_mode == SET_AT_A_TIME

    def test_auto_power_law_graph_picks_bsdj(self):
        plan = self._plan(power_law_graph(120, edges_per_node=2, seed=3))
        assert plan.method == "BSDJ"
        assert plan.bidirectional
        assert plan.frontier_mode == SET_AT_A_TIME

    def test_bsdj_estimates_fewer_iterations_than_bdj_on_hub_heavy_graph(self):
        # BSDJ's edge on hub-heavy graphs is tie-collapse: it settles a
        # whole distance level per iteration, so it needs far fewer.
        graph = power_law_graph(120, edges_per_node=2, seed=3)
        bsdj = self._plan(graph, estimate=True)
        bdj = self._plan(graph, method="BDJ", estimate=True)
        assert bsdj.method == "BSDJ"
        assert bsdj.estimated_iterations < bdj.estimated_iterations / 2

    def test_auto_prefers_segtable(self):
        for graph in (grid_graph(5, 5, seed=2),
                      path_graph(10, weight_range=(1, 1), seed=1),
                      power_law_graph(120, edges_per_node=2, seed=3)):
            plan = self._plan(graph, has_segtable=True)
            assert plan.method == "BSEG"
            assert plan.uses_segtable

    def test_auto_never_picks_bseg_without_segtable(self):
        for graph in (path_graph(5), grid_graph(5, 5, seed=2),
                      power_law_graph(200, edges_per_node=3, seed=4)):
            assert self._plan(graph).method != "BSEG"

    def test_estimated_iterations_positive(self):
        for method in METHODS:
            if method == "BSEG":
                continue
            plan = self._plan(grid_graph(4, 4, seed=5), method=method,
                              estimate=True)
            assert plan.estimated_iterations >= 1

    def test_estimated_iterations_grow_with_graph_size(self):
        small = self._plan(grid_graph(4, 4, seed=1), method="DJ",
                           estimate=True)
        large = self._plan(grid_graph(12, 12, seed=1), method="DJ",
                           estimate=True)
        assert large.estimated_iterations > small.estimated_iterations

    def test_explicit_method_skips_estimate_even_with_eager_stats(self):
        """The hot-path regression fix: eagerly-passed statistics must not
        trigger the iteration estimate unless estimate=True was asked."""
        plan = self._plan(grid_graph(4, 4, seed=5), method="BDJ")
        assert plan.estimated_iterations is None

    def test_describe_mentions_method_and_operators(self):
        plan = self._plan(power_law_graph(120, edges_per_node=2, seed=3))
        text = plan.describe()
        assert "BSDJ" in text
        assert "F -> E -> M" in text
        assert "reason:" in text

    def test_auto_reason_states_the_rule(self):
        graph = power_law_graph(120, edges_per_node=2, seed=3)
        assert self._plan(graph).reason == "auto: no SegTable -> BSDJ"
        indexed = self._plan(graph, has_segtable=True, estimate=True)
        assert indexed.reason == "auto: SegTable built -> BSEG"
        assert "reason: auto: SegTable built -> BSEG" in indexed.describe()

    def test_statistics_read_only_for_estimates(self):
        calls = []
        graph = grid_graph(4, 4, seed=5)

        def stats():
            calls.append(1)
            return compute_statistics(graph)

        spec = QuerySpec(source=0, target=1)
        assert plan_query(spec, stats, False).estimated_iterations is None
        assert calls == []
        assert plan_query(spec, stats, False,
                          estimate=True).estimated_iterations >= 1
        assert calls == [1]


class TestServiceExplain:
    def test_explain_matches_execution(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            plan = service.explain(0, 50)
            result = service.shortest_path(0, 50)
            assert result.stats.method == plan.method

    def test_explain_changes_after_segtable_build(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            before = service.explain(0, 50).method
            service.build_segtable(lthd=5)
            after = service.explain(0, 50).method
            assert before == "BSDJ"
            assert after == "BSEG"

    def test_auto_runs_bsdj_on_small_graphs(self):
        for graph in (grid_graph(5, 5, seed=2),
                      path_graph(10, weight_range=(1, 1), seed=1)):
            target = graph.num_nodes - 1
            with PathService() as service:
                service.add_graph("default", graph)
                result = service.shortest_path(0, target)
            assert result.stats.method == "BSDJ"
            assert result.distance == pytest.approx(
                dijkstra_shortest_path(graph, 0, target).distance)

    def test_auto_runs_bseg_on_indexed_graph(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            service.build_segtable(lthd=5.0)
            result = service.shortest_path(0, 50)
        assert result.stats.method == "BSEG"
        assert result.distance == pytest.approx(
            dijkstra_shortest_path(small_power_graph, 0, 50).distance)

    def test_bseg_refused_until_segtable_built(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            with pytest.raises(InvalidQueryError):
                service.shortest_path(0, 50, method="BSEG")
            assert service.shortest_path(0, 50).stats.method == "BSDJ"
            service.build_segtable(lthd=5.0)
            assert service.shortest_path(
                0, 50, method="BSEG").stats.method == "BSEG"

    def test_explain_validates_nodes(self, small_power_graph):
        from repro.errors import NodeNotFoundError
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            with pytest.raises(NodeNotFoundError):
                service.explain(0, 10_000)


class TestLthdAuto:
    UNIT_GRAPH = power_law_graph(100, edges_per_node=2,
                                 weight_range=(1, 1), seed=5)
    CANDIDATES = [2.0, 4.0, 8.0, 16.0]
    QUERIES = [(0, 60), (3, 90), (10, 45)]

    def test_auto_lthd_rule_values(self):
        assert auto_lthd(compute_statistics(self.UNIT_GRAPH)) == 2.0
        weighted = compute_statistics(
            power_law_graph(300, edges_per_node=2, seed=7))
        assert (weighted.min_edge_weight, weighted.max_edge_weight) == (1, 100)
        assert auto_lthd(weighted) == pytest.approx(15.7)
        edgeless = Graph()
        edgeless.add_node(0)
        assert auto_lthd(compute_statistics(edgeless)) == 2.0

    def test_auto_lthd_lands_in_figure7_good_band(self):
        """Measure the Figure 7 curve (BSEG query time per lthd) on a
        unit-weight graph and assert the rule's pick sits in the band of
        thresholds within 1.5x of the measured best."""
        measured = {}
        for lthd in self.CANDIDATES:
            with PathService(default_backend="sqlite",
                             cache_size=0) as service:
                service.add_graph("g", self.UNIT_GRAPH)
                service.build_segtable("g", lthd=lthd)
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    for source, target in self.QUERIES:
                        service.shortest_path(source, target, graph="g",
                                              method="BSEG", use_cache=False)
                    best = min(best, time.perf_counter() - start)
                measured[lthd] = best
        band = [lthd for lthd, seconds in measured.items()
                if seconds <= 1.5 * min(measured.values())]
        chosen = auto_lthd(compute_statistics(self.UNIT_GRAPH))
        assert chosen in band, (
            f"lthd={chosen} outside the measured good band {band} "
            f"(times: { {k: round(v, 5) for k, v in measured.items()} })"
        )

    def test_build_segtable_auto(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            stats = service.build_segtable(lthd="auto")
            assert stats.lthd == auto_lthd(service.statistics())
            assert service.store().segtable_lthd == stats.lthd
            assert service.explain(0, 50).method == "BSEG"

    def test_build_segtable_rejects_unknown_string(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            with pytest.raises(InvalidQueryError):
                service.build_segtable(lthd="automatic")
