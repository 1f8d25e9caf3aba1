"""Observability wired through the service layer: per-query trace trees
(plan / cache lookup / pool checkout / FEM iterations), ``explain(...,
analyze=True)``, the registry counters the executor and caches publish,
and the canonical-vs-deprecated stats key schema."""

import pytest

from repro.errors import PathNotFoundError
from repro.core.stats import BatchStats
from repro.graph.generators import path_graph, power_law_graph
from repro.graph.model import Graph
from repro.obs.schema import (
    METRIC_BATCHES,
    METRIC_CACHE_HITS,
    METRIC_CACHE_MISSES,
    METRIC_NOT_FOUND,
    METRIC_POOL_CHECKOUTS,
    METRIC_QUERIES,
    METRIC_QUERY_LATENCY,
    METRIC_SINGLE_FLIGHT,
)
from repro.service import PathService
from repro.shard.stats import RouterStats


@pytest.fixture
def service():
    with PathService() as svc:
        svc.add_graph("g", power_law_graph(60, edges_per_node=2, seed=7),
                      backend="sqlite")
        yield svc


class TestQueryTrace:
    def test_shortest_path_attaches_full_tree(self, service):
        result = service.shortest_path(0, 30, graph="g")
        trace = result.trace
        assert trace is not None
        root = trace.root
        assert root.name == "query"
        assert root.tags["graph"] == "g"
        assert root.duration_s > 0.0
        # The per-phase children the issue promises.
        assert trace.find("plan")
        assert trace.find("cache.lookup")
        assert trace.find("execute")
        assert trace.find("pool.checkout")
        iterations = trace.find("fem.iteration")
        assert iterations, "per-iteration spans must be present"
        assert all("frontier" in s.tags for s in iterations)
        # Summed direct children stay within the root's wall time.
        assert root.child_seconds() <= root.duration_s * 1.5 + 1e-6

    @pytest.mark.parametrize("analyze", [False, True],
                             ids=["shortest_path", "explain_analyze"])
    def test_query_span_covers_planning(self, service, monkeypatch,
                                        analyze):
        """Planning runs inside the ``query`` root.  The clock is frozen
        and advances only while the service plans, so a ``plan`` child
        measured outside the root would outlast it."""
        import repro.obs.clock
        import repro.obs.trace

        clock = [100.0]
        monkeypatch.setattr(repro.obs.clock, "now", lambda: clock[0])
        monkeypatch.setattr(repro.obs.trace, "now", lambda: clock[0])
        real_plan = PathService.plan

        def slow_plan(self, spec, estimate=False):
            clock[0] += 0.010
            return real_plan(self, spec, estimate=estimate)

        monkeypatch.setattr(PathService, "plan", slow_plan)
        if analyze:
            trace = service.explain(0, 30, graph="g", analyze=True).trace
        else:
            trace = service.shortest_path(0, 30, graph="g").trace
        root = trace.root
        (plan,) = trace.find("plan")
        assert plan.duration_s == pytest.approx(0.010)
        assert plan.offset_s + plan.duration_s <= root.duration_s + 1e-12
        assert root.child_seconds() <= root.duration_s + 1e-12

    def test_cache_hit_is_traced_as_hit(self, service):
        service.shortest_path(0, 30, graph="g")
        result = service.shortest_path(0, 30, graph="g")
        lookup = result.trace.find("cache.lookup")[0]
        assert lookup.tags["outcome"] == "hit"
        assert not result.trace.find("fem.iteration")  # nothing executed

    def test_explain_analyze_carries_trace(self, service):
        plan = service.explain(0, 30, graph="g", analyze=True)
        assert plan.trace is not None
        assert plan.trace.find("fem.iteration")
        # plain explain stays cheap and traceless
        assert service.explain(0, 30, graph="g").trace is None

    def test_tracing_opt_out(self):
        with PathService(tracing=False) as svc:
            svc.add_graph("g", path_graph(5, weight_range=(1, 1)))
            assert svc.shortest_path(0, 4, graph="g").trace is None


class TestServiceMetrics:
    def test_query_counters_and_latency(self, service):
        service.shortest_path(0, 30, graph="g")
        registry = service.registry
        assert registry.total(METRIC_QUERIES) == 1
        labels = registry.histogram_labels(METRIC_QUERY_LATENCY)
        assert {"kind": "path"} in labels
        assert registry.summary(METRIC_QUERY_LATENCY)["count"] == 1
        assert registry.total(METRIC_POOL_CHECKOUTS) >= 1

    def test_cache_counters_match_cache_info(self, service):
        service.shortest_path(0, 30, graph="g")
        service.shortest_path(0, 30, graph="g")
        registry = service.registry
        info = service.cache_info()
        assert registry.total(METRIC_CACHE_HITS) == info.hits == 1
        assert registry.total(METRIC_CACHE_MISSES) == info.misses == 1

    def test_not_found_counter(self):
        graph = Graph(directed=True)
        graph.add_edge(0, 1, 1.0)
        graph.add_node(2)
        with PathService() as svc:
            svc.add_graph("g", graph, backend="sqlite")
            with pytest.raises(PathNotFoundError):
                svc.shortest_path(0, 2, graph="g")
            assert svc.registry.total(METRIC_NOT_FOUND) == 1

    def test_batch_publishes_mode_and_single_flight(self):
        # cache_size=0: the duplicated pair cannot be served by the
        # result cache, so batch-local single-flight replay answers it.
        with PathService(cache_size=0) as svc:
            svc.add_graph("g", power_law_graph(60, edges_per_node=2, seed=7),
                          backend="sqlite")
            pairs = [(0, 30), (0, 30), (1, 20)]
            batch = svc.shortest_path_many(pairs, graph="g")
            registry = svc.registry
            assert registry.value(METRIC_BATCHES, {"mode": "serial"}) == 1
            assert registry.total(METRIC_SINGLE_FLIGHT) == 1
            assert batch.stats.single_flight_hits == 1
            assert batch.stats.total == 3

    def test_metrics_snapshot_shape(self, service):
        service.shortest_path(0, 30, graph="g")
        snap = service.metrics()
        assert snap[METRIC_QUERIES]["type"] == "counter"
        latency = snap[METRIC_QUERY_LATENCY]
        assert latency["type"] == "histogram"
        assert latency["values"][0]["count"] == 1
        assert "+Inf" in latency["values"][0]["buckets"]


class TestStatsSchema:
    def test_duration_keys_are_unit_suffixed_only(self):
        stats = BatchStats(total=2, executed=2, total_time=1.5,
                           queue_time=0.25, execute_time=1.0)
        doc = stats.as_dict()
        assert {key for key in doc if "time" in key} == {
            "total_time_s", "queue_time_s", "execute_time_s"}
        router_doc = RouterStats(total=2, total_time=1.5).as_dict()
        assert {key for key in router_doc if "time" in key} == {"total_time_s"}
        again = BatchStats.from_dict(doc)
        assert (again.total_time, again.queue_time,
                again.execute_time) == (1.5, 0.25, 1.0)

    def test_roundtrip_is_stable(self):
        stats = BatchStats(total=3, executed=2, cache_hits=1,
                           total_time=0.75)
        again = BatchStats.from_dict(stats.as_dict())
        assert again.total == 3
        assert again.total_time == 0.75
