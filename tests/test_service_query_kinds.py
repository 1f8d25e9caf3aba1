"""Tests for the richer query-kind surface: planner validation of
``bounded_hop`` / ``reachability`` and the one-to-many shared-frontier
Dijkstra — locally and over the serve wire protocol."""

import pytest

from repro.core.multi import METHOD_HOPS, METHOD_REACH, dijkstra_one_to_many
from repro.errors import InvalidQueryError, NodeNotFoundError
from repro.graph.generators import power_law_graph
from repro.serve import ShardClient, ShardServer
from repro.service import PathService
from repro.service.planner import QUERY_KINDS, QuerySpec


@pytest.fixture
def service(small_power_graph):
    with PathService() as service:
        service.add_graph("default", small_power_graph)
        yield service


def _shape(result):
    return None if result is None else (result.distance, tuple(result.path))


class TestKindPlanning:
    def test_unknown_kind_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="unknown query kind"):
            service.shortest_path(0, 5, kind="teleport")
        assert set(QUERY_KINDS) == {"path", "bounded_hop", "reachability"}

    def test_path_kind_forbids_max_hops(self, service):
        with pytest.raises(InvalidQueryError, match="bounded_hop"):
            service.shortest_path(0, 5, max_hops=3)

    def test_bounded_hop_requires_positive_max_hops(self, service):
        with pytest.raises(InvalidQueryError, match="max_hops"):
            service.shortest_path(0, 5, kind="bounded_hop")
        with pytest.raises(InvalidQueryError, match="max_hops"):
            service.shortest_path(0, 5, kind="bounded_hop", max_hops=0)

    def test_reachability_forbids_max_hops(self, service):
        with pytest.raises(InvalidQueryError, match="max_hops"):
            service.shortest_path(0, 5, kind="reachability", max_hops=3)

    def test_memory_methods_rejected_for_hop_kinds(self, service):
        with pytest.raises(InvalidQueryError, match="memory method"):
            service.shortest_path(0, 5, kind="reachability", method="MDJ")

    def test_hop_plans_resolve_to_hop_driver(self, service):
        reach = service.explain(0, 5, kind="reachability")
        assert reach.method == METHOD_REACH
        assert not reach.bidirectional
        bounded = service.explain(0, 5, kind="bounded_hop", max_hops=4)
        assert bounded.method == METHOD_HOPS
        assert bounded.spec.max_hops == 4
        # The cost model prices the layered driver: a hop budget caps
        # the predicted rounds.
        assert bounded.estimated_iterations is not None
        assert bounded.estimated_iterations <= 4
        assert bounded.predicted_seconds is not None

    def test_hop_kinds_do_not_skew_planner_bias(self, service):
        profile = service.cost_model().profile
        before = profile.global_bias
        for _ in range(5):
            service.shortest_path(0, 5, kind="reachability",
                                  use_cache=False)
        assert profile.global_bias == before


class TestOneToMany:
    def test_matches_per_pair_dijkstra(self, service, small_power_graph):
        targets = [5, 40, 99, 40, 7]  # duplicate on purpose
        fanout = service.one_to_many(0, targets)
        assert len(fanout) == 4  # deduplicated
        for target in set(targets):
            single = service.shortest_path(0, target, method="DJ",
                                           use_cache=False)
            assert _shape(fanout[target]) == _shape(single)

    def test_unreachable_target_is_none(self, tmp_path):
        graph = power_law_graph(40, edges_per_node=2, seed=3)
        graph.add_node(999)  # isolated
        with PathService() as service:
            service.add_graph("default", graph)
            fanout = service.one_to_many(0, [5, 999])
            assert fanout[5] is not None
            assert fanout[999] is None

    def test_unknown_nodes_rejected(self, service):
        with pytest.raises(NodeNotFoundError):
            service.one_to_many(123456, [0, 1])
        with pytest.raises(NodeNotFoundError):
            service.one_to_many(0, [1, 123456])

    def test_core_driver_handles_source_as_target(self, service):
        host = service._host("default")
        with host.pool.lease() as store:
            fanout = dijkstra_one_to_many(store, 0, [0, 5])
        assert fanout[0].distance == 0.0
        assert fanout[0].path == [0]


class TestKindsOverTheWire:
    def test_remote_kinds(self, small_power_graph):
        service = PathService()
        service.add_graph("default", small_power_graph)
        local_reach = _shape(service.shortest_path(
            0, 99, kind="reachability", use_cache=False))
        with ShardServer(service, port=0, own_service=True) as server:
            client = ShardClient(server.url)
            spec = QuerySpec(source=0, target=99, graph="default",
                             kind="reachability")
            assert _shape(client.shortest_path(spec,
                                               use_cache=False)) \
                == local_reach
            bounded = client.shortest_path(
                QuerySpec(source=0, target=99, graph="default",
                          kind="bounded_hop",
                          max_hops=int(local_reach[0])),
                use_cache=False)
            assert bounded.distance == local_reach[0]
            specs = [QuerySpec(source=0, target=t, graph="default")
                     for t in (5, 40, 99)]
            results, _, _, _ = client.execute(specs)
            assert all(r is not None for r in results)
