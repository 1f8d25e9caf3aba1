"""Tests for the shard server, its typed client, the remote
transport, and the mixed local/remote router — including the
bit-identical guarantee against a monolithic service."""

import os
import subprocess
import sys

import pytest

from repro.errors import (
    NodeNotFoundError,
    RemoteProtocolError,
    ShardError,
    UnknownGraphError,
)
from repro.graph.generators import grid_graph, power_law_graph
from repro.serve import RemoteTransport, ShardClient, ShardServer
from repro.service import PathService
from repro.shard import InProcessTransport, ShardRouter, ShardSpec
from repro.service.planner import QuerySpec


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


GRAPHS = {
    "alpha": power_law_graph(60, edges_per_node=2, seed=1),
    "beta": power_law_graph(70, edges_per_node=2, seed=2),
    "gamma": grid_graph(6, 6, seed=3),
}


@pytest.fixture
def server(tmp_path):
    """One running shard server over a warm-started two-graph catalog."""
    catalog = str(tmp_path / "srv")
    _seed_catalog(catalog, {"alpha": GRAPHS["alpha"], "beta": GRAPHS["beta"]},
                  lthd=3.0)
    service = PathService.open(catalog, shard_id="srv")
    with ShardServer(service, port=0, own_service=True) as running:
        yield running


class TestShardClient:
    def test_health_reports_shard_and_graphs(self, server):
        document = ShardClient(server.url).health()
        assert document["status"] == "ok"
        assert document["shard"] == "srv"
        assert sorted(document["graphs"]) == ["alpha", "beta"]

    def test_routing_entries_match_catalog(self, server):
        entries = ShardClient(server.url).routing_entries()
        assert sorted(entries) == ["alpha", "beta"]
        for entry in entries.values():
            assert entry.fingerprint

    def test_stats_carry_cache_counters(self, server):
        client = ShardClient(server.url)
        spec = QuerySpec(source=0, target=30, graph="alpha")
        client.shortest_path(spec)
        client.shortest_path(spec)  # second call hits the server cache
        stats = client.stats()
        assert stats["shard"] == "srv"
        assert stats["cache"]["hits"] >= 1

    def test_shortest_path_is_bit_identical_to_local(self, server):
        local = server.service.shortest_path(0, 30, graph="alpha")
        remote = ShardClient(server.url).shortest_path(
            QuerySpec(source=0, target=30, graph="alpha"))
        assert remote.distance == local.distance
        assert list(remote.path) == list(local.path)
        assert remote.stats is not None

    def test_explain_returns_full_plan(self, server):
        plan = ShardClient(server.url).explain(
            QuerySpec(source=0, target=30, graph="alpha", method="auto"))
        local = server.service.plan(
            QuerySpec(source=0, target=30, graph="alpha", method="auto"))
        assert plan.method == local.method
        assert plan.phases == tuple(local.phases)

    def test_plan_many_aligns_with_specs(self, server):
        specs = [QuerySpec(source=0, target=t, graph="alpha")
                 for t in (10, 20, 30)]
        plans = ShardClient(server.url).plan_many(specs)
        assert len(plans) == 3
        assert [p.spec.target for p in plans] == [10, 20, 30]

    def test_execute_batch_matches_local_batch(self, server):
        specs = [QuerySpec(source=0, target=t, graph="beta")
                 for t in (5, 15, 25, 35)]
        results, from_cache, stats, errors = ShardClient(server.url).execute(
            specs, concurrency=2)
        local = server.service.shortest_path_many(
            [(s.graph, s.source, s.target) for s in specs])
        assert _shapes(results) == _shapes(local.results)
        assert len(from_cache) == 4
        assert stats.total == 4
        assert errors == [None] * 4

    def test_query_errors_cross_the_wire_typed(self, server):
        client = ShardClient(server.url)
        with pytest.raises(UnknownGraphError):
            client.shortest_path(QuerySpec(source=0, target=1, graph="nope"))
        with pytest.raises(NodeNotFoundError):
            client.shortest_path(
                QuerySpec(source=999999, target=1, graph="alpha"))

    def test_unknown_endpoint_is_protocol_error(self, server):
        with pytest.raises(RemoteProtocolError, match="unknown endpoint"):
            ShardClient(server.url)._request("/no-such-endpoint")

    def test_stamp_ownership_persists_in_manifest(self, server):
        ShardClient(server.url).stamp_ownership("alpha", "srv")
        entries = ShardClient(server.url).routing_entries()
        assert entries["alpha"].shard == "srv"


class TestRemoteRouter:
    @pytest.fixture
    def mixed(self, tmp_path):
        """A router over one remote shard (alpha, beta) and one local
        shard (gamma), plus a monolithic service hosting all three."""
        cat_remote = str(tmp_path / "remote")
        cat_local = str(tmp_path / "local")
        cat_mono = str(tmp_path / "mono")
        _seed_catalog(cat_remote,
                      {"alpha": GRAPHS["alpha"], "beta": GRAPHS["beta"]},
                      lthd=3.0)
        _seed_catalog(cat_local, {"gamma": GRAPHS["gamma"]}, lthd=3.0)
        _seed_catalog(cat_mono, dict(GRAPHS), lthd=3.0)
        service = PathService.open(cat_remote, shard_id="remote-shard")
        with ShardServer(service, port=0, own_service=True) as server:
            with ShardRouter.open([server.url, cat_local]) as router, \
                    PathService.open(cat_mono) as mono:
                yield router, mono, server

    BATCH = [
        ("alpha", 0, 30), ("gamma", 0, 35), ("beta", 1, 40),
        ("alpha", 2, 50), ("beta", 0, 25), ("gamma", 5, 30),
    ]

    def test_routes_remote_and_local_graphs(self, mixed):
        router, _, server = mixed
        assert sorted(router.graphs()) == ["alpha", "beta", "gamma"]
        remote_name = f"{server.host}:{server.port}"
        assert router.owner("alpha") == remote_name
        assert router.owner("gamma") == "local"

    def test_single_query_bit_identical_over_the_wire(self, mixed):
        router, mono, _ = mixed
        ours = router.shortest_path(0, 30, graph="alpha")
        theirs = mono.shortest_path(0, 30, graph="alpha")
        assert ours.distance == theirs.distance
        assert list(ours.path) == list(theirs.path)

    def test_mixed_scatter_is_bit_identical_to_monolith(self, mixed):
        router, mono, server = mixed
        scatter = router.shortest_path_many(self.BATCH, concurrency=2)
        monolith = mono.shortest_path_many(self.BATCH, concurrency=2)
        assert _shapes(scatter.results) == _shapes(monolith.results)
        remote_name = f"{server.host}:{server.port}"
        assert set(scatter.stats.per_shard) == {remote_name, "local"}
        assert scatter.shard_of[1] == "local"
        assert scatter.shard_of[0] == remote_name

    def test_batch_validation_fails_fast_over_the_wire(self, mixed):
        router, _, _ = mixed
        with pytest.raises(NodeNotFoundError):
            router.shortest_path_many([("alpha", 0, 30),
                                       ("beta", 999999, 1)])

    def test_remote_unreachable_pair_raises_typed(self, mixed):
        router, _, _ = mixed
        with pytest.raises(UnknownGraphError):
            router.shortest_path(0, 1, graph="delta")

    def test_explain_routes_to_remote_shard(self, mixed):
        router, mono, _ = mixed
        plan = router.explain(0, 30, graph="alpha")
        assert plan.method == mono.explain(0, 30, graph="alpha").method

    def test_service_accessor_refuses_remote_shards(self, mixed):
        router, _, server = mixed
        remote_name = f"{server.host}:{server.port}"
        with pytest.raises(ShardError, match="remote"):
            router.service(remote_name)
        assert router.service("local") is not None

    def test_move_involving_remote_shard_refuses(self, mixed):
        router, _, server = mixed
        remote_name = f"{server.host}:{server.port}"
        with pytest.raises(ShardError, match="remote"):
            router.move("alpha", "local")  # source is remote
        with pytest.raises(ShardError, match="remote"):
            router.move("gamma", remote_name)  # target is remote

    def test_check_health_probes_both_transports(self, mixed):
        router, _, server = mixed
        report = router.check_health()
        remote_name = f"{server.host}:{server.port}"
        assert report[remote_name]["status"] == "ok"
        assert report["local"]["status"] == "ok"


class TestRemoteSpecValidation:
    def test_address_picks_the_transport(self, server, tmp_path):
        catalog = str(tmp_path / "local")
        _seed_catalog(catalog, {"gamma": GRAPHS["gamma"]})
        remote = ShardSpec(name="r", catalog_path=server.url).open()
        local = ShardSpec(name="l", catalog_path=catalog).open()
        try:
            assert isinstance(remote, RemoteTransport)
            assert isinstance(local, InProcessTransport)
            assert sorted(remote.graphs()) == ["alpha", "beta"]
            assert local.graphs() == ("gamma",)
        finally:
            remote.close()
            local.close()

    def test_remote_spec_rejects_service_knobs(self, server):
        spec = ShardSpec(name="r", catalog_path=server.url,
                         service_options={"cache_size": 64})
        with pytest.raises(ShardError, match="unsupported service options"):
            spec.open()

    def test_remote_spec_accepts_client_knobs(self, server):
        spec = ShardSpec(name="r", catalog_path=server.url,
                         service_options={"timeout": 5.0, "retries": 1})
        transport = spec.open()
        try:
            assert transport.client.timeout == 5.0
            assert transport.client.retries == 1
        finally:
            transport.close()


class TestServeCLI:
    def test_cli_serves_until_terminated(self, tmp_path):
        catalog = str(tmp_path / "cli")
        _seed_catalog(catalog, {"alpha": GRAPHS["alpha"]})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.getcwd(), "src"),
                          env.get("PYTHONPATH", "")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--catalog", catalog,
             "--port", "0", "--shard-id", "cli-shard"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            banner = process.stdout.readline()
            assert "serving shard 'cli-shard'" in banner
            assert "alpha" in banner
            url = banner.rsplit(" at ", 1)[1].strip()
            client = ShardClient(url, timeout=10.0)
            assert client.health()["shard"] == "cli-shard"
            result = client.shortest_path(
                QuerySpec(source=0, target=30, graph="alpha"))
            assert result.distance > 0
        finally:
            process.terminate()
            process.wait(timeout=10)
