"""Tests for the catalog-driven shard router: specs/transports, routing
tables, scatter-gather batches, rebalancing, and the ``shards`` CLI."""

import os

import pytest

from repro.catalog import Catalog
from repro.catalog.cli import main as catalog_main
from repro.errors import (
    NodeNotFoundError,
    PathNotFoundError,
    PersistenceUnsupportedError,
    ShardConflictError,
    ShardError,
    UnknownGraphError,
    UnknownShardError,
)
from repro.graph.generators import grid_graph, power_law_graph
from repro.graph.model import Graph
from repro.service import PathService
from repro.shard import (
    ShardRouter,
    ShardSpec,
    build_routing_table,
    default_shard_name,
)
from repro.shard.routing import format_routing_table
from repro.shard.spec import InProcessTransport


def _seed_catalog(catalog_dir, graphs, lthd=None):
    """Catalog ``graphs`` (name -> Graph) as sqlite files inside
    ``catalog_dir``, optionally with a SegTable each."""
    with PathService(catalog_path=catalog_dir) as service:
        for name, graph in graphs.items():
            service.add_graph(name, graph, backend="sqlite",
                              db_path=os.path.join(catalog_dir, f"{name}.db"))
            if lthd is not None:
                service.build_segtable(name, lthd=lthd)


def _shapes(results):
    return [(None if r is None else (r.distance, tuple(r.path)))
            for r in results]


@pytest.fixture
def two_shards(tmp_path):
    """Two seeded shard catalogs: shard ``a`` owns alpha, shard ``b`` owns
    beta and gamma (all with SegTables)."""
    cat_a = str(tmp_path / "a")
    cat_b = str(tmp_path / "b")
    graphs = {
        "alpha": power_law_graph(60, edges_per_node=2, seed=1),
        "beta": power_law_graph(70, edges_per_node=2, seed=2),
        "gamma": grid_graph(6, 6, seed=3),
    }
    _seed_catalog(cat_a, {"alpha": graphs["alpha"]}, lthd=3.0)
    _seed_catalog(cat_b, {"beta": graphs["beta"], "gamma": graphs["gamma"]},
                  lthd=3.0)
    return cat_a, cat_b, graphs


class TestShardSpec:
    def test_rejects_empty_and_pathlike_names(self, tmp_path):
        with pytest.raises(ShardError):
            ShardSpec(name="", catalog_path=str(tmp_path))
        with pytest.raises(ShardError):
            ShardSpec(name="a/b", catalog_path=str(tmp_path))

    def test_default_shard_name_is_catalog_basename(self, tmp_path):
        assert default_shard_name(str(tmp_path / "shard-x") + os.sep) == "shard-x"


class TestRoutingTable:
    def test_conflicting_fingerprints_refuse(self):
        entry = _fake_entry("g", "sha256:aaa")
        other = _fake_entry("g", "sha256:bbb")
        with pytest.raises(ShardConflictError, match="conflicting graph"):
            build_routing_table([("s1", {"g": entry}), ("s2", {"g": other})])

    def test_identical_fingerprints_are_replicas_first_wins(self):
        entry = _fake_entry("g", "sha256:aaa")
        twin = _fake_entry("g", "sha256:aaa")
        table = build_routing_table([("s1", {"g": entry}),
                                     ("s2", {"g": twin})])
        route = table.route("g")
        assert route.shard == "s1"
        assert route.replicas == ("s2",)

    def test_unrouted_graph_raises(self):
        table = build_routing_table([("s1", {})])
        with pytest.raises(UnknownGraphError, match="not routed"):
            table.owner("ghost")

    def test_by_shard_groups_sorted(self):
        table = build_routing_table([
            ("s1", {"b": _fake_entry("b", "sha256:b"),
                    "a": _fake_entry("a", "sha256:a")}),
            ("s2", {"c": _fake_entry("c", "sha256:c")}),
        ])
        assert table.by_shard() == {"s1": ("a", "b"), "s2": ("c",)}
        assert len(format_routing_table(table)) == 5  # header + rule + 3 rows


def _fake_entry(name, fingerprint, stale=False):
    from repro.catalog.manifest import CatalogEntry
    return CatalogEntry(name=name, backend="sqlite",
                        db_path=f"{name}.db", fingerprint=fingerprint,
                        stale=stale)


class TestRouterOpen:
    def test_open_routes_and_stamps_ownership(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            assert router.shards() == ("a", "b")
            assert router.graphs() == ("alpha", "beta", "gamma")
            assert router.owner("alpha") == "a"
            assert router.owner("gamma") == "b"
        # The manifest ownership record is durable.
        assert Catalog(cat_a).get("alpha").shard == "a"
        assert Catalog(cat_b).get("beta").shard == "b"

    def test_open_requires_exactly_one_source(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with pytest.raises(ShardError, match="exactly one"):
            ShardRouter.open()
        with pytest.raises(ShardError, match="exactly one"):
            ShardRouter.open(catalog_paths=[cat_a],
                             specs=[ShardSpec("a", cat_a)])

    def test_specs_with_names_rejected(self, two_shards):
        cat_a, _, _ = two_shards
        with pytest.raises(ShardError, match="applies to catalog_paths"):
            ShardRouter.open(specs=[ShardSpec("a", cat_a)], names=["x"])

    def test_strict_false_skips_unattachable_routes(self, tmp_path):
        import sqlite3
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"good": grid_graph(4, 4, seed=1)})
        _seed_catalog(cat_b, {"drifted": grid_graph(4, 4, seed=2)})
        # Change the database underneath shard b's manifest entry so its
        # fingerprint check fails on attach.
        with sqlite3.connect(os.path.join(cat_b, "drifted.db")) as conn:
            conn.execute("INSERT INTO TEdges (fid, tid, cost) "
                         "VALUES (0, 15, 0.5)")
        with ShardRouter.open(catalog_paths=[cat_a, cat_b],
                              strict=False) as router:
            # The skipped entry is not routed at all — a clean "not
            # routed" up front instead of "not hosted" mid-batch.
            assert router.graphs() == ("good",)
            with pytest.raises(UnknownGraphError, match="not routed"):
                router.shortest_path(0, 1, graph="drifted")
            scatter = router.shortest_path_many([("good", 0, 15)])
            assert scatter.results[0] is not None

    def test_duplicate_shard_names_refused(self, tmp_path, two_shards):
        cat_a, _, _ = two_shards
        nested = str(tmp_path / "deep" / "a")
        os.makedirs(nested)
        _seed_catalog(nested, {"delta": grid_graph(3, 3, seed=9)})
        # Both basenames are "a" — ambiguous without explicit names.
        with pytest.raises(ShardError, match="duplicate shard name"):
            ShardRouter.open(catalog_paths=[cat_a, nested])
        with ShardRouter.open(catalog_paths=[cat_a, nested],
                              names=["a1", "a2"]) as router:
            assert router.shards() == ("a1", "a2")

    def test_conflicting_ownership_refused_and_services_closed(
            self, tmp_path):
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"g": grid_graph(4, 4, seed=1)})
        _seed_catalog(cat_b, {"g": grid_graph(4, 4, seed=2)})
        with pytest.raises(ShardConflictError):
            ShardRouter.open(catalog_paths=[cat_a, cat_b])

    def test_replica_routes_to_first_shard(self, tmp_path):
        graph = grid_graph(4, 4, seed=7)
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"g": graph})
        _seed_catalog(cat_b, {"g": graph})
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            route = router.routing_table().route("g")
            assert route.shard == "a"
            assert route.replicas == ("b",)
            assert router.shortest_path(0, 15, graph="g").distance is not None

    def test_warm_open_runs_zero_segtable_builds(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            for shard in router.shards():
                assert router.service(shard).segtable_builds == 0

    def test_shard_services_are_shard_aware_in_cache_keys(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            assert router.service("a").shard_id == "a"
            assert router.service("b").shard_id == "b"


class TestRouterQueries:
    def test_single_query_routes_to_owner(self, two_shards):
        cat_a, cat_b, graphs = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            direct = PathService()
            direct.add_graph("beta", graphs["beta"])
            expected = direct.shortest_path(0, 9, graph="beta")
            routed = router.shortest_path(0, 9, graph="beta")
            assert routed.distance == expected.distance
            assert routed.path == expected.path
            direct.close()

    def test_unknown_graph_raises_before_work(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            with pytest.raises(UnknownGraphError):
                router.shortest_path(0, 1, graph="ghost")
            with pytest.raises(UnknownGraphError):
                router.shortest_path_many([("ghost", 0, 1)])

    def test_explain_delegates_to_owner(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            plan = router.explain(0, 9, graph="alpha")
            assert plan.spec.graph == "alpha"
            assert plan.method in ("DJ", "BDJ", "BSDJ", "BSEG")

    def test_scatter_gather_preserves_input_order(self, two_shards):
        cat_a, cat_b, graphs = two_shards
        queries = [("beta", 0, 9), ("alpha", 0, 5), ("gamma", 0, 35),
                   ("beta", 1, 8), ("alpha", 0, 5)]
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            scatter = router.shortest_path_many(queries, concurrency=2)
            assert len(scatter) == 5
            assert scatter.shard_of == ["b", "a", "b", "b", "a"]
            # Input order: every result answers its own spec.
            for spec, result in zip(scatter.specs, scatter.results):
                assert result is not None
                assert result.source == spec.source
                assert result.target == spec.target
            # The duplicate (alpha, 0, 5) came from shard a's cache.
            assert scatter.from_cache[4]
            stats = scatter.stats
            assert stats.total == 5
            assert stats.shards_touched == 2
            assert set(stats.per_shard) == {"a", "b"}
            assert stats.per_shard["a"].total == 2
            assert stats.per_shard["b"].total == 3
            rollup = stats.rollup()
            assert rollup.total == 5
            assert rollup.per_graph == {"alpha": 2, "beta": 2, "gamma": 1}
            assert rollup.total_time == stats.total_time

    def test_scatter_matches_monolith(self, two_shards):
        cat_a, cat_b, graphs = two_shards
        queries = [("alpha", 0, 7), ("beta", 2, 11), ("gamma", 0, 20),
                   ("gamma", 5, 30), ("alpha", 3, 9)]
        with PathService() as mono:
            for name, graph in graphs.items():
                mono.add_graph(name, graph)
            baseline = mono.shortest_path_many(queries)
            expected = _shapes(baseline.results)
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            for level in (1, 3):
                scatter = router.shortest_path_many(queries,
                                                    concurrency=level)
                assert _shapes(scatter.results) == expected

    def test_unreachable_recorded_or_raised_deterministically(self, tmp_path):
        # Two disconnected components on one shard, a connected graph on
        # the other.
        split = Graph(directed=False)
        split.add_edge(0, 1, 1.0)
        split.add_edge(10, 11, 1.0)
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"split": split})
        _seed_catalog(cat_b, {"grid": grid_graph(4, 4, seed=5)})
        queries = [("grid", 0, 15), ("split", 0, 10), ("split", 1, 11),
                   ("grid", 1, 14)]
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            scatter = router.shortest_path_many(queries)
            assert scatter.results[0] is not None
            assert scatter.results[1] is None
            assert scatter.results[2] is None
            assert scatter.stats.not_found == 2
            assert scatter.distances()[1] is None
            assert len(scatter.found()) == 2
            # raise_on_unreachable surfaces the smallest input index.
            with pytest.raises(PathNotFoundError, match="batch index 1"):
                router.shortest_path_many(queries, raise_on_unreachable=True)

    def test_malformed_queries_fail_before_any_work(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            with pytest.raises(NodeNotFoundError):
                router.shortest_path_many([("alpha", 0, 5),
                                           ("beta", 0, 999999)])
            # Nothing executed: no shard saw a slice.
            info = router.service("a").cache_info()
            assert info.misses == 0

    def test_unknown_shard_name(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            with pytest.raises(UnknownShardError):
                router.service("z")


class TestMove:
    def test_move_migrates_segtable_without_rebuild(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            before = router.shortest_path(0, 5, graph="alpha")
            route = router.move("alpha", "b")
            assert route.shard == "b"
            assert router.owner("alpha") == "b"
            # The SegTable migrated inside the database file: adopted, not
            # reconstructed.
            assert router.service("b").segtable_builds == 0
            assert router.service("b").segtable_stats("alpha") is not None
            assert router.service("b").store("alpha").has_segtable
            after = router.shortest_path(0, 5, graph="alpha")
            assert after.distance == before.distance
            assert after.path == before.path
            # Manifests were rewritten: entry moved a -> b, file moved too.
            assert "alpha" not in Catalog(cat_a)
            entry = Catalog(cat_b).get("alpha")
            assert entry.shard == "b"
            assert os.path.exists(os.path.join(cat_b, "alpha.db"))
            assert not os.path.exists(os.path.join(cat_a, "alpha.db"))

    def test_move_to_current_owner_is_noop(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            route = router.move("alpha", "a")
            assert route.shard == "a"
            assert os.path.exists(os.path.join(cat_a, "alpha.db"))

    def test_move_survives_router_reopen(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            router.move("alpha", "b")
            expected = router.shortest_path(0, 5, graph="alpha")
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            assert router.owner("alpha") == "b"
            assert router.service("b").segtable_builds == 0
            replay = router.shortest_path(0, 5, graph="alpha")
            assert replay.distance == expected.distance

    def test_move_refuses_target_filename_collision(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            # Drop a decoy file where the move would land.
            with open(os.path.join(cat_b, "alpha.db"), "wb") as handle:
                handle.write(b"decoy")
            with pytest.raises(ShardError, match="already holds"):
                router.move("alpha", "b")

    def test_failed_export_keeps_graph_hosted_and_routed(
            self, two_shards, monkeypatch):
        from repro.core.store.sqlite import SQLiteGraphStore
        cat_a, cat_b, _ = two_shards

        def broken_export(self, dest_path):
            # Fail *midway*: a partial snapshot hits the disk first.
            with open(dest_path, "wb") as handle:
                handle.write(b"partial snapshot")
            raise OSError("disk full")

        monkeypatch.setattr(SQLiteGraphStore, "export_database",
                            broken_export)
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            with pytest.raises(OSError, match="disk full"):
                router.move("alpha", "b")
            # The aborted move left everything in place: still owned by
            # and hosted on shard a, and still answerable.
            assert router.owner("alpha") == "a"
            assert "alpha" in router.service("a").graphs()
            assert router.shortest_path(0, 5, graph="alpha") is not None
            assert "alpha" in Catalog(cat_a)
            assert "alpha" not in Catalog(cat_b)
            # ... and the half-written snapshot was cleaned up, so a
            # retry is not refused by the dest-exists guard.
            assert not os.path.exists(os.path.join(cat_b, "alpha.db"))
            assert router.move_stats()["moves"] == 0

    def test_move_onto_replica_flips_ownership_without_copy(self, tmp_path):
        graph = grid_graph(4, 4, seed=11)
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"g": graph}, lthd=3.0)
        _seed_catalog(cat_b, {"g": graph}, lthd=3.0)
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            before = router.shortest_path(0, 15, graph="g")
            mtime = os.path.getmtime(os.path.join(cat_b, "g.db"))
            route = router.move("g", "b")
            # Ownership flipped; the old owner is now the replica; no
            # bytes moved (both files stay, the target's untouched).
            assert route.shard == "b"
            assert route.replicas == ("a",)
            assert router.owner("g") == "b"
            assert os.path.getmtime(os.path.join(cat_b, "g.db")) == mtime
            assert os.path.exists(os.path.join(cat_a, "g.db"))
            assert router.move_stats() == {"moves": 0, "replica_noops": 1}
            after = router.shortest_path(0, 15, graph="g")
            assert (after.distance, after.path) == (before.distance,
                                                   before.path)
            # The durable ownership record moved with the flip.
            assert Catalog(cat_b).get("g").shard == "b"
            assert Catalog(cat_a).get("g").shard == "b"

    def test_move_unknown_graph_or_shard(self, two_shards):
        cat_a, cat_b, _ = two_shards
        with ShardRouter.open(catalog_paths=[cat_a, cat_b]) as router:
            with pytest.raises(UnknownGraphError):
                router.move("ghost", "b")
            with pytest.raises(UnknownShardError):
                router.move("alpha", "z")


class TestStoreRelocation:
    def test_sqlite_export_database_carries_segtable(self, tmp_path):
        from repro.core.store.registry import create_store
        graph = grid_graph(4, 4, seed=2)
        src_path = str(tmp_path / "src.db")
        dst_path = str(tmp_path / "dst.db")
        with PathService(catalog_path=str(tmp_path / "cat")) as service:
            service.add_graph("g", graph, backend="sqlite", db_path=src_path)
            service.build_segtable("g", lthd=3.0)
        store = create_store("sqlite", path=src_path)
        try:
            assert store.supports_relocation()
            store.export_database(dst_path)
        finally:
            store.close()
        copy = create_store("sqlite", path=dst_path)
        try:
            assert copy.has_persistent_tables()
            assert copy.has_persistent_segtable()
            assert copy.content_fingerprint() == \
                create_store("sqlite", path=src_path).content_fingerprint()
        finally:
            copy.close()

    def test_in_memory_store_refuses_relocation(self):
        from repro.core.store.registry import create_store
        store = create_store("sqlite")
        try:
            assert not store.supports_relocation()
            with pytest.raises(PersistenceUnsupportedError):
                store.export_database("/tmp/nope.db")
        finally:
            store.close()

    def test_minidb_refuses_relocation(self):
        from repro.core.store.registry import create_store
        store = create_store("minidb")
        try:
            assert not store.supports_relocation()
            with pytest.raises(PersistenceUnsupportedError):
                store.export_database("/tmp/nope.db")
        finally:
            store.close()


class TestShardsCLI:
    def test_shards_prints_routing_table(self, two_shards, capsys):
        cat_a, cat_b, _ = two_shards
        status = catalog_main(["shards", "--catalog", cat_a,
                               "--catalog", cat_b])
        out = capsys.readouterr().out
        assert status == 0
        assert "alpha" in out and "beta" in out and "gamma" in out
        assert "3 graph(s) across 2 shard(s)" in out

    def test_shards_reports_conflict_nonzero(self, tmp_path, capsys):
        cat_a, cat_b = str(tmp_path / "a"), str(tmp_path / "b")
        _seed_catalog(cat_a, {"g": grid_graph(4, 4, seed=1)})
        _seed_catalog(cat_b, {"g": grid_graph(4, 4, seed=2)})
        status = catalog_main(["shards", "--catalog", cat_a,
                               "--catalog", cat_b])
        err = capsys.readouterr().err
        assert status == 1
        assert "conflicting graph ownership" in err

    def test_shards_duplicate_names_need_disambiguation(
            self, tmp_path, capsys):
        nested_a = str(tmp_path / "x" / "cat")
        nested_b = str(tmp_path / "y" / "cat")
        os.makedirs(nested_a)
        os.makedirs(nested_b)
        _seed_catalog(nested_a, {"g1": grid_graph(3, 3, seed=1)})
        _seed_catalog(nested_b, {"g2": grid_graph(3, 3, seed=2)})
        status = catalog_main(["shards", "--catalog", nested_a,
                               "--catalog", nested_b])
        assert status == 1
        assert "duplicate shard names" in capsys.readouterr().err
        status = catalog_main(["shards", "--catalog", nested_a,
                               "--catalog", nested_b,
                               "--name", "s1", "--name", "s2"])
        assert status == 0
        assert "s1" in capsys.readouterr().out
