"""Tests for the persistent session catalog: manifests, warm starts,
fingerprint invalidation, and the maintenance CLI."""

import json
import os
import sqlite3

import pytest

from repro.catalog import MANIFEST_NAME, Catalog, load_manifest
from repro.catalog.cli import main as catalog_main
from repro.core.store.registry import create_store
from repro.errors import (
    CatalogEntryNotFoundError,
    DuplicateGraphError,
    FingerprintMismatchError,
    ManifestError,
    PersistenceUnsupportedError,
)
from repro.graph.fingerprint import fingerprint_graph
from repro.graph.generators import grid_graph, power_law_graph
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService


def _shapes(batch):
    return [(None if r is None else (r.distance, tuple(r.path)))
            for r in batch.results]


@pytest.fixture
def catalog_dir(tmp_path):
    return str(tmp_path / "catalog")


def _build_cold_session(catalog_dir, graph, name="social", lthd=6.0):
    """Register ``graph`` in a catalog-bound service, build its SegTable,
    and return the db_path used."""
    db_path = os.path.join(catalog_dir, f"{name}.db")
    with PathService(catalog_path=catalog_dir) as service:
        service.add_graph(name, graph, backend="sqlite", db_path=db_path)
        service.build_segtable(name, lthd=lthd)
    return db_path


class TestFingerprint:
    def test_store_and_graph_fingerprints_agree(self, tmp_path):
        graph = grid_graph(4, 4, seed=3)
        store = create_store("sqlite", path=str(tmp_path / "g.db"))
        try:
            store.load_graph(graph)
            assert store.content_fingerprint() == fingerprint_graph(graph)
        finally:
            store.close()

    def test_fingerprint_sensitive_to_weight_change(self):
        a = grid_graph(3, 3, seed=1)
        b = a.copy()
        b.add_edge(0, 1, 99.5)
        assert fingerprint_graph(a) != fingerprint_graph(b)

    def test_in_memory_store_refuses_persistence(self):
        store = create_store("sqlite")
        try:
            assert not store.supports_persistence()
        finally:
            store.close()

    def test_minidb_store_refuses_persistence(self):
        store = create_store("minidb")
        try:
            assert not store.supports_persistence()
            with pytest.raises(PersistenceUnsupportedError):
                store.content_fingerprint()
        finally:
            store.close()


class TestCatalogRegistration:
    def test_add_graph_records_entry(self, catalog_dir):
        graph = grid_graph(4, 4, seed=5)
        db_path = _build_cold_session(catalog_dir, graph, lthd=5.0)
        catalog = Catalog(catalog_dir)
        entry = catalog.get("social")
        assert entry.backend == "sqlite"
        # The db file lives inside the catalog dir, so the manifest stores
        # it relative (the catalog is relocatable as a unit).
        assert entry.db_path == os.path.basename(db_path)
        assert catalog.resolve_db_path(entry) == db_path
        assert entry.num_nodes == graph.num_nodes
        assert entry.num_edges == graph.num_edges
        assert entry.fingerprint == fingerprint_graph(graph)
        assert entry.statistics is not None
        assert entry.statistics.num_nodes == graph.num_nodes
        assert entry.segtable is not None
        assert entry.segtable.lthd == 5.0
        assert entry.segtable.build is not None
        assert entry.segtable.build.encoding_number > 0

    def test_in_memory_graphs_are_not_cataloged(self, catalog_dir):
        with PathService(catalog_path=catalog_dir) as service:
            service.add_graph("mem", grid_graph(3, 3, seed=1),
                              backend="sqlite")  # no db_path
            service.add_graph("mini", grid_graph(3, 3, seed=1),
                              backend="minidb")
        assert len(Catalog(catalog_dir)) == 0

    def test_persist_false_opts_out(self, catalog_dir, tmp_path):
        with PathService(catalog_path=catalog_dir) as service:
            service.add_graph("g", grid_graph(3, 3, seed=1),
                              backend="sqlite",
                              db_path=str(tmp_path / "g.db"),
                              persist=False)
        assert len(Catalog(catalog_dir)) == 0

    def test_cwd_relative_db_path_survives_cwd_change(self, tmp_path,
                                                      monkeypatch):
        # A db_path relative to the *cwd* must be normalized at
        # registration; resolving it against the catalog dir later (from a
        # different cwd) has to find the same file.
        monkeypatch.chdir(tmp_path)
        with PathService(catalog_path="cat") as service:
            service.add_graph("g", grid_graph(3, 3, seed=1),
                              backend="sqlite",
                              db_path=os.path.join("cat", "g.db"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        with PathService.open(str(tmp_path / "cat")) as warm:
            assert warm.graphs() == ("g",)

    def test_catalog_directory_is_relocatable(self, tmp_path):
        source = str(tmp_path / "cat")
        _build_cold_session(source, grid_graph(3, 3, seed=1))
        moved = str(tmp_path / "moved")
        os.rename(source, moved)
        with PathService.open(moved) as warm:
            assert warm.graphs() == ("social",)
            assert warm.segtable_builds == 0

    def test_manifest_round_trips_through_json(self, catalog_dir):
        _build_cold_session(catalog_dir, grid_graph(3, 3, seed=2))
        manifest_path = os.path.join(catalog_dir, "manifest.json")
        manifest = load_manifest(manifest_path)
        entry = manifest.entries["social"]
        reparsed = load_manifest(manifest_path).entries["social"]
        assert reparsed == entry
        # The document itself is plain JSON with a version stamp.
        with open(manifest_path, encoding="utf-8") as handle:
            raw = json.load(handle)
        assert raw["format_version"] == 1

    def test_unsupported_manifest_version_raises(self, catalog_dir):
        os.makedirs(catalog_dir)
        manifest_path = os.path.join(catalog_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump({"format_version": 99, "graphs": {}}, handle)
        with pytest.raises(ManifestError, match="version"):
            Catalog(catalog_dir)


class TestWarmStart:
    def test_round_trip_bit_identical_and_zero_rebuilds(self, catalog_dir,
                                                        query_rng):
        graph = power_law_graph(100, edges_per_node=2, seed=11)
        nodes = sorted(graph.nodes())
        queries = [(query_rng.choice(nodes), query_rng.choice(nodes))
                   for _ in range(12)]
        db_path = os.path.join(catalog_dir, "social.db")
        with PathService(catalog_path=catalog_dir) as service:
            service.add_graph("social", graph, backend="sqlite",
                              db_path=db_path)
            cold_build = service.build_segtable("social", lthd=4.0)
            cold = service.shortest_path_many(queries, graph="social")
            cold_shapes = _shapes(cold)
            assert service.segtable_builds == 1
        # "Kill" the service (closed above), then warm-start a new one.
        with PathService.open(catalog_dir) as warm:
            assert warm.graphs() == ("social",)
            # SegTable adopted, not rebuilt; persisted stats rehydrated.
            assert warm.segtable_builds == 0
            stats = warm.segtable_stats("social")
            assert stats is not None
            assert stats.encoding_number == cold_build.encoding_number
            assert warm.store("social").has_segtable
            # Planner statistics came from the manifest (no rescan needed);
            # auto planning picks BSEG immediately.
            plan = warm.explain(queries[0][0], queries[0][1], graph="social")
            assert plan.method == "BSEG"
            warm_batch = warm.shortest_path_many(queries, graph="social")
            assert _shapes(warm_batch) == cold_shapes
            # Still zero constructions in this process...
            assert warm.segtable_builds == 0
            # ...even after an explicit build with the persisted parameters
            # (the memo key — name, params, fingerprint — matches).
            memoized = warm.build_segtable("social", lthd=4.0)
            assert warm.segtable_builds == 0
            assert memoized.encoding_number == cold_build.encoding_number

    def test_warm_statistics_match_cold(self, catalog_dir):
        graph = grid_graph(5, 5, seed=7)
        _build_cold_session(catalog_dir, graph)
        with PathService.open(catalog_dir) as warm:
            warm_stats = warm.statistics("social")
            assert warm_stats.num_nodes == graph.num_nodes
            assert warm_stats.num_edges == graph.num_edges
            assert warm_stats.degree_histogram  # int keys survived JSON
            assert all(isinstance(k, int)
                       for k in warm_stats.degree_histogram)

    def test_concurrent_reattach_through_store_pool(self, catalog_dir,
                                                    query_rng):
        graph = power_law_graph(120, edges_per_node=2, seed=13)
        nodes = sorted(graph.nodes())
        queries = [(query_rng.choice(nodes), query_rng.choice(nodes))
                   for _ in range(24)]
        _build_cold_session(catalog_dir, graph, lthd=4.0)
        with PathService.open(catalog_dir, cache_size=0) as warm:
            serial = warm.shortest_path_many(queries, graph="social")
            parallel = warm.shortest_path_many(queries, graph="social",
                                               concurrency=4)
            assert _shapes(parallel) == _shapes(serial)
            pool = warm.pool_stats("social")
            # The pool grew by cloning connections over the db_path file.
            assert pool.replicas_cloned >= 1
            assert pool.replicas_rehydrated == 0
            assert warm.segtable_builds == 0

    def test_warm_attach_rehydrates_segtable_without_clone(self,
                                                           catalog_dir,
                                                           query_rng,
                                                           monkeypatch):
        """A persistence-capable backend without a clone() fast path must
        still serve BSEG from rehydrated pool replicas after a warm
        attach (segment rows are captured at attach time)."""
        from repro.core.store.sqlite import SQLiteGraphStore
        from repro.errors import StoreCloneUnsupportedError

        graph = power_law_graph(80, edges_per_node=2, seed=17)
        nodes = sorted(graph.nodes())
        queries = [(query_rng.choice(nodes), query_rng.choice(nodes))
                   for _ in range(12)]
        _build_cold_session(catalog_dir, graph, lthd=4.0)

        def no_clone(self):
            raise StoreCloneUnsupportedError("clone disabled for this test")

        monkeypatch.setattr(SQLiteGraphStore, "supports_clone",
                            lambda self: False)
        monkeypatch.setattr(SQLiteGraphStore, "clone", no_clone)
        with PathService.open(catalog_dir, cache_size=0) as warm:
            serial = warm.shortest_path_many(queries, graph="social",
                                             method="BSEG")
            parallel = warm.shortest_path_many(queries, graph="social",
                                               method="BSEG", concurrency=3)
            assert _shapes(parallel) == _shapes(serial)
            pool = warm.pool_stats("social")
            assert pool.replicas_rehydrated >= 1
            assert pool.replicas_cloned == 0
            assert warm.segtable_builds == 0

    def test_attach_into_existing_service(self, catalog_dir):
        _build_cold_session(catalog_dir, grid_graph(4, 4, seed=9))
        with PathService(catalog_path=catalog_dir) as service:
            assert service.graphs() == ()
            service.attach_graph("social")
            assert service.graphs() == ("social",)
            with pytest.raises(DuplicateGraphError):
                service.attach_graph("social")

    def test_attach_unknown_name_raises(self, catalog_dir):
        with PathService(catalog_path=catalog_dir) as service:
            with pytest.raises(CatalogEntryNotFoundError):
                service.attach_graph("nope")

    def test_open_without_catalog_dir_creates_empty(self, catalog_dir):
        with PathService.open(catalog_dir) as service:
            assert service.graphs() == ()

    def test_parent_format_calibrations_are_ignored_and_dropped(
            self, catalog_dir):
        """Manifests from releases that persisted planner calibrations
        still open; the section is dropped on the next save."""
        graph = power_law_graph(80, edges_per_node=2, seed=9)
        with PathService(catalog_path=catalog_dir) as cold:
            cold.add_graph("g", graph, backend="sqlite",
                           db_path=os.path.join(catalog_dir, "g.db"))
        manifest_path = os.path.join(catalog_dir, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            document = json.load(handle)
        # The section as earlier releases wrote it.
        profile = {"version": 2, "backend": "sqlite", "host": "h",
                   "statement_cost": 1e-5, "scan_row_cost": 1e-8,
                   "row_cost": 1e-6, "seg_row_cost": 1e-6,
                   "seg_build_row_cost": 1e-5,
                   "method_bias": {"DJ": 3.0}, "global_bias": 1.0,
                   "calibrated": True, "calibrated_at": 1234.5,
                   "probe_seconds": 0.5}
        document["calibrations"] = {"sqlite": {
            "backend": "sqlite", "profile": profile,
            "calibrated_at": 1234.5}}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        with PathService.open(catalog_dir) as warm:
            answer = warm.shortest_path(0, 40, graph="g")
            assert answer.distance == dijkstra_shortest_path(
                graph, 0, 40).distance
            warm.build_segtable("g", lthd=5.0)  # the next manifest save
        with open(manifest_path, encoding="utf-8") as handle:
            saved = json.load(handle)
        assert "calibrations" not in saved
        assert saved["graphs"]["g"]["segtable"]["lthd"] == 5.0


class TestInvalidation:
    def test_fingerprint_mismatch_marks_stale_and_raises(self, catalog_dir):
        db_path = _build_cold_session(catalog_dir, grid_graph(4, 4, seed=2))
        # The graph changes underneath the catalog entry.
        connection = sqlite3.connect(db_path)
        connection.execute(
            "INSERT INTO TEdges (fid, tid, cost) VALUES (0, 15, 0.25)")
        connection.commit()
        connection.close()
        with PathService(catalog_path=catalog_dir) as service:
            with pytest.raises(FingerprintMismatchError, match="rebuild"):
                service.attach_graph("social")
            # The entry is now stale: attaching again fails fast, before
            # touching the database.
            with pytest.raises(FingerprintMismatchError, match="stale"):
                service.attach_graph("social")
        assert Catalog(catalog_dir).get("social").stale

    def test_open_strict_false_skips_bad_entries(self, catalog_dir,
                                                 tmp_path):
        _build_cold_session(catalog_dir, grid_graph(4, 4, seed=2))
        db_path = os.path.join(catalog_dir, "gone.db")
        with PathService(catalog_path=catalog_dir) as service:
            service.add_graph("gone", grid_graph(3, 3, seed=1),
                              backend="sqlite", db_path=db_path)
        os.remove(db_path)
        with pytest.raises(ManifestError):
            PathService.open(catalog_dir)
        with PathService.open(catalog_dir, strict=False) as service:
            assert service.graphs() == ("social",)

    def test_rebuild_recovers_stale_entry(self, catalog_dir):
        db_path = _build_cold_session(catalog_dir, grid_graph(4, 4, seed=2),
                                      lthd=5.0)
        connection = sqlite3.connect(db_path)
        connection.execute(
            "INSERT INTO TEdges (fid, tid, cost) VALUES (0, 15, 0.25)")
        connection.commit()
        connection.close()
        catalog = Catalog(catalog_dir)
        catalog.mark_stale("social")
        refreshed = catalog.rebuild("social")
        assert not refreshed.stale
        assert refreshed.segtable is not None
        assert refreshed.segtable.lthd == 5.0
        # The refreshed entry attaches cleanly and sees the new edge.
        with PathService.open(catalog_dir) as warm:
            assert warm.graph("social").has_edge(0, 15)
            result = warm.shortest_path(0, 15, graph="social")
            assert result.distance == pytest.approx(0.25)

    def test_gc_drops_missing_and_stale(self, catalog_dir):
        db_path = _build_cold_session(catalog_dir, grid_graph(3, 3, seed=4),
                                      name="a")
        _build_cold_session(catalog_dir, grid_graph(3, 3, seed=5), name="b")
        catalog = Catalog(catalog_dir)
        os.remove(db_path)
        assert catalog.gc() == ("a",)
        catalog.mark_stale("b")
        assert catalog.gc() == ()  # stale-but-present survives plain gc
        assert catalog.gc(remove_stale=True) == ("b",)
        assert catalog.names() == ()


class TestMemoizationKeying:
    def test_reregistered_graph_never_serves_stale_memo(self,
                                                        small_grid_graph):
        """Satellite fix: the memo key carries the content fingerprint, so
        a different graph re-registered under a reused name rebuilds."""
        with PathService() as service:
            service.add_graph("g", small_grid_graph)
            first = service.build_segtable("g", lthd=5)
            service.drop_graph("g")
            other = grid_graph(5, 5, seed=99)
            service.add_graph("g", other)
            second = service.build_segtable("g", lthd=5)
            assert second is not first
            assert service.segtable_builds == 2

    def test_same_content_same_key(self, small_grid_graph):
        with PathService() as service:
            service.add_graph("g", small_grid_graph)
            first = service.build_segtable("g", lthd=5)
            second = service.build_segtable("g", lthd=5)
            assert second is first
            assert service.segtable_builds == 1


class TestCatalogCLI:
    def test_list_inspect_rebuild_gc(self, catalog_dir, capsys):
        db_path = _build_cold_session(catalog_dir, grid_graph(4, 4, seed=6),
                                      lthd=5.0)
        assert catalog_main(["list", "--catalog", catalog_dir]) == 0
        out = capsys.readouterr().out
        assert "social" in out and "sqlite" in out

        assert catalog_main(["inspect", "--catalog", catalog_dir,
                             "social"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["name"] == "social"
        assert entry["segtable"]["lthd"] == 5.0

        assert catalog_main(["rebuild", "--catalog", catalog_dir,
                             "social", "--lthd", "6"]) == 0
        assert "rebuilt 'social'" in capsys.readouterr().out
        assert Catalog(catalog_dir).get("social").segtable.lthd == 6.0

        os.remove(db_path)
        assert catalog_main(["gc", "--catalog", catalog_dir]) == 0
        assert "social" in capsys.readouterr().out
        assert len(Catalog(catalog_dir)) == 0

    def test_inspect_unknown_name_exits_nonzero(self, catalog_dir, capsys):
        os.makedirs(catalog_dir)
        assert catalog_main(["inspect", "--catalog", catalog_dir,
                             "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_list_empty_catalog(self, catalog_dir, capsys):
        os.makedirs(catalog_dir)
        assert catalog_main(["list", "--catalog", catalog_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_mistyped_catalog_path_errors_not_creates(self, tmp_path,
                                                      capsys):
        missing = str(tmp_path / "cataog")  # typo
        assert catalog_main(["list", "--catalog", missing]) == 1
        assert "no catalog directory" in capsys.readouterr().err
        assert not os.path.exists(missing)

    def test_calibrate_is_not_a_command(self, catalog_dir, capsys):
        # A calibration prices only the process that measured it, so the
        # catalog has no verb to record one.
        os.makedirs(catalog_dir)
        with pytest.raises(SystemExit) as exited:
            catalog_main(["calibrate", "--catalog", catalog_dir])
        assert exited.value.code == 2
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err


class TestCrossProcessSafety:
    def test_mutations_merge_with_on_disk_writes(self, catalog_dir,
                                                 tmp_path):
        """Two services bound to one catalog must not erase each other's
        registrations: every mutation re-reads the manifest first."""
        with PathService(catalog_path=catalog_dir) as a, \
                PathService(catalog_path=catalog_dir) as b:
            # Both catalogs parsed the (empty) manifest at bind time.
            a.add_graph("from_a", grid_graph(3, 3, seed=1),
                        backend="sqlite",
                        db_path=str(tmp_path / "a.db"))
            b.add_graph("from_b", grid_graph(3, 3, seed=2),
                        backend="sqlite",
                        db_path=str(tmp_path / "b.db"))
            # b's write merged into the document a already wrote.
            assert Catalog(catalog_dir).names() == ("from_a", "from_b")
            # A segtable update through a does not drop b's entry either.
            a.build_segtable("from_a", lthd=4)
            assert Catalog(catalog_dir).names() == ("from_a", "from_b")
