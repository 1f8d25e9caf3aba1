"""Backend conformance suite.

One parametrized capability/correctness suite that any backend registered
through :func:`repro.core.store.registry.register_backend` must pass:
graph loading, bit-identical FEM query answers against the SQLite
reference, pool clone/checkout behavior (with ``max_connections``
clamping), the persistence round-trip, and fingerprint stability.

The hermetic matrix covers ``minidb``, ``sqlite``, and the generic DB-API
store over the stdlib fallback wire server.  Setting ``REPRO_TEST_DSN``
to a PostgreSQL DSN (the CI ``postgres`` job does) adds a live-server
leg running the exact same assertions.
"""

from __future__ import annotations

import json
import os
import random
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from conftest import visited_rows
from repro.core.directions import FORWARD_DIRECTION
from repro.core.multi import hop_limited_search
from repro.core.segtable import build_segtable
from repro.core.stats import QueryStats
from repro.core.store.base import (
    MODE_NODE,
    PROBE_FINALIZED,
    GraphStore,
    IterationRule,
)
from repro.core.store.registry import available_backends, create_store
from repro.errors import PathNotFoundError
from repro.graph.fingerprint import fingerprint_graph
from repro.graph.generators import power_law_graph
from repro.graph.model import Graph
from repro.service import RELATIONAL_METHODS, PathService
from repro.store.dbapi import ParsedDSN

LIVE_DSN = os.environ.get("REPRO_TEST_DSN", "").strip()

RELATIONAL = ("DJ", "BDJ", "BSDJ", "BSEG")

BACKENDS = [
    pytest.param("minidb", id="minidb"),
    pytest.param("sqlite", id="sqlite"),
    pytest.param("dbapi", id="dbapi-fallback"),
    pytest.param(
        "dbapi-live",
        id="postgres-live",
        marks=pytest.mark.skipif(
            not LIVE_DSN, reason="REPRO_TEST_DSN not set"),
    ),
]


def _with_prefix(dsn: str) -> str:
    """Append a unique ``table_prefix`` so suite runs sharing one server
    database (the session fallback server, or a CI PostgreSQL service)
    never collide."""
    sep = "&" if "?" in dsn else "?"
    return f"{dsn}{sep}table_prefix=t{uuid.uuid4().hex[:10]}_"


@pytest.fixture
def conformance_backend(request: pytest.FixtureRequest
                        ) -> Tuple[str, Callable[[], Optional[str]]]:
    """Resolve a matrix param to ``(backend_name, path_factory)``."""
    param = request.param
    if param == "dbapi":
        return "dbapi", request.getfixturevalue("fresh_dsn")
    if param == "dbapi-live":
        return "dbapi", lambda: _with_prefix(LIVE_DSN)
    return param, lambda: None


def _parametrized(func):
    return pytest.mark.parametrize("conformance_backend", BACKENDS,
                                   indirect=True)(func)


@pytest.fixture
def make_store(conformance_backend):
    """Store factory for the backend under test; destroys every store it
    handed out (dropping namespaced server tables) at teardown."""
    backend, make_path = conformance_backend
    created: List[GraphStore] = []

    def factory(path: Optional[str] = None, **kwargs: object) -> GraphStore:
        store = create_store(backend, path=path or make_path(), **kwargs)
        created.append(store)
        return store

    yield factory
    for store in created:
        try:
            store.destroy()
        except Exception:
            pass


def conformance_graph() -> Graph:
    graph = Graph()
    edges = [
        (1, 2, 4.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 2.0),
        (3, 4, 6.0), (4, 5, 1.0), (2, 5, 5.0), (5, 6, 2.0),
        (3, 6, 9.0), (6, 1, 3.0), (4, 7, 4.0), (7, 6, 1.0),
    ]
    for fid, tid, cost in edges:
        graph.add_edge(fid, tid, cost)
    return graph


QUERY_PAIRS = [(1, 6), (1, 7), (3, 5), (6, 4), (2, 6)]


def _reference_answers(kind: str = "path", max_hops: Optional[int] = None):
    """The SQLite backend's answers — the conformance reference."""
    service = PathService(default_backend="sqlite")
    try:
        service.add_graph("g", conformance_graph(), persist=False)
        answers = {}
        for source, target in QUERY_PAIRS:
            result = service.shortest_path(source, target, graph="g",
                                           method="DJ", kind=kind,
                                           max_hops=max_hops)
            answers[(source, target)] = (result.distance, tuple(result.path))
        return answers
    finally:
        service.close()


def _service_for(backend: str, make_path, concurrency: int = 1,
                 with_segtable: bool = False) -> PathService:
    service = PathService(default_backend=backend)
    service.add_graph("g", conformance_graph(), backend=backend,
                      db_path=make_path(), concurrency=concurrency,
                      persist=False)
    if with_segtable:
        service.build_segtable("g", lthd=3.0)
    return service


class TestCapabilitySurface:
    def test_every_matrix_backend_is_registered(self):
        names = available_backends()
        for required in ("minidb", "sqlite", "dbapi"):
            assert required in names

    @_parametrized
    def test_capability_contract(self, conformance_backend, make_store):
        backend, _ = conformance_backend
        store = make_store()
        assert store.backend_name == backend
        assert isinstance(type(store).supports_concurrent_readers, bool)
        limit = store.max_connections()
        assert limit is None or (isinstance(limit, int) and limit >= 1)
        assert isinstance(store.supports_clone(), bool)
        assert isinstance(store.supports_persistence(), bool)

    @_parametrized
    def test_store_level_fem_statements(self, make_store):
        store = make_store()
        store.load_graph(conformance_graph())
        store.begin_query(QueryStats(), "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        assert store.visited_count() == 1
        step = store.iterate(FORWARD_DIRECTION, IterationRule(
            mode=MODE_NODE, probe=PROBE_FINALIZED, target=1))
        assert step.selected == 1  # TOP 1 is node 1
        assert step.affected == 2  # nodes 2 and 3 discovered
        assert step.done  # node 1 is finalized
        rows = {row["nid"]: row for row in visited_rows(store)}
        assert rows[2]["d2s"] == 4.0
        assert rows[3]["d2s"] == 1.0
        assert store.recover(1, 3, PROBE_FINALIZED) == (1.0, [1, 3])


EXACT_COUNTS_PATH = Path(__file__).with_name("exact_counts.json")
"""Golden per-query counts, recorded once and compared exactly: a
refactor of the store contract or the drivers must issue the same
statements, touch the same rows and visit the same nodes."""

HOP_METHODS = {"HOPS": 3, "REACH": None}
ISOLATED = 300


def _power_graph() -> Graph:
    """A seeded 300-node power-law graph plus one isolated node."""
    graph = power_law_graph(300, edges_per_node=2, seed=7)
    graph.add_node(ISOLATED)
    return graph


def _power_pairs(graph: Graph) -> List[Tuple[int, int]]:
    """Three pairs drawn with seed 11, and one into the isolated node."""
    rng = random.Random(11)
    pairs = [tuple(rng.sample(range(300), 2)) for _ in range(3)]
    return pairs + [(pairs[0][0], ISOLATED)]


def _count_record(stats: QueryStats) -> List[object]:
    return [stats.statements, stats.affected_rows, stats.expansions,
            stats.visited_nodes, ",".join(sorted(stats.time_by_phase)),
            ",".join(sorted(stats.time_by_operator))]


def _exact_counts(backend: str) -> Dict[str, object]:
    """Every method x SQL style on the conformance graph and a seeded
    300-node power-law graph, plus the SegTable builds: one record per
    query (unreachable ones included, read off ``store.stats``)."""
    counts: Dict[str, object] = {}
    power = _power_graph()
    for name, graph, pairs in (
            ("conformance", conformance_graph(), QUERY_PAIRS),
            ("power300", power, _power_pairs(power))):
        store = create_store(backend)
        try:
            store.load_graph(graph)
            for style in ("nsql", "tsql"):
                build = build_segtable(store, 3.0, sql_style=style)
                counts[f"{name}/SegTableBuild/{style}"] = build.statements
            for method in list(RELATIONAL_METHODS) + list(HOP_METHODS):
                for style in ("nsql", "tsql"):
                    records = []
                    for source, target in pairs:
                        try:
                            if method in HOP_METHODS:
                                hop_limited_search(
                                    store, source, target, sql_style=style,
                                    max_hops=HOP_METHODS[method],
                                    method=method)
                            else:
                                RELATIONAL_METHODS[method](
                                    store, source, target, sql_style=style)
                        except PathNotFoundError:
                            pass
                        records.append(_count_record(store.stats))
                    counts[f"{name}/{method}/{style}"] = records
        finally:
            store.close()
    return counts


class TestQueryParity:
    @_parametrized
    @pytest.mark.parametrize("method", RELATIONAL)
    @pytest.mark.parametrize("sql_style", ["nsql", "tsql"])
    def test_methods_bit_identical_to_reference(self, conformance_backend,
                                                method, sql_style):
        backend, make_path = conformance_backend
        reference = _reference_answers()
        service = _service_for(backend, make_path,
                               with_segtable=(method == "BSEG"))
        try:
            for (source, target), expected in reference.items():
                result = service.shortest_path(source, target, graph="g",
                                               method=method,
                                               sql_style=sql_style,
                                               use_cache=False)
                assert (result.distance, tuple(result.path)) == expected
        finally:
            service.close()

    @_parametrized
    @pytest.mark.parametrize("kind,max_hops", [("bounded_hop", 3),
                                               ("reachability", None)])
    def test_query_kinds_bit_identical(self, conformance_backend, kind,
                                       max_hops):
        backend, make_path = conformance_backend
        reference = _reference_answers(kind=kind, max_hops=max_hops)
        service = _service_for(backend, make_path)
        try:
            for (source, target), expected in reference.items():
                result = service.shortest_path(source, target, graph="g",
                                               method="DJ", kind=kind,
                                               max_hops=max_hops,
                                               use_cache=False)
                assert (result.distance, tuple(result.path)) == expected
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["minidb", "sqlite"])
    def test_exact_counts_match_golden(self, backend):
        """Statements, affected rows, expansions, visited nodes and the
        timed phase/operator keys of every query are pinned exactly."""
        golden = json.loads(EXACT_COUNTS_PATH.read_text())[backend]
        observed = _exact_counts(backend)
        assert observed.keys() == golden.keys()
        mismatched = {key: (golden[key], observed[key]) for key in golden
                      if observed[key] != golden[key]}
        assert not mismatched, mismatched


class TestPooling:
    @_parametrized
    def test_parallel_batch_through_pool(self, conformance_backend):
        backend, make_path = conformance_backend
        reference = _reference_answers()
        service = _service_for(backend, make_path, concurrency=3)
        try:
            batch = service.shortest_path_many(
                [{"source": s, "target": t} for s, t in QUERY_PAIRS],
                graph="g", method="DJ", concurrency=3)
            for (source, target), result in zip(QUERY_PAIRS, batch.results):
                assert result is not None
                expected = reference[(source, target)]
                assert (result.distance, tuple(result.path)) == expected
            stats = service.pool_stats("g")
            store = service._host("g").store
            if not type(store).supports_concurrent_readers:
                assert stats.capacity == 1
            else:
                assert stats.capacity >= 1
                limit = store.max_connections()
                if limit is not None:
                    assert stats.capacity <= limit
        finally:
            service.close()

    @_parametrized
    def test_pool_capacity_clamped_to_max_connections(self,
                                                      conformance_backend):
        backend, make_path = conformance_backend
        service = PathService(default_backend=backend)
        try:
            service.add_graph("g", conformance_graph(), backend=backend,
                              db_path=make_path(), concurrency=64,
                              persist=False)
            stats = service.pool_stats("g")
            store = service._host("g").store
            limit = store.max_connections()
            if not type(store).supports_concurrent_readers:
                assert stats.capacity == 1
            elif limit is not None:
                assert stats.capacity <= limit
            else:
                assert stats.capacity == 64
        finally:
            service.close()


class TestPersistence:
    @_parametrized
    def test_fingerprint_stable_and_matches_graph(self, conformance_backend,
                                                  make_store):
        graph = conformance_graph()
        store = make_store()
        store.load_graph(graph)
        if not store.supports_persistence():
            pytest.skip("backend instance does not persist graph data")
        expected = fingerprint_graph(graph)
        assert store.content_fingerprint() == expected
        # A second store loaded with the same content agrees.
        twin = make_store()
        twin.load_graph(conformance_graph())
        assert twin.content_fingerprint() == expected

    @_parametrized
    def test_export_graph_round_trip(self, conformance_backend, make_store):
        graph = conformance_graph()
        store = make_store()
        store.load_graph(graph)
        if not store.supports_persistence():
            pytest.skip("backend instance does not persist graph data")
        exported = store.export_graph()
        assert fingerprint_graph(exported) == fingerprint_graph(graph)

    @_parametrized
    def test_dsn_adoption_warm_start(self, conformance_backend, tmp_path):
        """Populate a database, reopen it with ``PathService.open`` and no
        catalog: the SegTable is adopted, never rebuilt, and answers
        still match."""
        backend, make_path = conformance_backend
        # Embedded SQLite's durable address is a database file.
        path = (str(tmp_path / "adopt.db") if backend == "sqlite"
                else make_path())
        if path is None:
            pytest.skip("backend has no durable database to adopt")
        reference = _reference_answers()

        writer = PathService(default_backend=backend)
        writer.add_graph("default", conformance_graph(), backend=backend,
                         db_path=path, persist=False)
        writer.build_segtable("default", lthd=3.0)
        assert writer.segtable_builds == 1
        writer.close()

        service = PathService.open(backend=backend, dsn=path)
        try:
            assert service.segtable_builds == 0
            for (source, target), expected in reference.items():
                result = service.shortest_path(source, target, method="BSEG",
                                               use_cache=False)
                assert (result.distance, tuple(result.path)) == expected
            assert service.segtable_builds == 0
        finally:
            service.close()
        # Drop the (namespaced) tables behind this test.
        cleanup = create_store(backend, path=path)
        cleanup.destroy()


class TestOneSQLText:
    def test_sqlite_and_dbapi_issue_identical_statements(self, fresh_dsn):
        """``sqlite`` and ``dbapi`` are one store over two drivers: the
        same queries memoize the same statement texts (table prefix
        aside) and log the same statement counts.  A second, parallel
        SQL text cannot reappear without failing here."""
        observed = {}
        for backend, path in (("sqlite", None), ("dbapi", fresh_dsn())):
            prefix = ParsedDSN(path).table_prefix if path else ""
            service = _service_for(backend, lambda: path, with_segtable=True)
            try:
                counts = [
                    service.shortest_path(1, 6, graph="g", method=method,
                                          use_cache=False).stats.statements
                    for method in ("BSDJ", "BSEG")]
                memo = service._host("g").store._sql_cache
                texts = {key: repr(text).replace(prefix, "")
                         for key, text in memo.items()}
                observed[backend] = (counts, texts)
            finally:
                service.close()
        assert observed["sqlite"][1]  # the memo was actually exercised
        assert observed["sqlite"] == observed["dbapi"]


class TestSelectedBackend:
    def test_env_selected_backend_answers_queries(self, test_backend):
        """The ``REPRO_TEST_BACKEND`` matrix axis: whichever backend the
        environment selects must pass a service-level smoke check."""
        reference = _reference_answers()
        service = PathService(default_backend=test_backend.name)
        try:
            service.add_graph("g", conformance_graph(),
                              backend=test_backend.name,
                              db_path=test_backend.make_path(),
                              persist=False)
            for (source, target), expected in reference.items():
                result = service.shortest_path(source, target, graph="g",
                                               use_cache=False)
                assert (result.distance, tuple(result.path)) == expected
        finally:
            service.close()
