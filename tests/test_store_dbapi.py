"""Unit tests for the client-server DB-API backend.

Covers the parts the backend-generic conformance suite cannot see from
the outside: DSN parsing, the stdlib wire protocol (hello, admission
control, the CLI entry point), typed error mapping, connection-cap
arithmetic, clone privacy of the server-side ``TEMP`` table, durable
SegTable metadata, database relocation into a plain SQLite file, and
SQLite's plan for every statement that joins an edge or segment relation
or merges tsql candidates.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.bidirectional import (
    bidirectional_dijkstra,
    bidirectional_set_dijkstra,
)
from repro.core.bseg import bidirectional_segtable_search
from repro.core.dijkstra import dijkstra_single_direction
from repro.core.multi import METHOD_HOPS, METHOD_REACH, hop_limited_search
from repro.core.segtable import build_segtable
from repro.core.sqlstyle import NSQL, TSQL
from repro.core.stats import QueryStats
from repro.core.store.registry import create_store
from repro.errors import (
    BackendConnectionError,
    BackendOperationalError,
    InvalidDSNError,
    ShardUnavailableError,
    StoreBackendError,
)
from repro.graph.fingerprint import fingerprint_graph
from repro.graph.generators import power_law_graph
from repro.graph.model import Graph
from repro.store import fallback_server
from repro.store.dbapi import DBAPIGraphStore, ParsedDSN, driver_for


def small_graph() -> Graph:
    graph = Graph()
    graph.add_edge(1, 2, 4.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(3, 2, 1.0)
    graph.add_edge(2, 4, 2.0)
    graph.add_edge(3, 4, 6.0)
    return graph


class TestParsedDSN:
    def test_defaults(self):
        parsed = ParsedDSN("fallback://127.0.0.1:5433/")
        assert parsed.scheme == "fallback"
        assert parsed.host == "127.0.0.1"
        assert parsed.port == 5433
        assert parsed.table_prefix == "repro_"
        assert parsed.pool_size is None
        assert parsed.connection_limit() is None

    def test_repro_params_are_stripped_from_driver_dsn(self):
        parsed = ParsedDSN("postgresql://u@h:5/db"
                           "?table_prefix=x_&pool_size=4&max_overflow=2"
                           "&sslmode=require")
        assert parsed.table_prefix == "x_"
        assert parsed.connection_limit() == 6
        assert "table_prefix" not in parsed.driver_dsn
        assert "pool_size" not in parsed.driver_dsn
        assert "sslmode=require" in parsed.driver_dsn

    @pytest.mark.parametrize("dsn", [
        "not-a-dsn",
        "",
        "fallback://h:1/?table_prefix=1bad",
        "fallback://h:1/?table_prefix=x%3B--",
        "fallback://h:1/?pool_size=many",
        "fallback://h:1/?pool_size=0",
        "fallback://h:1/?max_overflow=x",
    ])
    def test_invalid_dsns_raise(self, dsn):
        with pytest.raises(InvalidDSNError):
            ParsedDSN(dsn)

    def test_unknown_scheme_has_no_driver(self):
        with pytest.raises(InvalidDSNError, match="no driver"):
            driver_for(ParsedDSN("weird://h:1/"))

    def test_dbapi_backend_requires_a_dsn(self):
        with pytest.raises(InvalidDSNError):
            create_store("dbapi", path=None)


class TestWireProtocol:
    def test_hello_advertises_connection_cap(self, fallback_dsn):
        parsed = ParsedDSN(fallback_dsn)
        connection = fallback_server.connect(parsed.host, parsed.port)
        try:
            assert connection.server_max_connections == 16
            cursor = connection.execute("SELECT 1 + 1")
            assert cursor.fetchall() == [(2,)]
        finally:
            connection.close()

    def test_admission_control_refuses_excess_connections(self):
        with fallback_server.serve_in_thread(max_connections=1) as handle:
            parsed = ParsedDSN(handle.dsn)
            first = fallback_server.connect(parsed.host, parsed.port)
            try:
                with pytest.raises(fallback_server.OperationalError,
                                   match="too many connections"):
                    fallback_server.connect(parsed.host, parsed.port)
            finally:
                first.close()

    def test_rowcount_reports_changed_rows(self, fallback_dsn):
        parsed = ParsedDSN(fallback_dsn)
        connection = fallback_server.connect(parsed.host, parsed.port)
        try:
            connection.execute("CREATE TEMP TABLE t (x INTEGER)")
            cursor = connection.executemany("INSERT INTO t VALUES (?)",
                                            [(1,), (2,), (3,)])
            assert cursor.rowcount == 3
            cursor = connection.execute("UPDATE t SET x = 0 WHERE x > 1")
            assert cursor.rowcount == 2
        finally:
            connection.close()

    def test_statement_errors_are_programming_errors(self, fallback_dsn):
        parsed = ParsedDSN(fallback_dsn)
        connection = fallback_server.connect(parsed.host, parsed.port)
        try:
            with pytest.raises(fallback_server.ProgrammingError,
                               match="no_such_table"):
                connection.execute("SELECT * FROM no_such_table_xyz")
        finally:
            connection.close()

    def test_cli_serves_a_database(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.store.fallback_server",
             "--db", str(tmp_path / "cli.db"), "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"fallback://([\d.]+):(\d+)/", banner)
            assert match, f"unexpected banner: {banner!r}"
            connection = fallback_server.connect(match.group(1),
                                                 int(match.group(2)))
            try:
                assert connection.execute("SELECT 41 + 1").fetchone() == (42,)
            finally:
                connection.close()
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestErrorMapping:
    def test_unreachable_server_is_a_connection_error(self):
        with pytest.raises(BackendConnectionError):
            create_store("dbapi", path="fallback://127.0.0.1:1/")

    def test_lost_server_maps_to_connection_error(self):
        handle = fallback_server.serve_in_thread()
        store = create_store("dbapi", path=f"{handle.dsn}?table_prefix=lost_")
        store.load_graph(small_graph())
        handle.close()
        with pytest.raises(BackendConnectionError):
            store.visited_count()

    def test_bad_statement_maps_to_operational_error(self, fresh_dsn):
        store = create_store("dbapi", path=fresh_dsn())
        try:
            with pytest.raises(BackendOperationalError):
                store._execute("SELECT * FROM definitely_missing_table")
        finally:
            store.destroy()

    def test_connection_error_triggers_failover_handling(self):
        # The router/shard retry paths key off ShardUnavailableError; a
        # dead backend server must look exactly like a dead shard.
        assert issubclass(BackendConnectionError, ShardUnavailableError)
        assert issubclass(BackendConnectionError, StoreBackendError)
        assert issubclass(BackendOperationalError, StoreBackendError)


class TestConnectionCaps:
    def test_server_limit_applies_without_pool_params(self, fresh_dsn):
        store = create_store("dbapi", path=fresh_dsn())
        try:
            assert store.max_connections() == 16
        finally:
            store.destroy()

    def test_dsn_pool_params_tighten_the_cap(self, fallback_dsn):
        dsn = f"{fallback_dsn}?table_prefix=cap_&pool_size=2&max_overflow=1"
        store = create_store("dbapi", path=dsn)
        try:
            assert store.max_connections() == 3
        finally:
            store.destroy()


class TestStoreBehavior:
    def test_clone_has_private_visited_table(self, fresh_dsn):
        store = create_store("dbapi", path=fresh_dsn())
        try:
            store.load_graph(small_graph())
            store.begin_query(QueryStats(), "nsql")
            store.reset_visited()
            store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
            clone = store.clone()
            try:
                clone.begin_query(QueryStats(), "nsql")
                clone.reset_visited()
                # The server-side TEMP TVisited is connection-private:
                # the clone starts empty and its writes stay invisible
                # to the primary.
                assert clone.visited_count() == 0
                clone.insert_visited([{"nid": 2, "d2s": 1.0, "p2s": 2,
                                       "f": 0}])
                assert store.visited_count() == 1
                # Shared graph tables are visible to both handles.
                assert clone.iterate is not None
                assert clone.content_fingerprint() == \
                    store.content_fingerprint()
            finally:
                clone.close()
        finally:
            store.destroy()

    @pytest.mark.parametrize("backend", ["dbapi", "sqlite"])
    def test_segtable_lthd_survives_in_meta_table(self, backend, fresh_dsn,
                                                  tmp_path):
        dsn = fresh_dsn() if backend == "dbapi" else str(tmp_path / "meta.db")
        store = create_store(backend, path=dsn)
        store.load_graph(small_graph())
        build_segtable(store, 3.0)
        store.close()

        reopened = create_store(backend, path=dsn)
        try:
            assert reopened.has_persistent_tables()
            assert reopened.has_persistent_segtable()
            assert reopened.persistent_segtable_lthd() == 3.0
            reopened.adopt_segtable(3.0)
            assert reopened.has_segtable
            assert reopened.segtable_lthd == 3.0
            counts = reopened.segment_counts()
            assert counts["out"] >= 1 and counts["in"] >= 1
        finally:
            reopened.destroy()

    def test_destroy_drops_namespaced_tables(self, fresh_dsn):
        dsn = fresh_dsn()
        store = create_store("dbapi", path=dsn)
        store.load_graph(small_graph())
        store.destroy()
        fresh = create_store("dbapi", path=dsn)
        try:
            assert not fresh.has_persistent_tables()
        finally:
            fresh.destroy()

    def test_export_database_relocates_to_sqlite(self, fresh_dsn, tmp_path):
        graph = small_graph()
        store = create_store("dbapi", path=fresh_dsn())
        try:
            store.load_graph(graph)
            build_segtable(store, 3.0)
            assert store.supports_relocation()
            dest = str(tmp_path / "relocated.db")
            store.export_database(dest)
        finally:
            store.destroy()

        local = create_store("sqlite", path=dest)
        try:
            assert local.has_persistent_tables()
            assert local.content_fingerprint() == fingerprint_graph(graph)
            assert local.has_persistent_segtable()
        finally:
            local.close()

    def test_store_is_a_registered_dbapi_store(self, fresh_dsn):
        store = create_store("dbapi", path=fresh_dsn())
        try:
            assert isinstance(store, DBAPIGraphStore)
            assert store.backend_name == "dbapi"
            assert type(store).supports_concurrent_readers
        finally:
            store.destroy()


class TestExpansionPlans:
    """E is index-driven (Sec 3-4 of the paper): every statement joining
    the frontier to ``tedges`` / ``toutsegs`` / ``tinsegs`` probes the
    relation by the frontier's node ids instead of scanning it.

    Each statement is planned as it is executed, with its real
    parameters: the full statements (the window function's ``PARTITION
    BY``, the tsql ``agg`` join) are what lure SQLite into driving the
    join from ``e``, while the bare candidate ``SELECT`` plans fine alone.
    """

    RELATIONS = re.compile(r"\b(tedges|toutsegs|tinsegs)\b")

    def test_no_statement_scans_an_edge_or_segment_relation(
            self, monkeypatch):
        planned = []
        execute = DBAPIGraphStore._execute

        def explain_then_execute(store, sql, parameters=()):
            if self.RELATIONS.search(sql):
                plan = store.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, tuple(parameters))
                planned.append((sql, [row[3] for row in plan.fetchall()]))
            return execute(store, sql, parameters)

        monkeypatch.setattr(DBAPIGraphStore, "_execute", explain_then_execute)
        store = create_store("sqlite")
        try:
            store.load_graph(power_law_graph(300, edges_per_node=2, seed=7))
            build_segtable(store, 8.0)
            for style in (NSQL, TSQL):
                for search in (dijkstra_single_direction,
                               bidirectional_dijkstra,
                               bidirectional_set_dijkstra):
                    search(store, 0, 200, sql_style=style)
                bidirectional_segtable_search(store, 0, 200, sql_style=style,
                                              lthd=8.0)
                hop_limited_search(store, 0, 200, sql_style=style,
                                   max_hops=5, method=METHOD_HOPS)
                hop_limited_search(store, 0, 200, sql_style=style,
                                   method=METHOD_REACH)
        finally:
            store.close()

        named = {name for sql, _ in planned
                 for name in self.RELATIONS.findall(sql)}
        assert named == {"tedges", "toutsegs", "tinsegs"}
        scans = {" ".join(sql.split()): step
                 for sql, steps in planned for step in steps
                 if re.match(r"SCAN e\b", step)}
        assert not scans, f"{len(scans)} statement shape(s) scan e: {scans}"


class TestConstructionPlans:
    """SegTable construction reaches its working segments through indexes:
    the min probe and the frontier selection through the index on the
    unexpanded rows, the merge through the pair key.  Only ``seg_finish``,
    which copies every working segment out, may scan them.

    Every statement naming the working relation is planned as it runs,
    with its real parameters; a scan through an alias of the relation
    counts as a scan of it.
    """

    WORK = re.compile(r"\b\w*segs?work\b")
    NOT_ALIASES = {"WHERE", "SET", "GROUP", "ORDER", "JOIN", "CROSS", "ON",
                   "LIMIT", "UNION", "AS"}

    def aliases(self, sql):
        names = set(self.WORK.findall(sql))
        for name in list(names):
            for alias in re.findall(rf"\b{name}\s+(?:AS\s+)?([A-Za-z_]\w*)",
                                    sql):
                if alias.upper() not in self.NOT_ALIASES:
                    names.add(alias)
        return names

    def test_no_construction_statement_scans_the_working_segments(
            self, monkeypatch):
        planned = []
        method = []
        run = DBAPIGraphStore._run

        def explain_then_run(store, sql, parameters=(), many=False):
            if not many and self.WORK.search(sql):
                plan = store.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, tuple(parameters))
                planned.append((method[-1] if method else None, sql,
                                [row[3] for row in plan.fetchall()]))
            return run(store, sql, parameters, many)

        monkeypatch.setattr(DBAPIGraphStore, "_run", explain_then_run)
        for name in [name for name in vars(DBAPIGraphStore)
                     if name.startswith("seg_")]:
            def traced(store, *args, __name=name,
                       __original=getattr(DBAPIGraphStore, name), **kwargs):
                method.append(__name)
                try:
                    return __original(store, *args, **kwargs)
                finally:
                    method.pop()
            monkeypatch.setattr(DBAPIGraphStore, name, traced)

        store = create_store("sqlite")
        try:
            store.load_graph(power_law_graph(300, edges_per_node=2, seed=7))
            for style in (NSQL, TSQL):
                build_segtable(store, 8.0, sql_style=style)
        finally:
            store.close()

        reading = {name for name, _, steps in planned if steps}
        assert {"seg_init", "seg_round"} <= reading
        scans = {" ".join(sql.split()): step
                 for name, sql, steps in planned if name != "seg_finish"
                 for step in steps
                 if re.match(r"SCAN (\w+)", step)
                 and step.split()[1] in self.aliases(sql)}
        assert not scans, (f"{len(scans)} construction statement shape(s) "
                           f"scan the working segments: {scans}")


class TestMergePlans:
    """The tsql M statements merge candidates by key: the UPDATE and
    INSERT that fold ``tmp_expanded`` into ``tvisited`` (and
    ``tmp_segcand`` into the working segments) are driven by the
    candidates, so neither ``tvisited`` nor a correlated subquery is
    scanned once per row.

    Every such statement is planned as it runs, with its real parameters.
    A top-level ``SCAN`` of the candidate table is the driving loop and is
    allowed; a ``SCAN`` under a correlated subquery is not.
    """

    CANDIDATES = re.compile(r"\btmp_(?:expanded|segcand)\b")

    @staticmethod
    def correlated_scans(steps):
        parents = {step_id: (parent, detail)
                   for step_id, parent, _, detail in steps}

        def correlated(parent):
            while parent in parents:
                parent, detail = parents[parent]
                if detail.startswith("CORRELATED"):
                    return True
            return False

        return [detail for _, parent, _, detail in steps
                if detail.startswith("SCAN") and correlated(parent)]

    def test_no_tsql_merge_statement_scans_per_row(self, monkeypatch):
        planned = []
        run = DBAPIGraphStore._run

        def explain_then_run(store, sql, parameters=(), many=False):
            if (not many and self.CANDIDATES.search(sql)
                    and re.match(r"\s*(UPDATE|INSERT)\b", sql)):
                plan = store.connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, tuple(parameters))
                planned.append((sql, plan.fetchall()))
            return run(store, sql, parameters, many)

        monkeypatch.setattr(DBAPIGraphStore, "_run", explain_then_run)
        store = create_store("sqlite")
        try:
            store.load_graph(power_law_graph(300, edges_per_node=2, seed=7))
            build_segtable(store, 8.0, sql_style=TSQL)
            for search in (dijkstra_single_direction, bidirectional_dijkstra,
                           bidirectional_set_dijkstra):
                search(store, 0, 200, sql_style=TSQL)
            bidirectional_segtable_search(store, 0, 200, sql_style=TSQL,
                                          lthd=8.0)
        finally:
            store.close()

        updated = {re.match(r"\s*UPDATE (\w+)", sql).group(1)
                   for sql, _ in planned if sql.lstrip().startswith("UPDATE")}
        assert updated == {"tvisited", "tsegwork"}
        visited_scans = {" ".join(sql.split()): detail
                         for sql, steps in planned
                         for _, _, _, detail in steps
                         if re.match(r"SCAN (tvisited|v)\b", detail)}
        assert not visited_scans, (
            f"{len(visited_scans)} tsql M statement shape(s) scan "
            f"tvisited: {visited_scans}")
        correlated = {" ".join(sql.split()): self.correlated_scans(steps)
                      for sql, steps in planned
                      if self.correlated_scans(steps)}
        assert not correlated, (
            f"{len(correlated)} tsql M statement shape(s) scan inside a "
            f"correlated subquery: {correlated}")
