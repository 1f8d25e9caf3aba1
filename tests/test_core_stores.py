"""Unit tests for the graph stores (minidb and SQLite backends).

These exercise the store contract in isolation: loading, one FEM
iteration (``iterate``) in node, set and SegTable modes with each probe,
path recovery (``recover``), a SegTable construction round
(``seg_round``) and the SegTable tables.
"""

import pytest

from conftest import visited_rows
from repro.core.directions import BACKWARD_DIRECTION, FORWARD_DIRECTION, INFINITY
from repro.core.stats import QueryStats
from repro.core.store.base import (
    MODE_NODE,
    MODE_SET,
    PROBE_FINALIZED,
    PROBE_MEET,
    IndexMode,
    IterationRule,
)
from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore
from repro.errors import InvalidQueryError
from repro.graph.model import Graph


def small_graph() -> Graph:
    graph = Graph()
    graph.add_edge(1, 2, 4.0)
    graph.add_edge(1, 3, 1.0)
    graph.add_edge(3, 2, 1.0)
    graph.add_edge(2, 4, 2.0)
    graph.add_edge(3, 4, 6.0)
    return graph


def make_store(backend: str):
    store = MiniDBGraphStore(buffer_capacity=32) if backend == "minidb" else SQLiteGraphStore()
    store.load_graph(small_graph())
    store.begin_query(QueryStats(), "nsql")
    return store


def rows_by_nid(store):
    return {row["nid"]: row for row in visited_rows(store)}


NODE = IterationRule(mode=MODE_NODE, probe=PROBE_MEET)
SET = IterationRule(mode=MODE_SET, probe=PROBE_MEET)

BACKENDS = ["minidb", "sqlite"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreBasics:
    def test_initial_visited_empty(self, backend):
        store = make_store(backend)
        store.reset_visited()
        assert store.visited_count() == 0
        store.close()

    def test_insert_visited_defaults(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        rows = visited_rows(store)
        assert len(rows) == 1
        assert rows[0]["nid"] == 1
        assert rows[0]["d2s"] == 0.0
        assert rows[0]["d2t"] == INFINITY or rows[0]["d2t"] > 1e17
        store.close()

    def test_top1_and_min_distance(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 1, "d2s": 5.0, "f": 0},
                {"nid": 2, "d2s": 2.0, "f": 0},
                {"nid": 3, "d2s": 1.0, "f": 1},
            ]
        )
        step = store.iterate(FORWARD_DIRECTION, NODE)
        rows = rows_by_nid(store)
        # TOP 1 picks node 2, the least unfinalized distance, and
        # finalizes it after expanding it to node 4.
        assert step.selected == 1
        assert (rows[1]["f"], rows[2]["f"]) == (0, 1)
        assert (rows[4]["d2s"], rows[4]["p2s"]) == (4.0, 2)
        # The probe's least unfinalized distance: node 4 before node 1.
        assert step.latest == 4.0
        store.close()

    def test_no_candidates_returns_none(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 5.0, "f": 1}])
        for rule in (NODE, SET):
            step = store.iterate(FORWARD_DIRECTION, rule)
            assert step.selected == 0
            assert step.latest is None
        store.close()

    def test_finalize_node_and_is_finalized(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        rule = IterationRule(mode=MODE_NODE, probe=PROBE_FINALIZED, target=3)
        # Node 1 is finalized; node 3 is reached but not yet finalized.
        assert not store.iterate(FORWARD_DIRECTION, rule).done
        assert rows_by_nid(store)[1]["f"] == 1
        # Node 3 is the next TOP 1.
        assert store.iterate(FORWARD_DIRECTION, rule).done
        store.close()

    def test_min_total_cost_and_meeting_node(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 1, "d2s": 0.0, "p2s": 1, "d2t": 7.0, "p2t": 2},
                {"nid": 2, "d2s": 3.0, "p2s": 1, "d2t": 2.0, "p2t": 4},
                {"nid": 4, "d2t": 0.0, "p2t": 4},
            ]
        )
        # minCost 5 meets at node 2: p2s back to 1, p2t on to 4.
        assert store.recover(1, 4, PROBE_MEET) == (5.0, [1, 2, 4])
        store.close()

    def test_min_total_cost_without_meeting(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        assert store.iterate(FORWARD_DIRECTION, NODE).min_cost == INFINITY
        assert store.recover(1, 4, PROBE_MEET) is None
        store.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql_style", ["nsql", "tsql"])
class TestStoreExpansion:
    def test_forward_expand_single_node(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        step = store.iterate(FORWARD_DIRECTION, NODE)
        assert step.affected == 2  # nodes 2 and 3 discovered
        rows = rows_by_nid(store)
        assert rows[2]["d2s"] == 4.0
        assert rows[3]["d2s"] == 1.0
        store.close()

    def test_expand_improves_existing_distance(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited(
            [
                {"nid": 3, "d2s": 1.0, "p2s": 1, "f": 0},
                {"nid": 2, "d2s": 4.0, "p2s": 1, "f": 0},
            ]
        )
        # TOP 1 is node 3, whose edge improves node 2.
        step = store.iterate(FORWARD_DIRECTION, NODE)
        assert step.affected >= 1
        rows = rows_by_nid(store)
        assert rows[2]["d2s"] == 2.0
        assert rows[2]["p2s"] == 3
        store.close()

    def test_set_expansion_with_flags(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        step = store.iterate(FORWARD_DIRECTION, SET)
        assert step.selected == 1
        assert step.affected == 2
        flags = {nid: row["f"] for nid, row in rows_by_nid(store).items()}
        assert flags == {1: 1, 2: 0, 3: 0}  # the frontier was finalized
        store.close()

    def test_backward_expansion_uses_incoming_edges(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 4, "d2t": 0.0, "p2t": 4, "b": 0}])
        step = store.iterate(BACKWARD_DIRECTION, NODE)
        assert step.affected == 2  # nodes 2 and 3 reach node 4
        rows = rows_by_nid(store)
        assert rows[2]["d2t"] == 2.0
        assert rows[2]["p2t"] == 4
        assert rows[3]["d2t"] == 6.0
        store.close()

    def test_pruning_skips_expensive_candidates(self, backend, sql_style):
        store = make_store(backend)
        store.begin_query(QueryStats(), sql_style)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        # With minCost = 2 and lb = 0 only candidates of cost <= 2 survive.
        rule = IterationRule(mode=MODE_NODE, probe=PROBE_MEET, prune_lb=0.0,
                             prune_min_cost=2.0)
        step = store.iterate(FORWARD_DIRECTION, rule)
        assert step.affected == 1
        assert set(rows_by_nid(store)) == {1, 3}
        store.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreSegTable:
    def test_segtable_expand_requires_load(self, backend):
        store = make_store(backend)
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        rule = IterationRule(mode=MODE_NODE, probe=PROBE_MEET,
                             use_segtable=True)
        with pytest.raises(InvalidQueryError):
            store.iterate(FORWARD_DIRECTION, rule)
        store.close()

    def test_load_segtable_and_counts(self, backend):
        store = make_store(backend)
        out_segments = [{"fid": 1, "tid": 2, "pid": 3, "cost": 2.0}]
        in_segments = [{"fid": 2, "tid": 1, "pid": 3, "cost": 2.0}]
        store.load_segtable(out_segments, in_segments, lthd=3.0)
        assert store.segment_counts() == {"out": 1, "in": 1}
        assert store.has_segtable
        assert store.segtable_lthd == 3.0
        store.close()

    def test_expand_over_segments_uses_pid_as_predecessor(self, backend):
        store = make_store(backend)
        store.load_segtable(
            [{"fid": 1, "tid": 4, "pid": 2, "cost": 6.0}],
            [{"fid": 4, "tid": 1, "pid": 2, "cost": 6.0}],
            lthd=6.0,
        )
        store.begin_query(QueryStats(), "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        store.iterate(FORWARD_DIRECTION,
                      IterationRule(mode=MODE_NODE, probe=PROBE_MEET,
                                    use_segtable=True))
        rows = rows_by_nid(store)
        assert rows[4]["d2s"] == 6.0
        assert rows[4]["p2s"] == 2
        store.close()

    def test_seg_round_returns_next_minimum(self, backend):
        store = make_store(backend)
        assert store.seg_init() == 1.0
        # Round one extends 1->3 and 3->2; the cheapest unexpanded
        # segments left cost 2 (1->3->2 and 2->4).
        assert store.seg_round(1.0, 3.0) == 2.0
        store.close()

    def test_statement_counting(self, backend):
        store = make_store(backend)
        stats = QueryStats()
        store.begin_query(stats, "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "f": 0}])
        store.iterate(FORWARD_DIRECTION, NODE)
        # INSERT, then TOP 1, E+M, finalize and the two probes.
        assert stats.statements == 6
        store.close()


class TestIndexModes:
    @pytest.mark.parametrize("mode", [IndexMode.CLUSTERED, IndexMode.NONCLUSTERED,
                                      IndexMode.NONE])
    def test_minidb_all_index_modes_answer_lookups(self, mode):
        store = MiniDBGraphStore(buffer_capacity=32)
        store.load_graph(small_graph(), index_mode=mode)
        store.begin_query(QueryStats(), "nsql")
        store.reset_visited()
        store.insert_visited([{"nid": 1, "d2s": 0.0, "p2s": 1, "f": 0}])
        assert store.iterate(FORWARD_DIRECTION, NODE).affected == 2
        store.close()

    def test_invalid_index_mode(self):
        store = MiniDBGraphStore()
        with pytest.raises(ValueError):
            store.load_graph(small_graph(), index_mode="bitmap")
        store.close()
