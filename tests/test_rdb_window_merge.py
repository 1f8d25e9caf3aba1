"""Tests for the window function and the MERGE statement."""

import pytest

from repro.rdb.engine import Database
from repro.rdb.merge import merge_into, merge_with_update_insert
from repro.rdb.schema import Column
from repro.rdb.types import FLOAT, INTEGER
from repro.rdb.window import window_row_number


def by_cost(row):
    return row["cost"]


class TestWindowFunction:
    ROWS = [
        {"tid": 1, "cost": 5.0, "pred": 10},
        {"tid": 1, "cost": 3.0, "pred": 11},
        {"tid": 2, "cost": 7.0, "pred": 12},
        {"tid": 2, "cost": 7.0, "pred": 13},
        {"tid": 3, "cost": 1.0, "pred": 14},
    ]

    def test_row_number_partitioned(self):
        ranked = window_row_number(self.ROWS, ["tid"], [(by_cost, True)])
        winners = {row["tid"]: row["pred"] for row in ranked if row["rownum"] == 1}
        assert winners[1] == 11
        assert winners[3] == 14
        # Ties keep exactly one row per partition at rownum = 1.
        assert list(row["rownum"] for row in ranked if row["tid"] == 2) == [1, 2]

    def test_row_number_carries_non_aggregated_columns(self):
        """The point of the window function in the paper: the predecessor
        column survives without an extra join."""
        ranked = window_row_number(self.ROWS, ["tid"], [(by_cost, True)])
        assert all("pred" in row for row in ranked)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_row_number_order_is_stable(self, ascending):
        """Partitions come out in first-seen order and input order breaks
        ties, so MERGE sees the same rows in the same order every run."""
        ranked = window_row_number(self.ROWS, ["tid"], [(by_cost, ascending)])
        first = [(1, 11, 1), (1, 10, 2)] if ascending else [(1, 10, 1), (1, 11, 2)]
        assert [(row["tid"], row["pred"], row["rownum"]) for row in ranked] == (
            first + [(2, 12, 1), (2, 13, 2), (3, 14, 1)])

    def test_empty_input(self):
        assert window_row_number([], ["tid"], [(by_cost, True)]) == []


class TestMerge:
    @pytest.fixture
    def visited(self):
        db = Database(buffer_capacity=16)
        table = db.create_table(
            "TVisited",
            [Column("nid", INTEGER), Column("d2s", FLOAT), Column("p2s", INTEGER),
             Column("f", INTEGER)],
        )
        table.create_index("nid", unique=True)
        table.insert_many(
            [
                {"nid": 1, "d2s": 0.0, "p2s": 1, "f": 1},
                {"nid": 2, "d2s": 9.0, "p2s": 1, "f": 0},
            ]
        )
        yield table
        db.close()

    SOURCE = [
        {"nid": 2, "cost": 4.0, "pred": 3},   # improves node 2
        {"nid": 3, "cost": 2.0, "pred": 1},   # new node
        {"nid": 1, "cost": 5.0, "pred": 2},   # worse than existing: ignored
    ]

    def _merge(self, table, function):
        return function(
            table, self.SOURCE, key_column="nid", source_key="nid",
            matched_condition=lambda target, source: target["d2s"] > source["cost"],
            matched_update=lambda target, source: {
                "d2s": source["cost"], "p2s": source["pred"], "f": 0,
            },
            not_matched_insert=lambda source: {
                "nid": source["nid"], "d2s": source["cost"],
                "p2s": source["pred"], "f": 0,
            },
        )

    @pytest.mark.parametrize("function", [merge_into, merge_with_update_insert],
                             ids=["merge", "update_insert"])
    def test_merge_semantics(self, visited, function):
        result = self._merge(visited, function)
        assert result.updated == 1
        assert result.inserted == 1
        assert result.affected == 2
        rows = {row["nid"]: row for row in visited.scan()}
        assert rows[2]["d2s"] == 4.0 and rows[2]["p2s"] == 3 and rows[2]["f"] == 0
        assert rows[3]["d2s"] == 2.0
        assert rows[1]["d2s"] == 0.0  # untouched

    @pytest.mark.parametrize("function", [merge_into, merge_with_update_insert],
                             ids=["merge", "update_insert"])
    def test_merge_idempotent_second_run(self, visited, function):
        self._merge(visited, function)
        second = self._merge(visited, function)
        assert second.affected == 0

    def test_merge_without_insert_branch(self, visited):
        result = merge_into(
            visited, self.SOURCE, key_column="nid", source_key="nid",
            matched_update=lambda target, source: {"d2s": source["cost"]},
            matched_condition=lambda target, source: target["d2s"] > source["cost"],
            not_matched_insert=None,
        )
        assert result.inserted == 0
        assert visited.row_count == 2

    def test_merge_without_update_branch(self, visited):
        result = merge_into(
            visited, self.SOURCE, key_column="nid", source_key="nid",
            matched_update=None,
            not_matched_insert=lambda source: {
                "nid": source["nid"], "d2s": source["cost"],
                "p2s": source["pred"], "f": 0,
            },
        )
        assert result.updated == 0
        assert result.inserted == 1

    def test_merge_empty_source(self, visited):
        result = merge_into(visited, [], key_column="nid", source_key="nid")
        assert result.affected == 0
