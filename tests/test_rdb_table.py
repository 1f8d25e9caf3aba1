"""Tests for the Table abstraction (heap + indexes)."""

import pytest

from repro.errors import CatalogError, ConstraintViolationError
from repro.rdb.engine import Database
from repro.rdb.schema import Column
from repro.rdb.types import FLOAT, INTEGER, TEXT


@pytest.fixture
def database():
    db = Database(buffer_capacity=16)
    yield db
    db.close()


@pytest.fixture
def edges(database):
    table = database.create_table(
        "TEdges",
        [Column("fid", INTEGER), Column("tid", INTEGER), Column("cost", FLOAT)],
    )
    table.insert_many(
        [
            {"fid": 1, "tid": 2, "cost": 4.0},
            {"fid": 1, "tid": 3, "cost": 2.0},
            {"fid": 2, "tid": 3, "cost": 1.0},
            {"fid": 3, "tid": 4, "cost": 5.0},
        ]
    )
    return table


class TestTableBasics:
    def test_insert_and_scan(self, edges):
        assert edges.row_count == 4
        rows = list(edges.scan())
        assert {row["fid"] for row in rows} == {1, 2, 3}

    def test_read_by_rid(self, edges):
        rid, row = edges.lookup_with_rids("fid", 2)[0]
        assert edges.read(rid) == row

    def test_lookup_without_index_scans(self, edges):
        rows = edges.lookup("fid", 1)
        assert len(rows) == 2

    def test_lookup_with_index(self, edges):
        edges.create_index("fid")
        rows = edges.lookup("fid", 1)
        assert {row["tid"] for row in rows} == {2, 3}

    def test_update_where(self, edges):
        updated = edges.update_where(
            lambda row: row["fid"] == 1,
            lambda row: {"cost": row["cost"] + 10},
        )
        assert updated == 2
        assert {row["cost"] for row in edges.lookup("fid", 1)} == {12.0, 14.0}

    def test_update_keeps_indexes_consistent(self, edges):
        edges.create_index("tid")
        edges.update_where(lambda row: row["tid"] == 3, lambda row: {"tid": 9})
        assert edges.lookup("tid", 3) == []
        assert len(edges.lookup("tid", 9)) == 2

    def test_truncate(self, edges):
        edges.create_index("fid")
        edges.truncate()
        assert edges.row_count == 0
        assert edges.lookup("fid", 1) == []
        edges.insert({"fid": 9, "tid": 9, "cost": 1.0})
        assert edges.row_count == 1


class TestIndexManagement:
    def test_unique_index_enforced(self, database):
        table = database.create_table("T", [Column("nid", INTEGER)])
        table.create_index("nid", unique=True)
        table.insert({"nid": 1})
        with pytest.raises(ConstraintViolationError):
            table.insert({"nid": 1})
        # The failed insert must not leave a phantom row behind.
        assert table.row_count == 1

    @pytest.mark.parametrize("write", ["insert", "update"])
    def test_rejected_write_leaves_table_unchanged(self, database, write):
        """A write refused by the second unique index must change neither
        the heap nor the first index."""
        table = database.create_table("T", [Column("a", INTEGER), Column("b", INTEGER)])
        table.create_index("a", unique=True)
        table.create_index("b", unique=True)
        table.insert({"a": 1, "b": 1})
        table.insert({"a": 2, "b": 2})
        with pytest.raises(ConstraintViolationError):
            if write == "insert":
                table.insert({"a": 3, "b": 1})
            else:
                table.update_where(lambda row: row["a"] == 1,
                                   lambda row: {"a": 3, "b": 2})
        assert sorted((row["a"], row["b"]) for row in table.scan()) == [(1, 1), (2, 2)]
        assert table.lookup("a", 3) == []
        assert table.lookup("a", 1) == [{"a": 1, "b": 1}]
        # The slot a rolled-back insert would free is reused without ghosts.
        table.insert({"a": 4, "b": 4})
        assert table.lookup("a", 3) == []
        table.insert({"a": 3, "b": 3})
        assert table.lookup("a", 3) == [{"a": 3, "b": 3}]

    def test_duplicate_index_name(self, edges):
        edges.create_index("fid")
        with pytest.raises(CatalogError):
            edges.create_index("fid")

    def test_index_created_over_existing_rows(self, edges):
        info = edges.create_index("tid")
        assert len(info.structure) == edges.row_count

    def test_clustered_preference(self, edges):
        edges.create_index("fid", name="plain")
        clustered = edges.create_index("fid", clustered=True, name="clu")
        assert edges.index_on("fid").name == clustered.name

    def test_bulk_load_sorted_clusters_keys(self, database):
        table = database.create_table(
            "Sorted", [Column("k", INTEGER), Column("v", TEXT)]
        )
        rows = [{"k": key, "v": f"v{key}"} for key in (5, 1, 4, 2, 3, 1, 5)]
        table.bulk_load(rows, order_by="k")
        scanned = [row["k"] for row in table.scan()]
        assert scanned == sorted(scanned)


class TestPrimaryKey:
    def test_primary_key_without_index(self, database):
        table = database.create_table(
            "PK", [Column("nid", INTEGER), Column("x", INTEGER)], primary_key="nid"
        )
        table.insert({"nid": 1, "x": 1})
        with pytest.raises(ConstraintViolationError):
            table.insert({"nid": 1, "x": 2})
