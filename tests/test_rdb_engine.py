"""Tests for the Database facade."""

import os

import pytest

from repro.errors import CatalogError
from repro.rdb.engine import Database
from repro.rdb.schema import Column
from repro.rdb.types import FLOAT, INTEGER


class TestDatabase:
    def test_create_and_lookup_table(self):
        with Database(buffer_capacity=8) as db:
            db.create_table("T", [Column("a", INTEGER)])
            assert db.has_table("T")
            assert db.table("T").row_count == 0

    def test_duplicate_table_rejected(self):
        with Database() as db:
            db.create_table("T", [Column("a", INTEGER)])
            with pytest.raises(CatalogError):
                db.create_table("T", [Column("a", INTEGER)])

    def test_unknown_table(self):
        with Database() as db:
            with pytest.raises(CatalogError):
                db.table("missing")

    def test_drop_table(self):
        with Database() as db:
            db.create_table("T", [Column("a", INTEGER)])
            db.drop_table("T")
            assert not db.has_table("T")
            with pytest.raises(CatalogError):
                db.drop_table("T")

    def test_file_backed_database(self, tmp_path):
        path = str(tmp_path / "pages.db")
        db = Database(path=path, buffer_capacity=4)
        table = db.create_table("T", [Column("a", INTEGER), Column("b", FLOAT)])
        table.insert_many({"a": i, "b": i * 0.5} for i in range(200))
        db.close()
        assert os.path.exists(path)
        assert os.path.getsize(path) > 0

    def test_temp_database_cleans_up(self):
        db = Database(path=":temp:")
        path = db.path
        db.create_table("T", [Column("a", INTEGER)])
        db.close()
        assert not os.path.exists(path)

    def test_io_counters_increase_under_memory_pressure(self):
        with Database(buffer_capacity=2) as db:
            table = db.create_table("T", [Column("a", INTEGER), Column("b", FLOAT)])
            table.insert_many({"a": i, "b": float(i)} for i in range(500))
            before = db.io_writes
            list(table.scan())
            assert db.io_reads > 0
            assert db.io_writes >= before

    def test_reset_stats(self):
        with Database(buffer_capacity=4) as db:
            table = db.create_table("T", [Column("a", INTEGER)])
            table.insert_many({"a": i} for i in range(50))
            list(table.scan())
            db.reset_stats()
            assert db.buffer_stats.accesses == 0
            assert (db.io_reads, db.io_writes) == (0, 0)

    def test_close_idempotent(self):
        db = Database()
        db.close()
        db.close()

