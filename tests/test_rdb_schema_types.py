"""Tests for column types and schemas."""

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.rdb.schema import Column, TableSchema
from repro.rdb.types import FLOAT, INTEGER, TEXT, coerce_value


class TestTypes:
    def test_coerce_integer(self):
        assert coerce_value(5, INTEGER) == 5
        assert coerce_value(True, INTEGER) == 1
        assert coerce_value(5.0, INTEGER) == 5

    def test_coerce_integer_rejects_fraction(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(5.5, INTEGER)

    def test_coerce_float(self):
        assert coerce_value(5, FLOAT) == 5.0
        assert coerce_value(2.5, FLOAT) == 2.5
        with pytest.raises(TypeMismatchError):
            coerce_value("x", FLOAT)

    def test_coerce_text(self):
        assert coerce_value("abc", TEXT) == "abc"
        with pytest.raises(TypeMismatchError):
            coerce_value(5, TEXT)

    def test_null_handling(self):
        assert coerce_value(None, INTEGER) is None
        with pytest.raises(TypeMismatchError):
            coerce_value(None, INTEGER, nullable=False)


class TestSchema:
    def make_schema(self) -> TableSchema:
        return TableSchema(
            "TEdges",
            [Column("fid", INTEGER), Column("tid", INTEGER), Column("cost", FLOAT)],
        )

    def test_column_validation(self):
        with pytest.raises(SchemaError):
            Column("bad name", INTEGER)
        with pytest.raises(SchemaError):
            Column("x", "BLOB")

    def test_schema_requires_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_duplicate_column_names(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER), Column("a", FLOAT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER)], primary_key="b")

    def test_positions_and_lookup(self):
        schema = self.make_schema()
        assert schema.position("cost") == 2
        assert schema.column_types == [INTEGER, INTEGER, FLOAT]
        with pytest.raises(SchemaError):
            schema.position("missing")

    def test_row_to_tuple_and_back(self):
        schema = self.make_schema()
        values = schema.row_to_tuple({"fid": 1, "tid": 2, "cost": 3})
        assert values == (1, 2, 3.0)
        assert schema.tuple_to_row(values) == {"fid": 1, "tid": 2, "cost": 3.0}

    def test_missing_columns_become_null(self):
        schema = self.make_schema()
        assert schema.row_to_tuple({"fid": 1}) == (1, None, None)

    def test_unknown_column_rejected(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError):
            schema.row_to_tuple({"fid": 1, "oops": 2})

    def test_tuple_arity_checked(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError):
            schema.tuple_to_row((1, 2))

