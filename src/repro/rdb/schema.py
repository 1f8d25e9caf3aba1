"""Table schemas: named, typed columns plus optional primary key."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.rdb.types import coerce_value
from repro.storage.serialization import SUPPORTED_TYPES


@dataclass(frozen=True)
class Column:
    """One column: a name, a type (INTEGER / FLOAT / TEXT) and nullability."""

    name: str
    type: str
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.type not in SUPPORTED_TYPES:
            raise SchemaError(f"unsupported column type {self.type!r}")


@dataclass
class TableSchema:
    """Schema of a table: ordered columns and an optional primary-key column."""

    name: str
    columns: List[Column]
    primary_key: Optional[str] = None
    _positions: Dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        self._positions = {column.name: index for index, column in enumerate(self.columns)}

    # -- lookups -------------------------------------------------------------------

    @property
    def column_types(self) -> List[str]:
        """Column types in declaration order."""
        return [column.type for column in self.columns]

    def position(self, name: str) -> int:
        """Return the ordinal position of column ``name``."""
        try:
            return self._positions[name]
        except KeyError as exc:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from exc

    # -- row conversions ------------------------------------------------------------

    def row_to_tuple(self, row: Dict[str, object]) -> Tuple[object, ...]:
        """Convert a column-name -> value mapping into a storage tuple.

        Missing columns become NULL; unknown keys raise
        :class:`~repro.errors.SchemaError`; values are type-coerced.
        """
        unknown = set(row) - set(self._positions)
        if unknown:
            raise SchemaError(
                f"row has columns {sorted(unknown)} not in table {self.name!r}"
            )
        values: List[object] = []
        for column in self.columns:
            value = coerce_value(row.get(column.name), column.type, column.nullable)
            values.append(value)
        return tuple(values)

    def tuple_to_row(self, values: Sequence[object]) -> Dict[str, object]:
        """Convert a storage tuple back into a column-name -> value dict."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"tuple has {len(values)} values, table {self.name!r} has "
                f"{len(self.columns)} columns"
            )
        return {column.name: value for column, value in zip(self.columns, values)}
