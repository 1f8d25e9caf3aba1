"""Column types supported by the relational engine.

The engine supports the three types the paper's tables need: 64-bit integers
for node identifiers and flags, doubles for edge weights / distances, and
text for labels (used by the graph-pattern-matching demo).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TypeMismatchError
from repro.storage.serialization import FLOAT, INTEGER, TEXT

__all__ = ["INTEGER", "FLOAT", "TEXT", "coerce_value"]


def coerce_value(value: Optional[object], column_type: str,
                 nullable: bool = True) -> Optional[object]:
    """Coerce ``value`` to ``column_type`` or raise :class:`TypeMismatchError`.

    ``None`` passes through for nullable columns.  Integers are accepted for
    FLOAT columns, and booleans/floats with integral values for INTEGER
    columns, mirroring the implicit casts a SQL engine would perform.
    """
    if value is None:
        if nullable:
            return None
        raise TypeMismatchError("NULL value in a NOT NULL column")
    if column_type == INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatchError(f"{value!r} is not an INTEGER")
    if column_type == FLOAT:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise TypeMismatchError(f"{value!r} is not a FLOAT")
    if column_type == TEXT:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"{value!r} is not TEXT")
    raise TypeMismatchError(f"unknown column type {column_type!r}")
