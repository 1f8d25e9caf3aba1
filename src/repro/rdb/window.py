"""Window functions (SQL:2003).

The paper's E-operator uses ``row_number() over (partition by tid order by
cost)`` to keep, for every expanded node, only the cheapest incoming path —
*and* to carry the non-aggregated predecessor column along, which a plain
GROUP BY cannot do without an extra join (that extra join is exactly the
"traditional SQL" variant measured in Figure 6(d)).

:class:`Window` is the generic operator; :func:`window_row_number` is the
convenience wrapper used by the stores.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.rdb.expressions import ExpressionLike, as_callable
from repro.rdb.operators import Operator

Row = Dict[str, object]

_SUPPORTED_FUNCTIONS = ("row_number", "rank", "min", "max", "sum", "count", "avg")


class Window(Operator):
    """Evaluate a window function over partitions of the input.

    Args:
        child: input rows.
        function: one of ``row_number``, ``rank``, ``min``, ``max``, ``sum``,
            ``count``, ``avg``.
        partition_by: column names defining partitions.
        order_by: ``(expression, ascending)`` pairs ordering rows inside a
            partition (required for ``row_number`` / ``rank``).
        argument: value expression for the aggregate window functions.
        output: name of the produced column.
    """

    def __init__(self, child: Iterable[Row], function: str,
                 partition_by: Sequence[str],
                 order_by: Optional[Sequence[Tuple[ExpressionLike, bool]]] = None,
                 argument: Optional[ExpressionLike] = None,
                 output: str = "window_value") -> None:
        if function not in _SUPPORTED_FUNCTIONS:
            raise QueryError(f"unsupported window function {function!r}")
        if function in ("row_number", "rank") and not order_by:
            raise QueryError(f"{function} requires an ORDER BY clause")
        if function in ("min", "max", "sum", "avg") and argument is None:
            raise QueryError(f"{function} requires an argument expression")
        self.child = child
        self.function = function
        self.partition_by = list(partition_by)
        self.order_by = [(as_callable(expr), ascending)
                         for expr, ascending in (order_by or [])]
        self.argument = as_callable(argument) if argument is not None else None
        self.output = output

    def __iter__(self) -> Iterator[Row]:
        partitions: Dict[Tuple[object, ...], List[Row]] = {}
        for row in self.child:
            key = tuple(row.get(column) for column in self.partition_by)
            partitions.setdefault(key, []).append(dict(row))
        for rows in partitions.values():
            ordered = self._ordered(rows)
            yield from self._apply(ordered)

    def _ordered(self, rows: List[Row]) -> List[Row]:
        ordered = list(rows)
        for expr, ascending in reversed(self.order_by):
            ordered.sort(key=lambda row: expr(row), reverse=not ascending)
        return ordered

    def _apply(self, ordered: List[Row]) -> Iterator[Row]:
        if self.function == "row_number":
            for position, row in enumerate(ordered, start=1):
                row[self.output] = position
                yield row
            return
        if self.function == "rank":
            previous_key: Optional[Tuple[object, ...]] = None
            rank = 0
            for position, row in enumerate(ordered, start=1):
                key = tuple(expr(row) for expr, _ in self.order_by)
                if key != previous_key:
                    rank = position
                    previous_key = key
                row[self.output] = rank
                yield row
            return
        values = []
        if self.argument is not None:
            values = [self.argument(row) for row in ordered]
            values = [value for value in values if value is not None]
        if self.function == "count":
            result: object = len(ordered)
        elif self.function == "sum":
            result = sum(values) if values else None
        elif self.function == "avg":
            result = (sum(values) / len(values)) if values else None
        elif self.function == "min":
            result = min(values) if values else None
        else:  # max
            result = max(values) if values else None
        for row in ordered:
            row[self.output] = result
            yield row


def window_row_number(rows: Iterable[Row], partition_by: Sequence[str],
                      order_by: Sequence[Tuple[ExpressionLike, bool]],
                      output: str = "rownum") -> List[Row]:
    """Assign ``row_number() over (partition by ... order by ...)``.

    Returns the materialized rows with the extra ``output`` column — the
    exact shape used in Listing 2(3) / Listing 4(2) of the paper, where the
    caller then keeps only ``rownum == 1``.
    """
    return list(Window(rows, "row_number", partition_by, order_by, output=output))
