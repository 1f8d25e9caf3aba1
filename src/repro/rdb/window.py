"""The ``row_number()`` window function (SQL:2003).

The paper's E-operator uses ``row_number() over (partition by tid order by
cost)`` to keep, for every expanded node, only the cheapest incoming path —
*and* to carry the non-aggregated predecessor column along, which a plain
GROUP BY cannot do without an extra join (that extra join is exactly the
"traditional SQL" variant measured in Figure 6(d)).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Row = Dict[str, object]
SortKey = Callable[[Row], object]


def window_row_number(rows: Iterable[Row], partition_by: Sequence[str],
                      order_by: Sequence[Tuple[SortKey, bool]]) -> List[Row]:
    """Assign ``row_number() over (partition by ... order by ...)``.

    ``order_by`` holds ``(key, ascending)`` pairs, most significant first.
    Returns copies of the rows with an extra ``rownum`` column: partitions
    in first-seen order, each sorted stably, so input order breaks ties.
    That is the shape of Listing 2(3) / Listing 4(2) of the paper, where
    the caller then keeps only ``rownum == 1``.
    """
    partitions: Dict[Tuple[object, ...], List[Row]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in partition_by)
        partitions.setdefault(key, []).append(dict(row))
    ranked: List[Row] = []
    for members in partitions.values():
        for sort_key, ascending in reversed(order_by):
            members.sort(key=sort_key, reverse=not ascending)
        for position, row in enumerate(members, start=1):
            row["rownum"] = position
        ranked.extend(members)
    return ranked
