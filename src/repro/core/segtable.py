"""SegTable construction (Section 4.2 of the paper).

The SegTable preserves every *local shortest segment*: for each ordered node
pair ``(u, v)`` with shortest distance ``δ(u, v) <= lthd`` it stores
``(u, v, pre(v), δ(u, v))``, and for every original edge whose endpoints are
farther apart than ``lthd`` it keeps the edge itself.  ``TOutSegs`` holds
segments in the outgoing direction; ``TInSegs`` serves the backward
expansion and holds the same segments transposed, ``(v, u, suc(u), δ(u, v))``.

Construction is itself an instance of the FEM framework, run once: the
working segments are seeded with the original edges, every iteration
selects the unexpanded segments of cost at most ``k * w_min`` (and at
least the cheapest ones), extends them by one original edge as long as the
result stays within ``lthd``, and merges the extensions back.  Each
working segment carries both ``pre(v)`` and ``suc(u)``, so one pass yields
both tables.  Iterations stop once the cheapest unexpanded segment exceeds
the threshold — at most ``lthd / w_min`` rounds (Section 4.2).
"""

from __future__ import annotations

from repro.obs import now as _now
from dataclasses import dataclass
from typing import Optional

from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import QueryStats, SegTableBuildStats
from repro.core.store.base import GraphStore, IndexMode
from repro.errors import InvalidQueryError


@dataclass(frozen=True)
class SegTableConfig:
    """Configuration of a SegTable build.

    Attributes:
        lthd: the index threshold (maximal segment length to precompute).
        sql_style: ``"nsql"`` (window function + merge) or ``"tsql"``.
        index_mode: physical index strategy for the final segment tables.
    """

    lthd: float
    sql_style: str = NSQL
    index_mode: str = IndexMode.CLUSTERED

    def __post_init__(self) -> None:
        if self.lthd <= 0:
            raise InvalidQueryError("the SegTable threshold lthd must be positive")
        validate_sql_style(self.sql_style)
        IndexMode.validate(self.index_mode)


def build_segtable(store: GraphStore, lthd: float,
                   sql_style: str = NSQL,
                   index_mode: str = IndexMode.CLUSTERED,
                   config: Optional[SegTableConfig] = None) -> SegTableBuildStats:
    """Construct the SegTable (``TOutSegs`` and ``TInSegs``) for the graph
    loaded in ``store``.

    Either pass the individual parameters or a prebuilt
    :class:`SegTableConfig` (which wins when both are given).

    Returns:
        A :class:`~repro.core.stats.SegTableBuildStats` with the number of
        iterations of the one construction loop, statements, stored
        segments and the wall-clock time — the quantities reported in
        Figure 9.
    """
    if config is None:
        config = SegTableConfig(lthd=lthd, sql_style=sql_style,
                                index_mode=index_mode)
    build_stats = SegTableBuildStats(lthd=config.lthd, sql_style=config.sql_style)
    query_stats = QueryStats(method="SegTableBuild", sql_style=config.sql_style)
    store.begin_query(query_stats, config.sql_style)
    start_time = _now()

    cheapest = minimal_weight = store.seg_init()
    expansion_number = 1
    while cheapest is not None and cheapest <= config.lthd:
        cheapest = store.seg_round(
            max(min(expansion_number * minimal_weight, config.lthd), cheapest),
            config.lthd)
        build_stats.iterations += 1
        expansion_number += 1
    segments = store.seg_finish(config.lthd, config.index_mode)
    build_stats.out_segments = build_stats.in_segments = segments

    build_stats.statements = query_stats.statements
    build_stats.total_time = _now() - start_time
    return build_stats
