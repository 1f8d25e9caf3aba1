"""Search directions and the TVisited column mapping for each.

The bi-directional algorithms of Section 4.1 keep, per visited node, both a
forward state (``d2s``, ``p2s``, ``f``) and a backward state (``d2t``,
``p2t``, ``b``).  A :class:`Direction` bundles the column names and which
edge-table column is the join key, so the stores can implement one generic
expansion and instantiate it for either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

FORWARD = "forward"
BACKWARD = "backward"

INFINITY = float("inf")
"""Sentinel distance for "not reached from this direction yet"."""


@dataclass(frozen=True)
class Direction:
    """Column mapping of one search direction.

    Attributes:
        name: ``"forward"`` or ``"backward"``.
        dist_col: TVisited distance column (``d2s`` / ``d2t``).
        pred_col: TVisited link column (``p2s`` / ``p2t``).
        flag_col: TVisited finalization flag column (``f`` / ``b``).
        edge_key: TEdges column matched against the frontier node id
            (``fid`` when walking edges forwards, ``tid`` backwards).
        edge_other: TEdges column holding the newly reached node.
        seg_table: SegTable relation used by BSEG for this direction
            (``TInSegs`` is ``TOutSegs`` transposed: its ``pid`` is the
            node *after* ``tid`` on the segment).
    """

    name: str
    dist_col: str
    pred_col: str
    flag_col: str
    edge_key: str
    edge_other: str
    seg_table: str

    @property
    def is_forward(self) -> bool:
        """Whether this is the source-side search."""
        return self.name == FORWARD


FORWARD_DIRECTION = Direction(
    name=FORWARD,
    dist_col="d2s",
    pred_col="p2s",
    flag_col="f",
    edge_key="fid",
    edge_other="tid",
    seg_table="TOutSegs",
)

BACKWARD_DIRECTION = Direction(
    name=BACKWARD,
    dist_col="d2t",
    pred_col="p2t",
    flag_col="b",
    edge_key="tid",
    edge_other="fid",
    seg_table="TInSegs",
)
