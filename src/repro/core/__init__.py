"""Core library: the relational shortest-path algorithms and the SegTable.

This package implements the paper's contribution:

* the relational shortest-path algorithms — **DJ** (Algorithm 1), **BDJ**,
  **BSDJ** (Section 4.1), **BBFS** and **BSEG** (Algorithm 2) — each a loop
  of frontier selection (F), expansion (E) and merge (M) statements over a
  ``TVisited`` table (Section 3);
* the **SegTable** index and its FEM-based construction (Section 4.2).

Section 3.1's other FEM searches are the service's
``kind="reachability"`` (:mod:`repro.core.multi`) and the SQL Prim of
``examples/fem_generality.py``.

Algorithms talk to a :class:`~repro.core.store.base.GraphStore`, which plays
the role of "the RDB reached over JDBC" in the paper: every method call
corresponds to one SQL statement of Listings 2–4.  Two stores are provided:
one over the built-in mini relational engine and one over SQLite.
"""

from repro.core.stats import QueryStats, SegTableBuildStats
from repro.core.sqlstyle import NSQL, TSQL
from repro.core.path import PathResult
from repro.service.planner import METHODS
from repro.core.segtable import SegTableConfig, build_segtable

__all__ = [
    "METHODS",
    "NSQL",
    "PathResult",
    "QueryStats",
    "SegTableBuildStats",
    "SegTableConfig",
    "TSQL",
    "build_segtable",
]
