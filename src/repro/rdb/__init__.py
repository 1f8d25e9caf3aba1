"""Relational engine: schemas, B+ tree-indexed tables and two SQL features.

This package is the "RDB" of the paper as far as its FEM statements need
one: graphs and intermediate search state live in tables backed by the
storage engine (``repro.storage``) and indexed by B+ trees
(``repro.index``).  The minidb graph store (``repro.core.store.minidb``)
evaluates the F, E and M operators of Listings 2-4 directly on those
tables — index lookups, flag updates — plus the two SQL features the paper
leans on: the SQL:2003 ``row_number()`` *window function*
(:func:`~repro.rdb.window.window_row_number`) and the SQL:2008 *MERGE
statement* (:func:`~repro.rdb.merge.merge_into`).

The main entry point is :class:`~repro.rdb.engine.Database`.
"""

from repro.rdb.types import FLOAT, INTEGER, TEXT
from repro.rdb.schema import Column, TableSchema
from repro.rdb.table import IndexInfo, Table
from repro.rdb.engine import Database
from repro.rdb.merge import MergeResult, merge_into
from repro.rdb.window import window_row_number

__all__ = [
    "Column",
    "Database",
    "FLOAT",
    "INTEGER",
    "IndexInfo",
    "MergeResult",
    "TEXT",
    "Table",
    "TableSchema",
    "merge_into",
    "window_row_number",
]
