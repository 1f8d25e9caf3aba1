"""Tables: schema + heap file + secondary indexes.

A :class:`Table` stores rows (dictionaries keyed by column name) in a
:class:`~repro.storage.heap_file.HeapFile` and keeps any number of indexes
consistent with the heap.  Indexes can be *clustered* in the sense the paper
uses for ``TEdges(fid)`` / ``TOutSegs(fid)``: the heap is bulk-loaded in key
order so all rows with the same key sit on neighbouring pages, which is what
makes the E-operator's per-node edge fetch cheap in I/O terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CatalogError, ConstraintViolationError
from repro.index.btree import BPlusTree
from repro.rdb.schema import TableSchema
from repro.storage.heap_file import HeapFile
from repro.storage.page import RecordId
from repro.storage.serialization import RowSerializer

Row = Dict[str, object]
Predicate = Callable[[Row], object]


@dataclass
class IndexInfo:
    """Metadata and B+ tree of one index."""

    name: str
    column: str
    structure: BPlusTree
    unique: bool = False
    clustered: bool = False


class Table:
    """A heap-backed table with B+ tree indexes."""

    def __init__(self, schema: TableSchema, heap: HeapFile) -> None:
        self.schema = schema
        self.heap = heap
        self.serializer = RowSerializer(schema.column_types)
        self.indexes: Dict[str, IndexInfo] = {}

    @property
    def name(self) -> str:
        """Table name."""
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return len(self.heap)

    # -- index management ---------------------------------------------------------

    def create_index(self, column: str, unique: bool = False,
                     clustered: bool = False, name: Optional[str] = None) -> IndexInfo:
        """Create a B+ tree index on ``column`` and populate it from existing rows.

        Args:
            column: indexed column name.
            unique: reject duplicate keys.
            clustered: marks the index as the table's clustering key; callers
                should bulk-load rows in key order (see :meth:`bulk_load`).
            name: index name; defaults to ``ix_<table>_<column>``.

        Raises:
            CatalogError: if an index with the same name exists.
        """
        self.schema.position(column)  # validates the column exists
        index_name = name or f"ix_{self.schema.name}_{column}"
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        structure = BPlusTree(unique=unique)
        for rid, row in self._scan_with_rids():
            structure.insert(row.get(column), rid)
        info = IndexInfo(name=index_name, column=column, structure=structure,
                         unique=unique, clustered=clustered)
        self.indexes[index_name] = info
        return info

    def index_on(self, column: str) -> Optional[IndexInfo]:
        """Return an index whose key is ``column`` (clustered ones first)."""
        candidates = [info for info in self.indexes.values() if info.column == column]
        if not candidates:
            return None
        candidates.sort(key=lambda info: (not info.clustered, info.name))
        return candidates[0]

    def _check_unique(self, row: Row, old_row: Optional[Row] = None) -> None:
        """Refuse ``row`` before anything is written if a unique index already
        holds its key.  On update (``old_row`` given) an unchanged key is the
        row's own entry, so only changed keys are probed."""
        for info in self.indexes.values():
            if not info.unique:
                continue
            key = row.get(info.column)
            if old_row is not None and old_row.get(info.column) == key:
                continue
            if info.structure.contains(key):
                raise ConstraintViolationError(
                    f"duplicate key {key!r} for unique index {info.name!r}"
                )

    def _index_delete(self, row: Row, rid: RecordId) -> None:
        for info in self.indexes.values():
            info.structure.delete(row.get(info.column), rid)

    # -- mutation -------------------------------------------------------------------

    def insert(self, row: Row) -> RecordId:
        """Insert one row (column-name -> value mapping) and return its RID."""
        values = self.schema.row_to_tuple(row)
        normalized = self.schema.tuple_to_row(values)
        if self.schema.primary_key is not None:
            self._check_primary_key(normalized)
        self._check_unique(normalized)
        rid = self.heap.insert(self.serializer.encode(values))
        for info in self.indexes.values():
            info.structure.insert(normalized.get(info.column), rid)
        return rid

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def bulk_load(self, rows: Iterable[Row], order_by: Optional[str] = None) -> int:
        """Insert many rows, optionally sorted by ``order_by`` first.

        Sorting by the clustering column before insertion is what produces a
        *clustered* physical layout: equal keys land on adjacent pages.
        """
        materialized = list(rows)
        if order_by is not None:
            position = self.schema.position(order_by)  # validate
            del position
            materialized.sort(key=lambda row: (row.get(order_by) is None,
                                               row.get(order_by)))
        return self.insert_many(materialized)

    def _check_primary_key(self, row: Row) -> None:
        key_column = self.schema.primary_key
        info = self.index_on(key_column) if key_column else None
        if info is not None and info.unique:
            return  # the unique index enforces it in _check_unique
        key_value = row.get(key_column)
        for existing in self.scan():
            if existing.get(key_column) == key_value:
                raise ConstraintViolationError(
                    f"duplicate primary key {key_value!r} in table {self.name!r}"
                )

    def update_where(self, predicate: Predicate,
                     updater: Callable[[Row], Row]) -> int:
        """Update rows satisfying ``predicate`` with ``updater(row) -> new row``.

        Returns the number of rows updated.  ``updater`` may return a partial
        mapping; unspecified columns keep their values.
        """
        targets: List[Tuple[RecordId, Row]] = [
            (rid, row) for rid, row in self._scan_with_rids() if predicate(row)
        ]
        for rid, row in targets:
            changes = updater(dict(row))
            new_row = dict(row)
            new_row.update(changes)
            self.update_by_rid(rid, new_row, old_row=row)
        return len(targets)

    def update_by_rid(self, rid: RecordId, new_row: Row,
                      old_row: Optional[Row] = None) -> RecordId:
        """Replace the row at ``rid`` with ``new_row``; returns the new RID."""
        if old_row is None:
            old_row = self.read(rid)
        values = self.schema.row_to_tuple(new_row)
        normalized = self.schema.tuple_to_row(values)
        self._check_unique(normalized, old_row)
        new_rid = self.heap.update(rid, self.serializer.encode(values))
        if new_rid != rid or any(
            old_row.get(info.column) != normalized.get(info.column)
            for info in self.indexes.values()
        ):
            self._index_delete(old_row, rid)
            for info in self.indexes.values():
                info.structure.insert(normalized.get(info.column), new_rid)
        return new_rid

    def truncate(self) -> None:
        """Delete every row and clear all indexes (pages are reused)."""
        self.heap.truncate()
        for info in self.indexes.values():
            info.structure.clear()

    # -- access ----------------------------------------------------------------------

    def read(self, rid: RecordId) -> Row:
        """Return the row stored at ``rid``."""
        values = self.serializer.decode(self.heap.read(rid))
        return self.schema.tuple_to_row(values)

    def scan(self) -> Iterator[Row]:
        """Iterate over all rows (heap order)."""
        for _rid, row in self._scan_with_rids():
            yield row

    def _scan_with_rids(self) -> Iterator[Tuple[RecordId, Row]]:
        for rid, record in self.heap.scan():
            values = self.serializer.decode(record)
            yield rid, self.schema.tuple_to_row(values)

    def lookup(self, column: str, key: object) -> List[Row]:
        """Return rows with ``row[column] == key`` using an index when available."""
        return [row for _rid, row in self.lookup_with_rids(column, key)]

    def lookup_with_rids(self, column: str, key: object) -> List[Tuple[RecordId, Row]]:
        """Index-assisted equality lookup returning ``(rid, row)`` pairs.

        Falls back to a full scan when no index covers ``column`` — that is
        exactly the "NoIndex" configuration of Figure 8(c).
        """
        info = self.index_on(column)
        if info is None:
            return [(rid, row) for rid, row in self._scan_with_rids()
                    if row.get(column) == key]
        results: List[Tuple[RecordId, Row]] = []
        for rid in info.structure.search(key):
            results.append((rid, self.read(rid)))
        return results
