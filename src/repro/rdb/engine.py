"""The ``Database`` facade: storage + catalog in one object.

A :class:`Database` owns a disk manager, a buffer pool and a catalog of
tables.  It is the "RDB" that the minidb graph store
(``repro.core.store.minidb``) talks to, and the object whose buffer
capacity and I/O counters the buffer-size experiments (Figures 8(b) and
9(g)) vary and read.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Sequence

from repro.rdb.catalog import Catalog
from repro.rdb.schema import Column, TableSchema
from repro.rdb.table import Table
from repro.storage.buffer_pool import DEFAULT_CAPACITY, BufferPool, BufferPoolStats
from repro.storage.disk import PAGE_SIZE, open_disk
from repro.storage.heap_file import HeapFile


class Database:
    """A small disk-backed relational database.

    Args:
        path: file backing the database pages.  ``None`` keeps pages in
            memory (still counted as logical I/O); ``":temp:"`` creates a
            temporary file that is removed on :meth:`close`.
        buffer_capacity: number of pages the buffer pool may cache — the
            independent variable of the paper's Figures 8(b) and 9(g).
        page_size: page size in bytes.
    """

    def __init__(self, path: Optional[str] = None,
                 buffer_capacity: int = DEFAULT_CAPACITY,
                 page_size: int = PAGE_SIZE) -> None:
        self._temp_path: Optional[str] = None
        if path == ":temp:":
            handle, path = tempfile.mkstemp(prefix="repro_db_", suffix=".pages")
            os.close(handle)
            self._temp_path = path
        self.path = path
        self.disk = open_disk(path, page_size)
        self.pool = BufferPool(self.disk, buffer_capacity)
        self.catalog = Catalog()
        self._closed = False

    # -- DDL ------------------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[Column],
                     primary_key: Optional[str] = None) -> Table:
        """Create a table and register it in the catalog."""
        schema = TableSchema(name=name, columns=list(columns), primary_key=primary_key)
        heap = HeapFile(self.pool, name=name)
        table = Table(schema, heap)
        self.catalog.register(table)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table (its pages are not reclaimed; callers recreate the
        database for a truly fresh start, which is what the benchmarks do)."""
        self.catalog.drop(name)

    # -- access -----------------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Return the table called ``name``."""
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        """Whether a table called ``name`` exists."""
        return self.catalog.has(name)

    # -- statistics ----------------------------------------------------------------------

    @property
    def buffer_stats(self) -> BufferPoolStats:
        """Buffer-pool counters (hits, misses, evictions)."""
        return self.pool.stats

    @property
    def io_reads(self) -> int:
        """Physical page reads performed by the disk manager."""
        return self.disk.reads

    @property
    def io_writes(self) -> int:
        """Physical page writes performed by the disk manager."""
        return self.disk.writes

    def reset_stats(self) -> None:
        """Reset buffer and disk counters (not table contents)."""
        self.pool.reset_stats()

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> None:
        """Flush dirty pages and close the disk manager."""
        if self._closed:
            return
        self.pool.close()
        if self._temp_path is not None and os.path.exists(self._temp_path):
            os.remove(self._temp_path)
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
