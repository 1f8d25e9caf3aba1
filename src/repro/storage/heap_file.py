"""Heap file: an unordered collection of records spread over slotted pages.

A heap file owns a list of page ids.  Inserts fill the pages in allocation
order (falling back to a fresh page), deletes tombstone the slot, and scans walk
the pages in allocation order through the buffer pool — so every access is
counted against the pool and the disk manager, which is what the paper's
I/O-centric experiments measure.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import PageFullError
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import RecordId


class HeapFile:
    """A bag of byte-string records stored in slotted pages."""

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self.pool = pool
        self.name = name
        self.page_ids: List[int] = []
        # Index of the page inserts go to: earlier pages are full, later
        # ones (only ever present after a truncate) are empty.
        self._fill = 0
        self._record_count = 0

    # -- mutation -----------------------------------------------------------------

    def insert(self, record: bytes) -> RecordId:
        """Insert ``record`` and return its :class:`RecordId`."""
        while self._fill < len(self.page_ids):
            page_id = self.page_ids[self._fill]
            page = self.pool.fetch_page(page_id)
            try:
                slot = page.insert(record)
            except PageFullError:
                self.pool.unpin(page_id, dirty=False)
                self._fill += 1
            else:
                self.pool.unpin(page_id, dirty=True)
                self._record_count += 1
                return RecordId(page_id, slot)
        page = self.pool.new_page()
        self.page_ids.append(page.page_id)
        try:
            slot = page.insert(record)
        finally:
            self.pool.unpin(page.page_id, dirty=True)
        self._record_count += 1
        return RecordId(page.page_id, slot)

    def read(self, rid: RecordId) -> bytes:
        """Return the record stored at ``rid``."""
        page = self.pool.fetch_page(rid.page_id)
        try:
            return page.read(rid.slot)
        finally:
            self.pool.unpin(rid.page_id, dirty=False)

    def delete(self, rid: RecordId) -> None:
        """Delete the record at ``rid``."""
        page = self.pool.fetch_page(rid.page_id)
        try:
            page.delete(rid.slot)
        finally:
            self.pool.unpin(rid.page_id, dirty=True)
        self._record_count -= 1

    def update(self, rid: RecordId, record: bytes) -> RecordId:
        """Update the record at ``rid``, relocating it when it no longer fits.

        Returns the (possibly new) :class:`RecordId`.
        """
        page = self.pool.fetch_page(rid.page_id)
        try:
            updated_in_place = page.update(rid.slot, record)
        finally:
            self.pool.unpin(rid.page_id, dirty=True)
        if updated_in_place:
            return rid
        self.delete(rid)
        return self.insert(record)

    # -- access ---------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RecordId, bytes]]:
        """Iterate over all live records as ``(rid, record_bytes)`` pairs."""
        for page_id in self.page_ids:
            page = self.pool.fetch_page(page_id)
            try:
                rows = list(page.records())
            finally:
                self.pool.unpin(page_id, dirty=False)
            for slot, record in rows:
                yield RecordId(page_id, slot), record

    def __len__(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        """Number of pages owned by this heap file."""
        return len(self.page_ids)

    def truncate(self) -> None:
        """Delete every record; the pages are kept, and the next inserts
        refill them from the first."""
        for page_id in self.page_ids:
            page = self.pool.fetch_page(page_id)
            try:
                for slot, _record in list(page.records()):
                    page.delete(slot)
                page.compact()
            finally:
                self.pool.unpin(page_id, dirty=True)
        self._fill = 0
        self._record_count = 0
