"""Buffer pool: an LRU page cache with pin counts and statistics.

The buffer pool is the component the paper's buffer-size experiments
(Figures 8(b) and 9(g)) vary.  It caches :class:`SlottedPage` objects,
evicting the least-recently-used unpinned page when full and writing dirty
victims back through the :class:`DiskManager`.

Usage pattern::

    page = pool.fetch_page(page_id)      # pins the page
    ... read or modify page ...
    pool.unpin(page_id, dirty=True)      # release, marking it modified

or equivalently with the :meth:`BufferPool.page` context manager.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import BufferPoolError
from repro.storage.disk import DiskManager
from repro.storage.page import SlottedPage

DEFAULT_CAPACITY = 256
"""Default number of frames (pages) held in memory."""


@dataclass
class BufferPoolStats:
    """Counters describing buffer-pool behaviour during a run."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests served."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from memory (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0


@dataclass
class _Frame:
    page: SlottedPage
    pin_count: int = 0
    dirty: bool = False


class BufferPool:
    """Fixed-capacity page cache with LRU replacement."""

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be at least 1")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferPoolStats()
        self._frames: Dict[int, _Frame] = {}
        # LRU order for unpinned pages only; most recently used at the end.
        self._lru: "OrderedDict[int, None]" = OrderedDict()

    # -- page lifecycle -------------------------------------------------------

    def new_page(self) -> SlottedPage:
        """Allocate a fresh page on disk and return it pinned."""
        page_id = self.disk.allocate_page()
        page = SlottedPage(page_id, bytearray(self.disk.page_size))
        self._admit(page_id, _Frame(page=page, pin_count=1, dirty=True))
        return page

    def fetch_page(self, page_id: int) -> SlottedPage:
        """Return the page, reading it from disk on a miss, and pin it."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            frame.pin_count += 1
            self._lru.pop(page_id, None)
            return frame.page
        self.stats.misses += 1
        data = self.disk.read_page(page_id)
        page = SlottedPage(page_id, data)
        self._admit(page_id, _Frame(page=page, pin_count=1, dirty=False))
        return page

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on ``page_id``; mark it dirty when modified."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} is not resident")
        if frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty
        if frame.pin_count == 0:
            self._lru[page_id] = None

    @contextmanager
    def page(self, page_id: int, dirty: bool = False) -> Iterator[SlottedPage]:
        """Context manager: fetch, yield, then unpin the page."""
        page = self.fetch_page(page_id)
        try:
            yield page
        finally:
            self.unpin(page_id, dirty=dirty)

    # -- flushing and eviction -------------------------------------------------

    def flush_page(self, page_id: int) -> None:
        """Write a resident page back to disk if it is dirty."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.dirty:
            self.disk.write_page(page_id, frame.page.to_bytes())
            self.stats.dirty_writebacks += 1
            frame.dirty = False

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        for page_id in list(self._frames):
            self.flush_page(page_id)

    def _admit(self, page_id: int, frame: _Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_id] = frame
        if frame.pin_count == 0:
            self._lru[page_id] = None

    def _evict_one(self) -> None:
        if not self._lru:
            raise BufferPoolError(
                "buffer pool is full and every page is pinned; "
                "increase the capacity or unpin pages"
            )
        victim_id, _ = self._lru.popitem(last=False)
        frame = self._frames.pop(victim_id)
        if frame.dirty:
            self.disk.write_page(victim_id, frame.page.to_bytes())
            self.stats.dirty_writebacks += 1
        self.stats.evictions += 1

    # -- management -------------------------------------------------------------

    def set_capacity(self, capacity: int) -> None:
        """Change the number of frames, evicting pages if shrinking."""
        if capacity < 1:
            raise ValueError("buffer pool capacity must be at least 1")
        self.capacity = capacity
        while len(self._frames) > self.capacity:
            self._evict_one()

    @property
    def num_resident(self) -> int:
        """Number of pages currently cached."""
        return len(self._frames)

    def reset_stats(self) -> None:
        """Clear buffer-pool and disk counters (between experiment phases)."""
        self.stats.reset()
        self.disk.reset_counters()

    def close(self) -> None:
        """Flush everything and close the underlying disk manager."""
        self.flush_all()
        self.disk.close()
