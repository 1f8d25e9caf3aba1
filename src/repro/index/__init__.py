"""Index substrate: the B+ tree behind every table index.

Indexes map column keys to :class:`~repro.storage.page.RecordId` values (or,
for clustered tables, are paired with a key-ordered heap layout).  The paper
builds a clustered index on ``TEdges(fid)`` / ``TOutSegs(fid)`` and a unique
index on ``TVisited(nid)``; Figure 8(c) compares clustered, non-clustered and
no-index configurations, all of which are expressible with this class.
"""

from repro.index.btree import BPlusTree

__all__ = ["BPlusTree"]
