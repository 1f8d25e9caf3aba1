"""An order-``m`` B+ tree supporting duplicate keys.

The tree maps orderable keys to lists of values (typically
:class:`~repro.storage.page.RecordId` objects).  Leaves are chained so
full-order iteration is sequential.  Nodes live in memory, which
models the common situation where the hot upper levels of an index stay in
the database buffer; the I/O that experiments measure is the data-page I/O
performed after the index lookup.

Deletion removes the entry from its leaf without rebalancing (lazy
deletion).  This keeps the structure simple while preserving the search
invariants; the tables in this library delete rarely (TVisited is truncated
wholesale between queries).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import DuplicateKeyError

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: List[Any] = []


class _LeafNode(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self) -> None:
        super().__init__()
        self.values: List[List[Any]] = []
        self.next_leaf: Optional["_LeafNode"] = None


class _InnerNode(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: List[_Node] = []


class BPlusTree:
    """B+ tree index.

    Args:
        order: maximal number of keys per node before it splits.
        unique: when ``True``, inserting an existing key raises
            :class:`~repro.errors.DuplicateKeyError`.
    """

    def __init__(self, order: int = DEFAULT_ORDER, unique: bool = False) -> None:
        if order < 3:
            raise ValueError("B+ tree order must be at least 3")
        self.order = order
        self.unique = unique
        self._root: _Node = _LeafNode()
        self._size = 0

    # -- basic properties ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf)."""
        levels = 1
        node = self._root
        while isinstance(node, _InnerNode):
            levels += 1
            node = node.children[0]
        return levels

    # -- search --------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _LeafNode:
        node = self._root
        while isinstance(node, _InnerNode):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        assert isinstance(node, _LeafNode)
        return node

    def search(self, key: Any) -> List[Any]:
        """Return the list of values stored for ``key`` (empty if absent)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def contains(self, key: Any) -> bool:
        """Whether any entry exists for ``key``."""
        return bool(self.search(key))

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        leaf: Optional[_LeafNode] = self._leftmost_leaf()
        while leaf is not None:
            for key in leaf.keys:
                yield key
            leaf = leaf.next_leaf

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        assert isinstance(node, _LeafNode)
        return node

    # -- insertion --------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``.

        Raises:
            DuplicateKeyError: when the tree is unique and ``key`` exists.
        """
        split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _InnerNode()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert_into(self, node: _Node, key: Any,
                     value: Any) -> Optional[Tuple[Any, _Node]]:
        if isinstance(node, _LeafNode):
            return self._insert_into_leaf(node, key, value)
        assert isinstance(node, _InnerNode)
        index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self.order:
            return None
        return self._split_inner(node)

    def _insert_into_leaf(self, leaf: _LeafNode, key: Any,
                          value: Any) -> Optional[Tuple[Any, _Node]]:
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            if self.unique:
                raise DuplicateKeyError(f"duplicate key {key!r} in unique index")
            leaf.values[index].append(value)
            self._size += 1
            return None
        leaf.keys.insert(index, key)
        leaf.values.insert(index, [value])
        self._size += 1
        if len(leaf.keys) <= self.order:
            return None
        return self._split_leaf(leaf)

    def _split_leaf(self, leaf: _LeafNode) -> Tuple[Any, _Node]:
        middle = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_inner(self, node: _InnerNode) -> Tuple[Any, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _InnerNode()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    # -- deletion ----------------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Remove entries for ``key``.

        When ``value`` is given, only that value is removed (one occurrence);
        otherwise every value under ``key`` is removed.  Returns the number
        of removed entries.  Missing keys return 0.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return 0
        if value is None:
            removed = len(leaf.values[index])
            del leaf.keys[index]
            del leaf.values[index]
        else:
            try:
                leaf.values[index].remove(value)
            except ValueError:
                return 0
            removed = 1
            if not leaf.values[index]:
                del leaf.keys[index]
                del leaf.values[index]
        self._size -= removed
        return removed

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _LeafNode()
        self._size = 0

    # -- validation (used by property-based tests) ---------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        self._check_node(self._root, low=None, high=None, is_root=True)
        # Leaf chain must produce sorted keys and cover the full key set.
        chained = [key for key in self.keys()]
        assert chained == sorted(chained), "leaf chain is not sorted"

    def _check_node(self, node: _Node, low: Optional[Any], high: Optional[Any],
                    is_root: bool) -> None:
        assert node.keys == sorted(node.keys), "node keys out of order"
        if not is_root:
            assert len(node.keys) <= self.order, "node overflow"
        for key in node.keys:
            if low is not None:
                assert key >= low, "key below subtree lower bound"
            if high is not None:
                assert key <= high, "key above subtree upper bound"
        if isinstance(node, _InnerNode):
            assert len(node.children) == len(node.keys) + 1, "child count mismatch"
            bounds = [low] + list(node.keys) + [high]
            for child, (child_low, child_high) in zip(
                node.children, zip(bounds[:-1], bounds[1:])
            ):
                self._check_node(child, child_low, child_high, is_root=False)
