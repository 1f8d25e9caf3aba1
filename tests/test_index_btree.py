"""Unit and property-based tests for the B+ tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError
from repro.index.btree import BPlusTree


class TestBPlusTreeBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.search(1) == []
        assert list(tree.keys()) == []

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        assert tree.search(5) == ["a"]
        assert tree.contains(5)
        assert not tree.contains(6)

    def test_duplicate_keys_collect_values(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert sorted(tree.search(1)) == ["a", "b"]
        assert len(tree) == 2

    def test_unique_rejects_duplicates(self):
        tree = BPlusTree(order=4, unique=True)
        tree.insert(1, "a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(1, "b")

    def test_splits_keep_all_keys(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key * 10)
        assert len(tree) == 100
        assert tree.height > 1
        for key in range(100):
            assert tree.search(key) == [key * 10]

    def test_reverse_insertion_order(self):
        tree = BPlusTree(order=4)
        for key in reversed(range(50)):
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(50))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)


class TestBPlusTreeDelete:
    def test_delete_existing(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        assert tree.delete(1) == 1
        assert tree.search(1) == []
        assert len(tree) == 0

    def test_delete_specific_value(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]

    def test_delete_missing(self):
        tree = BPlusTree(order=4)
        assert tree.delete(42) == 0
        tree.insert(1, "a")
        assert tree.delete(1, "zzz") == 0

    def test_clear(self):
        tree = BPlusTree(order=4)
        for key in range(20):
            tree.insert(key, key)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.keys()) == []


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(-1000, 1000), st.integers()), max_size=200))
def test_property_btree_matches_dict_of_lists(entries):
    """The B+ tree behaves like a sorted multimap for any insertion order."""
    tree = BPlusTree(order=5)
    reference: dict = {}
    for key, value in entries:
        tree.insert(key, value)
        reference.setdefault(key, []).append(value)
    tree.check_invariants()
    assert len(tree) == sum(len(values) for values in reference.values())
    for key, values in reference.items():
        assert sorted(tree.search(key), key=repr) == sorted(values, key=repr)
    assert [key for key in tree.keys()] == sorted(reference)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(0, 100), min_size=1, max_size=80),
    data=st.data(),
)
def test_property_delete_then_search(keys, data):
    """Deleted keys disappear, the rest stay intact."""
    tree = BPlusTree(order=4)
    for key in keys:
        tree.insert(key, key)
    to_delete = data.draw(st.sets(st.sampled_from(keys), max_size=len(keys)))
    for key in to_delete:
        tree.delete(key)
    tree.check_invariants()
    for key in set(keys):
        if key in to_delete:
            assert tree.search(key) == []
        else:
            assert key in [k for k in tree.keys()]
