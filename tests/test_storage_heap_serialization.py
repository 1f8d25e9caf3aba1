"""Tests for the heap file and row serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SerializationError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.heap_file import HeapFile
from repro.storage.serialization import FLOAT, INTEGER, TEXT, RowSerializer


def make_heap(capacity=16, page_size=256) -> HeapFile:
    return HeapFile(BufferPool(InMemoryDiskManager(page_size=page_size), capacity))


class TestHeapFile:
    def test_insert_and_read(self):
        heap = make_heap()
        rid = heap.insert(b"record-1")
        assert heap.read(rid) == b"record-1"
        assert len(heap) == 1

    def test_spills_to_multiple_pages(self):
        heap = make_heap(page_size=128)
        rids = [heap.insert(b"x" * 40) for _ in range(20)]
        assert heap.num_pages > 1
        assert len({rid.page_id for rid in rids}) == heap.num_pages

    def test_scan_returns_all_records(self):
        heap = make_heap()
        expected = {i: f"row{i}".encode() for i in range(25)}
        rids = {i: heap.insert(record) for i, record in expected.items()}
        scanned = dict(heap.scan())
        assert len(scanned) == 25
        for i, rid in rids.items():
            assert scanned[rid] == expected[i]

    def test_delete(self):
        heap = make_heap()
        rid = heap.insert(b"gone")
        heap.delete(rid)
        assert len(heap) == 0
        assert rid not in dict(heap.scan())

    def test_update_in_place(self):
        heap = make_heap()
        rid = heap.insert(b"aaaa")
        new_rid = heap.update(rid, b"bbbb")
        assert new_rid == rid
        assert heap.read(new_rid) == b"bbbb"

    def test_update_relocates_when_growing(self):
        heap = make_heap(page_size=128)
        rid = heap.insert(b"a" * 30)
        heap.insert(b"b" * 60)
        new_rid = heap.update(rid, b"c" * 100)
        assert heap.read(new_rid) == b"c" * 100
        assert len(heap) == 2

    def test_truncate(self):
        heap = make_heap()
        for i in range(10):
            heap.insert(f"row{i}".encode())
        heap.truncate()
        assert len(heap) == 0
        assert list(heap.scan()) == []
        # Pages are reused after truncation.
        heap.insert(b"again")
        assert len(heap) == 1

    def test_truncate_insert_cycles_keep_page_count_flat(self):
        # A multi-page fill must refill *every* emptied page, not only the
        # last one — else each cycle appends pages (minidb's TVisited grew
        # without bound across queries).
        heap = make_heap()
        records = [f"row{i}".encode() * 8 for i in range(40)]
        for record in records:
            heap.insert(record)
        pages = heap.num_pages
        assert pages > 2
        for _ in range(50):
            heap.truncate()
            for record in records:
                heap.insert(record)
            assert heap.num_pages == pages
        assert sorted(record for _, record in heap.scan()) == sorted(records)


class TestRowSerializer:
    def test_round_trip_all_types(self):
        serializer = RowSerializer([INTEGER, FLOAT, TEXT])
        row = (42, 3.25, "hello world")
        assert serializer.decode(serializer.encode(row)) == row

    def test_null_values(self):
        serializer = RowSerializer([INTEGER, FLOAT, TEXT])
        row = (None, None, None)
        assert serializer.decode(serializer.encode(row)) == row

    def test_mixed_nulls(self):
        serializer = RowSerializer([INTEGER, TEXT, FLOAT])
        row = (7, None, -1.5)
        assert serializer.decode(serializer.encode(row)) == row

    def test_unicode_text(self):
        serializer = RowSerializer([TEXT])
        row = ("héllo — κόσμος",)
        assert serializer.decode(serializer.encode(row)) == row

    def test_wrong_arity(self):
        serializer = RowSerializer([INTEGER, INTEGER])
        with pytest.raises(SerializationError):
            serializer.encode((1,))

    def test_bad_type_rejected(self):
        serializer = RowSerializer([INTEGER])
        with pytest.raises(SerializationError):
            serializer.encode(("not an int",))

    def test_unknown_column_type(self):
        with pytest.raises(SerializationError):
            RowSerializer(["BLOB"])

    def test_truncated_record(self):
        serializer = RowSerializer([INTEGER, INTEGER])
        encoded = serializer.encode((1, 2))
        with pytest.raises(SerializationError):
            serializer.decode(encoded[:4])


@settings(max_examples=75, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=-2**62, max_value=2**62)),
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=True)),
            st.one_of(st.none(), st.text(max_size=30)),
        ),
        max_size=20,
    )
)
def test_property_serializer_round_trip(rows):
    """encode/decode is the identity for every supported value combination."""
    serializer = RowSerializer([INTEGER, FLOAT, TEXT])
    for row in rows:
        assert serializer.decode(serializer.encode(row)) == row


@settings(max_examples=30, deadline=None)
@given(records=st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=60))
def test_property_heap_preserves_all_records(records):
    """A heap file never loses or corrupts inserted records."""
    heap = make_heap(capacity=8, page_size=256)
    rids = [heap.insert(record) for record in records]
    stored = dict(heap.scan())
    assert len(stored) == len(records)
    for rid, record in zip(rids, records):
        assert stored[rid] == record
