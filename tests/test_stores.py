"""Tests for the µ stores: memory, file-backed, and the binary codec."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TableSchema
from repro.core.constraint import Constraint
from repro.core.record import Record
from repro.metrics.counters import OpCounters
from repro.storage import (
    ColumnarSkylineStore,
    DimensionInterner,
    FileSkylineStore,
    MemorySkylineStore,
    RecordCodec,
)

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def rec(tid, dims=("a", "b"), raw=(1.0, 2.0)):
    signs = SCHEMA.measure_signs()
    values = tuple(s * v for s, v in zip(signs, raw))
    return Record(tid, tuple(dims), values, tuple(raw))


C1 = Constraint(("a", None))
C2 = Constraint((None, "b"))


@pytest.fixture(params=["memory", "file", "columnar"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemorySkylineStore()
    elif request.param == "columnar":
        yield ColumnarSkylineStore()
    else:
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path / "mu"))
        yield s
        s.close()


class TestStoreSemantics:
    def test_get_empty(self, store):
        assert list(store.get(C1, 0b11)) == []
        assert not store.contains(C1, 0b11, rec(0))

    def test_insert_then_get(self, store):
        store.insert(C1, 0b11, rec(0))
        assert [r.tid for r in store.get(C1, 0b11)] == [0]
        assert store.contains(C1, 0b11, rec(0))

    def test_insert_is_idempotent(self, store):
        store.insert(C1, 0b11, rec(0))
        store.insert(C1, 0b11, rec(0))
        assert store.stored_tuple_count() == 1

    def test_pairs_are_independent(self, store):
        store.insert(C1, 0b01, rec(0))
        store.insert(C1, 0b10, rec(1))
        store.insert(C2, 0b01, rec(2))
        assert {r.tid for r in store.get(C1, 0b01)} == {0}
        assert {r.tid for r in store.get(C1, 0b10)} == {1}
        assert {r.tid for r in store.get(C2, 0b01)} == {2}

    def test_delete(self, store):
        store.insert(C1, 0b11, rec(0))
        store.insert(C1, 0b11, rec(1))
        store.delete(C1, 0b11, rec(0))
        assert [r.tid for r in store.get(C1, 0b11)] == [1]
        assert store.stored_tuple_count() == 1

    def test_delete_absent_is_noop(self, store):
        store.delete(C1, 0b11, rec(9))
        assert store.stored_tuple_count() == 0

    def test_iter_pairs(self, store):
        store.insert(C1, 0b11, rec(0))
        store.insert(C2, 0b01, rec(1))
        snapshot = {key: {r.tid for r in recs} for key, recs in store.iter_pairs()}
        assert snapshot == {(C1, 0b11): {0}, (C2, 0b01): {1}}

    def test_clear(self, store):
        store.insert(C1, 0b11, rec(0))
        store.clear()
        assert store.stored_tuple_count() == 0
        assert list(store.get(C1, 0b11)) == []

    def test_replace(self, store):
        a, b, c = rec(0), rec(1), rec(2)
        store.insert(C1, 0b11, a)
        store.insert(C1, 0b11, b)
        store.replace(C1, 0b11, remove=[a], add=[c])
        assert {r.tid for r in store.get(C1, 0b11)} == {1, 2}


class TestColumnarStoreSpecifics:
    def test_insert_rejects_a_record_outside_the_constraint(self):
        # The anchor-bit matrix files a tuple under its own values at
        # the constraint's mask; a record that does not satisfy the
        # constraint has no cell to go to.
        s = ColumnarSkylineStore()
        with pytest.raises(ValueError, match="does not satisfy"):
            s.insert(Constraint(("z", None)), 0b11, rec(0))
        assert s.stored_tuple_count() == 0
        assert list(s.get(Constraint(("z", None)), 0b11)) == []
        assert s.anchor_masks(0, 0b11) == frozenset()


class TestFileStoreSpecifics:
    def test_files_created_per_nonempty_pair(self, tmp_path):
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path))
        s.insert(C1, 0b11, rec(0))
        s.insert(C2, 0b01, rec(1))
        s.flush()
        files = [f for f in os.listdir(tmp_path) if f.endswith(".bin")]
        assert len(files) == 2

    def test_file_removed_when_pair_empties(self, tmp_path):
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path))
        s.insert(C1, 0b11, rec(0))
        s.flush()
        s.delete(C1, 0b11, rec(0))
        s.flush()
        assert [f for f in os.listdir(tmp_path) if f.endswith(".bin")] == []

    def test_counters_track_io(self, tmp_path):
        counters = OpCounters()
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path), counters=counters)
        s.insert(C1, 0b11, rec(0))
        s.flush()
        assert counters.file_writes == 1
        s.insert(C2, 0b11, rec(1))  # opening new pair flushes... nothing to read
        _ = s.get(C1, 0b11)  # reopening C1 reads its file
        assert counters.file_reads == 1

    def test_empty_pair_reads_no_file(self, tmp_path):
        counters = OpCounters()
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path), counters=counters)
        assert s.get(C1, 0b11) == []
        assert counters.file_reads == 0

    def test_roundtrip_preserves_values_and_preferences(self, tmp_path):
        from repro import MIN

        schema = TableSchema(("d",), ("pts", "fouls"), {"fouls": MIN})
        s = FileSkylineStore(schema, directory=str(tmp_path))
        signs = schema.measure_signs()
        raw = (7.0, 3.0)
        values = tuple(sg * v for sg, v in zip(signs, raw))
        s.insert(Constraint(("a",)), 0b11, Record(5, ("a",), values, raw))
        s.flush()
        (back,) = s.get(Constraint(("a",)), 0b11)
        assert back.tid == 5
        assert back.raw == raw
        assert back.values == (7.0, -3.0)

    def test_approx_bytes_counts_disk(self, tmp_path):
        s = FileSkylineStore(SCHEMA, directory=str(tmp_path))
        assert s.approx_bytes() == 0
        s.insert(C1, 0b11, rec(0))
        assert s.approx_bytes() > 0


class TestCodec:
    def test_roundtrip(self):
        codec = RecordCodec(SCHEMA, DimensionInterner())
        records = [rec(0), rec(1, dims=("c", "d"), raw=(3.5, -1.25))]
        back = codec.decode(codec.encode(records))
        assert [r.tid for r in back] == [0, 1]
        assert back[1].dims == ("c", "d")
        assert back[1].raw == (3.5, -1.25)

    def test_empty_roundtrip(self):
        codec = RecordCodec(SCHEMA, DimensionInterner())
        assert codec.decode(codec.encode([])) == []

    def test_truncated_buffer_raises(self):
        codec = RecordCodec(SCHEMA, DimensionInterner())
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(b"\x01")

    def test_corrupt_length_raises(self):
        codec = RecordCodec(SCHEMA, DimensionInterner())
        buf = codec.encode([rec(0)])
        with pytest.raises(ValueError, match="corrupt"):
            codec.decode(buf + b"\x00")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["x", "y"]),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows):
        codec = RecordCodec(SCHEMA, DimensionInterner())
        records = [
            rec(tid, dims=(a, b), raw=(float(x), float(y)))
            for tid, a, b, x, y in rows
        ]
        back = codec.decode(codec.encode(records))
        assert [(r.tid, r.dims, r.raw) for r in back] == [
            (r.tid, r.dims, r.raw) for r in records
        ]

    def test_interner_is_stable(self):
        interner = DimensionInterner()
        a1 = interner.intern("a")
        b = interner.intern("b")
        a2 = interner.intern("a")
        assert a1 == a2 != b
        assert interner.lookup(a1) == "a"
        assert len(interner) == 2
