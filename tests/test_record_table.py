"""Unit tests for repro.core.record (Record + append-only Table)."""

import pytest

from repro import MIN, SchemaError, TableSchema
from repro.core.constraint import Constraint
from repro.core.record import Record, Table


@pytest.fixture
def schema():
    return TableSchema(("d1", "d2"), ("pts", "fouls"), {"fouls": MIN})


class TestAppend:
    def test_append_assigns_sequential_tids(self, schema):
        table = Table(schema)
        r0 = table.append({"d1": "a", "d2": "b", "pts": 5, "fouls": 2})
        r1 = table.append({"d1": "a", "d2": "c", "pts": 7, "fouls": 0})
        assert (r0.tid, r1.tid) == (0, 1)
        assert len(table) == 2

    def test_normalisation_flips_min_measures(self, schema):
        table = Table(schema)
        r = table.append({"d1": "a", "d2": "b", "pts": 5, "fouls": 2})
        assert r.raw == (5, 2)
        assert r.values == (5.0, -2.0)  # fouls is min-preferred

    def test_non_numeric_measure_raises(self, schema):
        table = Table(schema)
        with pytest.raises(SchemaError):
            table.append({"d1": "a", "d2": "b", "pts": "many", "fouls": 1})

    def test_append_record_reassigns_tid(self, schema):
        table = Table(schema)
        table.append({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        foreign = Record(99, ("x", "y"), (1.0, -1.0), (1, 1))
        stored = table.append(foreign)
        assert stored.tid == 1

    def test_append_keeps_the_record_numbered_next(self, schema):
        # The record discovery ran on is the one the table holds.
        table = Table(schema)
        made = table.make_record({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        assert table.append(made) is made
        assert table.get(0) is made

    def test_make_record_does_not_append(self, schema):
        table = Table(schema)
        rec = table.make_record({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        assert rec.tid == 0
        assert len(table) == 0


class TestAccess:
    def test_iteration_and_lookup(self, schema):
        table = Table(schema)
        table.append({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        table.append({"d1": "c", "d2": "d", "pts": 2, "fouls": 2})
        assert [r.dims[0] for r in table] == ["a", "c"]
        assert table.get(1).dims == ("c", "d")
        assert table.get(2) is None
        # Rows are found by tid only: a position is not a tid once
        # anything was deleted.
        with pytest.raises(TypeError):
            table[1]

    def test_check_live_names_each_live_tid_once(self, schema):
        table = Table(schema)
        for pts in range(3):
            table.append({"d1": "a", "d2": "b", "pts": pts, "fouls": 1})
        assert table.check_live(iter([2, 0])) == [2, 0]
        with pytest.raises(KeyError, match="tid=7"):
            table.check_live([0, 7])
        with pytest.raises(KeyError, match="repeats"):
            table.check_live([1, 1])
        assert [r.tid for r in table] == [0, 1, 2]

    def test_select_constraint(self, schema):
        table = Table(schema)
        table.append({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        table.append({"d1": "a", "d2": "c", "pts": 2, "fouls": 2})
        got = table.select_constraint(Constraint(("a", None)))
        assert [r.tid for r in got] == [0, 1]
        got = table.select_constraint(Constraint(("a", "b")))
        assert [r.tid for r in got] == [0]

    def test_record_as_dict(self, schema):
        table = Table(schema)
        r = table.append({"d1": "a", "d2": "b", "pts": 5, "fouls": 2})
        assert r.as_dict(schema) == {"d1": "a", "d2": "b", "pts": 5, "fouls": 2}


class TestDelete:
    def test_delete_removes_by_tid(self, schema):
        table = Table(schema)
        table.append({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        table.append({"d1": "c", "d2": "d", "pts": 2, "fouls": 2})
        removed = table.delete(0)
        assert removed.dims == ("a", "b")
        assert [r.tid for r in table] == [1]

    def test_delete_missing_raises(self, schema):
        table = Table(schema)
        with pytest.raises(KeyError):
            table.delete(5)

    def test_delete_keeps_arrival_order(self, schema):
        table = Table(schema)
        for pts in range(4):
            table.append({"d1": "a", "d2": "b", "pts": pts, "fouls": 1})
        table.delete(1)
        table.append({"d1": "a", "d2": "b", "pts": 9, "fouls": 1})
        assert [r.tid for r in table] == [0, 2, 3, 4]
        with pytest.raises(KeyError, match="no record with tid=1"):
            table.delete(1)

    def test_tids_keep_increasing_after_delete(self, schema):
        table = Table(schema)
        table.append({"d1": "a", "d2": "b", "pts": 1, "fouls": 1})
        table.delete(0)
        r = table.append({"d1": "x", "d2": "y", "pts": 1, "fouls": 1})
        assert r.tid == 1
