"""Failure-injection tests: corrupted files, malformed inputs, misuse."""

import json
import os

import pytest

from repro import Constraint, FactDiscoverer, SchemaError, TableSchema, make_algorithm
from repro.core.record import Record
from repro.extensions.snapshot import load_engine, save_engine
from repro.service.journal import (
    JournalCorruptError,
    JournalWriter,
    read_ops,
    scan_segment,
)
from repro.storage import FileSkylineStore

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))
C1 = Constraint(("a", None))


def rec(tid):
    return Record(tid, ("a", "b"), (1.0, 2.0), (1.0, 2.0))


class TestCorruptFiles:
    def _store_with_file(self, tmp_path):
        store = FileSkylineStore(SCHEMA, directory=str(tmp_path))
        store.insert(C1, 0b11, rec(0))
        store.flush()
        (path,) = [
            os.path.join(tmp_path, f)
            for f in os.listdir(tmp_path)
            if f.endswith(".bin")
        ]
        return store, path

    def test_truncated_file_raises_cleanly(self, tmp_path):
        store, path = self._store_with_file(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(2)
        with pytest.raises(ValueError, match="truncated|corrupt"):
            store.get(C1, 0b11)

    def test_appended_garbage_raises_cleanly(self, tmp_path):
        store, path = self._store_with_file(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        with pytest.raises(ValueError, match="corrupt"):
            store.get(C1, 0b11)

    def test_deleted_file_is_treated_as_lost_pair(self, tmp_path):
        store, path = self._store_with_file(tmp_path)
        os.remove(path)
        # The pair is registered but its file vanished: read as empty.
        assert list(store.get(C1, 0b11)) == []


class TestCorruptSnapshots:
    def _snapshot(self, tmp_path):
        path = str(tmp_path / "engine.snap")
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        engine.observe_many(
            [{"d0": "a", "d1": "b", "m0": i, "m1": 9 - i} for i in range(8)]
        )
        save_engine(engine, path)
        engine.close()
        return path

    def test_truncated_snapshot_raises_cleanly(self, tmp_path):
        path = self._snapshot(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(ValueError, match="corrupt|truncated|malformed"):
            load_engine(path)

    def test_garbage_snapshot_names_the_journal(self, tmp_path):
        path = self._snapshot(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"\xde\xad\xbe\xef not json")
        with pytest.raises(ValueError, match="write-ahead journal"):
            load_engine(path)

    def test_valid_json_missing_sections_raises(self, tmp_path):
        path = self._snapshot(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["rows"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="malformed|missing"):
            load_engine(path)

    def _poison_row(self, tmp_path):
        path = self._snapshot(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["rows"][5]["m0"] = "not a number"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_row_that_fails_on_restore_aborts_it(self, tmp_path):
        """A row discovery refuses aborts the restore: its error
        propagates and no partial engine comes back."""
        path = self._poison_row(tmp_path)
        with pytest.raises(SchemaError, match="not a number"):
            load_engine(path)

    def test_aborted_restore_closes_its_engine(self, tmp_path, monkeypatch):
        from repro.api import facade

        path = self._poison_row(tmp_path)
        closed = []
        open_engine = facade.open_engine

        def spy(spec):
            engine = open_engine(spec)
            close = engine.close
            engine.close = lambda: closed.append(engine) or close()
            return engine

        monkeypatch.setattr(facade, "open_engine", spy)
        with pytest.raises(SchemaError):
            load_engine(path)
        assert len(closed) == 1

    def test_wrong_document_type_raises(self, tmp_path):
        path = str(tmp_path / "notes.json")
        with open(path, "w") as fh:
            json.dump({"hello": "world"}, fh)
        with pytest.raises(ValueError, match="snapshot"):
            load_engine(path)


class TestCorruptJournals:
    ROW = {"d0": "a", "d1": "b", "m0": 1, "m1": 2}

    def _journal(self, tmp_path, n=5):
        directory = str(tmp_path / "wal")
        with JournalWriter(directory) as journal:
            for _ in range(n):
                journal.append_ingest(self.ROW)
        return directory

    def _only_segment(self, directory):
        (name,) = os.listdir(directory)
        return os.path.join(directory, name)

    def test_torn_tail_on_newest_segment_is_tolerated(self, tmp_path):
        directory = self._journal(tmp_path)
        with open(self._only_segment(directory), "ab") as fh:
            fh.write(b"\x20\x00\x00")  # truncated frame header
        ops, torn = read_ops(directory)
        assert torn
        assert len(ops) == 5

    def test_mid_file_corruption_raises_with_offset(self, tmp_path):
        directory = self._journal(tmp_path)
        path = self._only_segment(directory)
        # Flip payload bytes of the *first* frame: records follow it, so
        # this is damage, not a torn tail.
        with open(path, "r+b") as fh:
            fh.seek(20)
            fh.write(b"\xff\xff")
        with pytest.raises(JournalCorruptError, match="byte|corrupt"):
            read_ops(directory)

    def test_corruption_on_non_final_segment_raises(self, tmp_path):
        directory = str(tmp_path / "wal")
        with JournalWriter(directory, segment_max_bytes=1024) as journal:
            for _ in range(40):  # forces at least one rotation
                journal.append_ingest(self.ROW)
        segments = sorted(os.listdir(directory))
        assert len(segments) > 1
        # A torn tail is only ever legitimate on the newest segment.
        with open(os.path.join(directory, segments[0]), "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 3)
        with pytest.raises(JournalCorruptError, match="newest segment"):
            read_ops(directory)

    def test_bad_header_raises(self, tmp_path):
        directory = self._journal(tmp_path)
        path = self._only_segment(directory)
        with open(path, "r+b") as fh:
            fh.write(b"NOTWAL!")
        with pytest.raises(JournalCorruptError, match="header"):
            scan_segment(path, tolerate_tail=True)

    def test_writer_resumes_after_torn_tail(self, tmp_path):
        directory = self._journal(tmp_path)
        with open(self._only_segment(directory), "ab") as fh:
            fh.write(b"\x99\x00\x00\x00\x01\x02")
        with JournalWriter(directory) as journal:
            assert journal.last_seq == 5
            journal.append_ingest(self.ROW)
        ops, torn = read_ops(directory)
        assert not torn
        assert [op["seq"] for op in ops] == [1, 2, 3, 4, 5, 6]


class TestMalformedRows:
    def test_missing_attribute(self):
        algo = make_algorithm("bottomup", SCHEMA)
        with pytest.raises(SchemaError):
            algo.process({"d0": "a", "m0": 1, "m1": 1})

    def test_non_numeric_measure(self):
        algo = make_algorithm("bottomup", SCHEMA)
        with pytest.raises(SchemaError):
            algo.process({"d0": "a", "d1": "b", "m0": "lots", "m1": 1})

    def test_failed_process_leaves_table_unchanged(self):
        algo = make_algorithm("bottomup", SCHEMA)
        algo.process({"d0": "a", "d1": "b", "m0": 1, "m1": 1})
        with pytest.raises(SchemaError):
            algo.process({"d0": "a", "d1": "b", "m0": "x", "m1": 1})
        assert len(algo.table) == 1

    def test_none_measure_rejected(self):
        algo = make_algorithm("stopdown", SCHEMA)
        with pytest.raises(SchemaError):
            algo.process({"d0": "a", "d1": "b", "m0": None, "m1": 1})


class TestMisuse:
    def test_unknown_algorithm_lists_options(self):
        with pytest.raises(ValueError) as err:
            make_algorithm("does-not-exist", SCHEMA)
        assert "bottomup" in str(err.value)

    def test_retract_unknown_tid(self):
        algo = make_algorithm("topdown", SCHEMA)
        with pytest.raises(KeyError):
            algo.retract(3)

    def test_double_retract(self):
        algo = make_algorithm("bottomup", SCHEMA)
        algo.process({"d0": "a", "d1": "b", "m0": 1, "m1": 1})
        algo.retract(0)
        with pytest.raises(KeyError):
            algo.retract(0)

    def test_nan_measures_never_dominate_into_facts(self):
        """NaN breaks ordering; inserting one must not corrupt others'
        facts (NaN comparisons are all False, so a NaN row is simply
        incomparable)."""
        algo = make_algorithm("bruteforce", SCHEMA)
        algo.process({"d0": "a", "d1": "b", "m0": float("nan"), "m1": 1})
        facts = algo.process({"d0": "a", "d1": "b", "m0": 5, "m1": 5})
        # The normal tuple is undominated everywhere.
        assert len(facts) == 4 * 3
