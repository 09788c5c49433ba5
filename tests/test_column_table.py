"""Records built on read: an engine whose algorithm owns a columnar
store (``svec``: a single engine, its window and cache layers, each
process shard worker) keeps its rows only as the store's columns.

:class:`~repro.storage.columnar_store.ColumnTable` builds a ``Record``
on every read — ``get``, iteration, the value ``delete`` returns, the
store's ``record_at`` under queries, snapshots — from the store row, a
per-cell raw-int flag and, for an arrival the columns cannot reproduce,
the arrival itself.  Every row read back must equal its arrival field
for field and type for type, and the engine must hold no record per
row.  The dict-of-records table stays where no columnar store exists.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryConfig, FactDiscoverer, TableSchema
from repro.api import EngineSpec, open_engine
from repro.core.constraint import Constraint
from repro.core.record import Record, Table
from repro.extensions.snapshot import load_engine
from repro.storage.columnar_store import ColumnTable
from tests.strategies import FAMILIES, make_rows, open_router, stream_scenarios


def typed(record):
    """``record`` as its tid and, per field, each value's type and
    repr: equal only when every value reads back as the same type and
    the same value (``1`` is not ``1.0`` nor ``True``, ``-0.0`` is not
    ``0.0``)."""
    return (record.tid,) + tuple(
        tuple((type(value), repr(value)) for value in field)
        for field in (record.dims, record.values, record.raw)
    )


def live_records():
    """How many ``Record`` objects the process holds."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Record)


#: Raw measures of every type a row may carry — int, float, bool, str,
#: an int past 2^53, −0.0 — with None dimension values, dimension values
#: of another type than the one their id was first interned with (1.0
#: and True after 1), and a min-preference measure.
ODD_SCHEMA = TableSchema(
    ("d0", "d1"), ("m0", "m1", "m2"), preferences={"m1": "min"}
)
ODD_ROWS = [
    {"d0": "a", "d1": None, "m0": 3, "m1": 2.5, "m2": -0.0},
    {"d0": "a", "d1": "x", "m0": True, "m1": "4.5", "m2": 0.0},
    {"d0": 1, "d1": "x", "m0": 2**60 + 1, "m1": -0.0, "m2": 7},
    {"d0": 1.0, "d1": None, "m0": 1.5, "m1": 0, "m2": False},
    {"d0": True, "d1": "y", "m0": -3, "m1": -2, "m2": 1e300},
    {"d0": -0.0, "d1": 0, "m0": 0.0, "m1": -7.25, "m2": -0.0},
    {"d0": 0, "d1": "y", "m0": 2**53, "m1": 2**53 + 1, "m2": -(2**53)},
    {"d0": None, "d1": None, "m0": 4, "m1": 4.0, "m2": 4},
]


class Reads:
    """One engine, the records its arrivals were discovered with, and
    every read surface checked against them."""

    def __init__(self, engine, tmp_path):
        self.engine = engine
        self.arrived = {}
        self.path = str(tmp_path / "ck.json")

    def arrive(self, row):
        facts = self.engine.facts_for(row)
        self.arrived[facts.record.tid] = facts.record

    def delete(self, tid):
        assert typed(self.engine.delete(tid)) == typed(self.arrived[tid])

    def live(self):
        return list(self.engine.table.tids())

    def check(self):
        engine, arrived = self.engine, self.arrived
        table = engine.table
        tids = self.live()
        assert len(table) == len(engine) == len(tids)
        assert [typed(r) for r in table] == [typed(arrived[t]) for t in tids]
        for tid in tids:
            assert tid in table
            assert typed(table.get(tid)) == typed(arrived[tid])
        # Queries read rows through the store's ``record_at``.
        query = engine.query()
        n_dims = engine.discovery_schema.n_dimensions
        full = engine.discovery_schema.full_measure_mask
        probes = {Constraint((None,) * n_dims)} | {
            Constraint(arrived[t].dims) for t in tids[:4]
        }
        for constraint in probes:
            for subspace in range(1, full + 1):
                for record in query.skyline(constraint, subspace):
                    assert typed(record) == typed(arrived[record.tid])

    def check_snapshot(self):
        self.engine.snapshot(self.path)
        restored = load_engine(self.path)
        try:
            assert [typed(r) for r in restored.table] == [
                typed(r) for r in self.engine.table
            ]
            assert restored.version == self.engine.version
        finally:
            restored.close()


def svec_engines(schema, config):
    """The compositions a columnar store backs: a single engine, a
    windowed and a query-cached one."""
    return [
        FactDiscoverer(schema, "svec", config),
        open_engine(EngineSpec(schema, "svec", config, window=3)),
        open_engine(EngineSpec(schema, "svec", config, query_cache=8)),
    ]


class TestTablesByAlgorithm:
    def test_a_store_backed_engine_reads_its_rows_from_the_columns(self):
        schema = TableSchema(("d0",), ("m0",))
        engine = FactDiscoverer(schema, "svec")
        assert type(engine.table) is ColumnTable
        assert engine.table.store is engine.algorithm.store
        engine.algorithm.reset()
        assert engine.table.store is engine.algorithm.store

    @pytest.mark.parametrize("algorithm", ["stopdown", "bruteforce", "baselinevec"])
    def test_an_engine_without_a_store_keeps_records(self, algorithm):
        engine = FactDiscoverer(TableSchema(("d0",), ("m0",)), algorithm)
        assert type(engine.table) is Table

    def test_the_router_keeps_records(self):
        router = open_router(TableSchema(("d0",), ("m0",)), 2)
        try:
            assert type(router.table) is Table
        finally:
            router.close()


class TestNoRecordPerRow:
    @pytest.mark.parametrize("window", [None, 300], ids=["plain", "windowed"])
    def test_a_thousand_arrivals_leave_no_records_behind(self, window):
        """A table of records holds one ``Record`` per live row (≥ 1 000
        here); the columns need none between reads."""
        rows = [
            {"d0": f"a{i % 7}", "d1": f"b{i % 5}", "m0": (i * 37) % 101,
             "m1": float((i * 53) % 89)}
            for i in range(1000)
        ]
        engine = open_engine(
            EngineSpec(TableSchema(("d0", "d1"), ("m0", "m1")), "svec",
                       window=window)
        )
        before = live_records()
        for row in rows:
            engine.observe(row)
        assert len(engine) == (window or 1000)
        assert live_records() - before <= 4


class TestReadsEqualArrivals:
    @pytest.mark.parametrize("composition", ["single", "windowed", "cached"])
    def test_odd_values_read_back_as_they_arrived(self, composition, tmp_path):
        config = DiscoveryConfig()
        engine = svec_engines(ODD_SCHEMA, config)[
            ["single", "windowed", "cached"].index(composition)
        ]
        reads = Reads(engine, tmp_path)
        for row in ODD_ROWS:
            reads.arrive(row)
            reads.check()
        reads.check_snapshot()
        # Every arrival the columns cannot reproduce is kept whole, and
        # only those: a float, an int within 2^53 and −0.0 are not.
        kept = set(engine.table._rows)
        assert kept == {1, 2, 3, 4, 6} & set(reads.live())
        for tid in reads.live()[::-1]:
            reads.delete(tid)
            reads.check()
        assert engine.table._rows == {}

    def test_a_record_arrival_reads_back_as_handed_in(self, tmp_path):
        """A pre-built record whose values are not its signed raw
        measures is kept whole."""
        engine = FactDiscoverer(ODD_SCHEMA, "svec")
        reads = Reads(engine, tmp_path)
        made = Table(ODD_SCHEMA).make_record(ODD_ROWS[0])
        reads.arrive(Record(9, made.dims, made.values, (1, 2, 3)))
        reads.arrive(made)
        reads.check()
        assert set(engine.table._rows) == {0}

    @pytest.mark.parametrize("family", list(FAMILIES))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_every_read_equals_its_arrival_on_the_corpus(
        self, family, data, tmp_path_factory
    ):
        scenario = data.draw(
            stream_scenarios(families=(family,)), label="scenario"
        )
        tmp_path = tmp_path_factory.mktemp("reads")
        for engine in svec_engines(scenario.schema, scenario.config):
            reads = Reads(engine, tmp_path)
            for op in scenario.ops:
                live = reads.live()
                if isinstance(op, dict):
                    reads.arrive(op)
                elif not live:
                    continue
                elif isinstance(op, int):
                    reads.delete(live[op % len(live)])
                else:
                    reads.delete(live[op[0] % len(live)])
                    reads.arrive(op[1])
                reads.check()
            reads.check_snapshot()
            engine.close()


class TestWindowEvictionReadsTids:
    def test_eviction_builds_no_record(self, monkeypatch):
        """The window names its victims from the tid column."""
        engine = open_engine(
            EngineSpec(TableSchema(("d0", "d1"), ("m0", "m1")), "svec", window=4)
        )
        rows = make_rows(6)
        for row in rows[:4]:
            engine.observe(row)
        store = engine.table.store
        built = []
        real = store.row_records
        monkeypatch.setattr(
            store, "row_records", lambda rows: built.append(rows) or real(rows)
        )
        engine.observe(rows[4])
        # Two builds: the evicted row's, for the record ``delete``
        # returns, and the arrival's own row, read back as the table
        # appends it.  Naming the victim builds nothing.
        assert len(built) == 2
        assert engine.live_tids == [1, 2, 3, 4]


class TestLivenessDuringRetraction:
    def test_a_deleted_row_is_gone_before_its_store_row(self, monkeypatch):
        """Between ``Table.delete`` and the store's ``unregister`` (the
        retraction repair reads the row's columns) the table already
        answers that the tuple is gone."""
        engine = FactDiscoverer(TableSchema(("d0", "d1"), ("m0", "m1")), "svec")
        for row in make_rows(6):
            engine.observe(row)
        table, store = engine.table, engine.table.store
        seen = []
        real = store.unregister

        def unregister(tid):
            assert store.row_of(tid) is not None
            seen.append((tid, table.get(tid), tid in table, len(table),
                         [r.tid for r in table], list(table.tids())))
            real(tid)

        monkeypatch.setattr(store, "unregister", unregister)
        engine.delete(2)
        engine.delete_many([0, 4])
        assert seen == [
            (2, None, False, 5, [0, 1, 3, 4, 5], [0, 1, 3, 4, 5]),
            (0, None, False, 4, [1, 3, 4, 5], [1, 3, 4, 5]),
            (4, None, False, 3, [1, 3, 5], [1, 3, 5]),
        ]
        assert list(table.tids()) == [1, 3, 5] and len(table) == 3
