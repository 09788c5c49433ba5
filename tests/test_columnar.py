"""Tests for the columnar store subsystem and the ``svec`` engine.

The columnar pieces — the column arrays, interning, ``grow_2d``, the
anchor-bit matrix behind the cell surface (``apply_cells`` /
``anchor_cell`` / ``skyline_rows`` / ``skyline_counts`` /
``iter_pairs``, differentially against a ``MemorySkylineStore``
mirror) — and ``svec`` ≡ ``stopdown`` on the paper's example (facts,
stores, *and* counters); randomized streams are ``tests/test_corpus.py``'s.
"""

import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryConfig, FactDiscoverer, TableSchema, make_algorithm
from repro.core.constraint import (
    Constraint,
    bindable_positions,
    constraint_for_record,
)
from repro.core.prominence import ContextCounter
from repro.core.record import Record
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.storage import ColumnarSkylineStore, MemorySkylineStore, grow_2d
from repro.storage import columnar_store
from tests.strategies import store_op_sequences

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def noneful_rows(n, d, m, none_share, seed=5, **kwargs):
    """Synthetic rows; a ``none_share`` of them carry one None
    dimension value."""
    rows = synthetic_rows(n, d, m, seed=seed, **kwargs)
    rng = random.Random(seed)
    for row in rows:
        if rng.random() < none_share:
            row[f"d{rng.randrange(d)}"] = None
    return rows


def rec(tid, dims=("a", "x"), raw=(1.0, 2.0)):
    return Record(tid, tuple(dims), tuple(map(float, raw)), tuple(map(float, raw)))


class TestGrow2d:
    def test_noop_when_capacity_suffices(self):
        a = np.zeros((4, 2))
        assert grow_2d(a, 3) is a

    def test_doubles_and_preserves_prefix(self):
        a = np.arange(8, dtype=np.float64).reshape(4, 2)
        b = grow_2d(a, 4)
        assert b.shape == (8, 2)
        assert (b[:4] == a).all()

    def test_min_rows_reaches_requested_capacity(self):
        a = np.zeros((2, 3), dtype=np.int32)
        b = grow_2d(a, 1, min_rows=70)
        assert b.shape[0] >= 70
        assert b.dtype == np.int32

    def test_grows_from_zero_capacity(self):
        a = np.empty((0, 5))
        assert grow_2d(a, 0).shape[0] >= 1


def store_of(**kwargs):
    """An empty store for :data:`SCHEMA`'s layout (2 dimensions, 2
    measures), on a constraint table of its own."""
    return ColumnarSkylineStore(ContextCounter(2), n_measures=2, **kwargs)


def anchor(store, subspace, record, *masks):
    """Register ``record`` and set its cell in ``subspace`` to
    ``masks`` — one ``apply_cells`` batch; returns the row."""
    row = store.register(record)
    store.apply_cells([subspace], [row], [sum(1 << mask for mask in masks)])
    return row


class TestColumnarSubstrate:
    def test_register_is_idempotent_per_tid(self):
        store = store_of()
        r = rec(0)
        assert store.register(r) == store.register(r) == 0
        assert store.n_rows == 1

    def test_columns_reflect_registered_records(self):
        store = store_of()
        store.register(rec(0, dims=("a", "x"), raw=(1.0, 2.0)))
        store.register(rec(1, dims=("b", "x"), raw=(3.0, 4.0)))
        values = store.values_matrix()
        dims = store.dims_matrix()
        assert values.shape == (2, 2)
        assert values[1].tolist() == [3.0, 4.0]
        # Interning: equal dim values share ids, distinct ones differ.
        assert dims[0, 1] == dims[1, 1]
        assert dims[0, 0] != dims[1, 0]

    def test_probe_interning_matches_stored_rows(self):
        store = store_of()
        store.register(rec(0, dims=("a", "x")))
        probe = store.intern_dims(("a", "z"))
        assert probe[0] == store.dims_matrix()[0, 0]
        assert probe[1] != store.dims_matrix()[0, 1]

    def test_growth_preserves_history(self):
        store = store_of(initial_capacity=4)
        for tid in range(40):
            store.register(rec(tid, raw=(tid, -tid)))
        assert store.n_rows == 40
        assert store.values_matrix()[17, 0] == 17.0

    def test_reserve_grows_once(self):
        store = store_of(initial_capacity=4)
        store.reserve(100)
        cap = store._values.shape[0]
        assert cap >= 100
        for tid in range(80):
            store.register(rec(tid))
        assert store._values.shape[0] == cap

    def test_skyline_rows_are_ascending(self):
        store = store_of()
        c = Constraint(("a", None))
        first = store.register(rec(1))
        second = store.register(rec(3))
        store.apply_cells([0b11, 0b11], [second, first], [1 << c.bound_mask] * 2)
        rows = store.skyline_rows(c, 0b11).tolist()
        assert rows == [0, 1]
        assert [store.record_at(row).tid for row in rows] == [1, 3]

    def test_skyline_rows_select_on_values_and_ancestors(self):
        store = store_of()
        anchor(store, 0b11, rec(0, dims=("a", "x")), 0b01)
        anchor(store, 0b11, rec(1, dims=("b", "x")), 0b01)
        # Anchored at ⊤: in the skyline of every context it satisfies.
        anchor(store, 0b11, rec(2, dims=("a", "y")), 0b00)
        assert store.skyline_rows(Constraint(("a", None)), 0b11).tolist() == [0, 2]
        assert store.skyline_rows(Constraint(("b", None)), 0b11).tolist() == [1]
        assert store.skyline_rows(Constraint(("c", None)), 0b11).tolist() == []
        assert store.skyline_rows(Constraint(("a", None)), 0b01).tolist() == []

    def test_record_at_roundtrip(self):
        store = store_of()
        r = rec(7)
        row = store.register(r)
        assert store.record_at(row) is r

    def test_anchor_cell_tracks_apply_cells(self):
        store = store_of()
        row = anchor(store, 0b01, rec(0), 0b01, 0b11)
        assert store.anchor_cell(0b01, row) == 1 << 0b01 | 1 << 0b11
        assert store.stored_tuple_count() == 2
        store.apply_cells([0b01], [row], [1 << 0b11])
        assert store.anchor_cell(0b01, row) == 1 << 0b11
        store.apply_cells([0b01], [row], [0])
        assert store.anchor_cell(0b01, row) == 0
        assert store.stored_tuple_count() == 0
        assert store.anchor_cell(0b10, row) == 0  # a subspace never written

    def test_clear_resets_columns_and_index(self):
        store = store_of()
        anchor(store, 0b01, rec(0), 0b01)
        store.clear()
        assert store.n_rows == 0
        assert store.stored_tuple_count() == 0
        assert store.anchor_cell(0b01, 0) == 0
        assert list(store.iter_pairs()) == []

    def test_approx_bytes_counts_columns(self):
        store = store_of()
        empty = store.approx_bytes()
        assert empty > 0  # the columns are allocated from the start
        anchor(store, 0b01, rec(0), 0b01)
        assert store.approx_bytes() > empty  # the matrix gained a slot

    def test_approx_bytes_is_the_sum_of_the_allocations(self):
        import sys

        store = store_of(initial_capacity=4)
        for tid in range(5):  # one growth: 8 rows allocated
            anchor(store, 0b01, rec(tid), 0b01)
        # Per allocated row: 2 float64 measures, 2 int32 dimension ids
        # and one int32 constraint id per mask of C^t (4 at d = 2).
        arrays = 8 * (2 * 8 + 2 * 4 + 4 * 4) + store._cells.nbytes
        containers = sys.getsizeof(store._records) + sys.getsizeof(
            store._row_of
        )
        assert store._cells.shape[1:] == (8, 1)
        assert store.approx_bytes() == arrays + containers
        # The scoring index joins once built: the count matrix (64 ids
        # of 2^|M| int32 to start with) and the up-closure byte table
        # (4 bytes per cell x 256 values x 1 word).  The constraint
        # table's keys belong to the algorithm, not the store.
        store.skyline_counts(("a", "x"), (0b01,))
        index = 64 * 4 * 4 + 4 * 256 * 4
        assert store.approx_bytes() == arrays + containers + index

    def test_approx_bytes_tracks_traced_allocations(self):
        """``approx_bytes`` against ``tracemalloc``'s view of what the
        store module holds after a scored 300-row d4 m4 stream."""
        import gc
        import tracemalloc

        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        rows = synthetic_rows(300, 4, 4, distribution="anticorrelated")
        tracemalloc.start()
        try:
            engine = FactDiscoverer(
                synthetic_schema(4, 4),
                algorithm="svec",
                config=DiscoveryConfig(top_k=5),
            )
            engine.facts_for_many(rows)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traced = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, "*columnar_store.py")]
            ).statistics("filename")
        )
        approx = engine.algorithm.store.approx_bytes()
        assert abs(approx - traced) <= 0.10 * traced, (approx, traced)

    def test_engine_stats_report_store_bytes(self):
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        engine.observe({"d0": "a", "d1": "x", "m0": 1, "m1": 2})
        assert (
            engine.stats()["store_bytes"]
            == engine.algorithm.store.approx_bytes()
            > 0
        )
        assert "store_bytes" not in FactDiscoverer(
            SCHEMA, algorithm="bruteforce"
        ).stats()


class TestSVecEquivalence:
    """svec ≡ stopdown on the paper's example: facts, store contents,
    and counters."""

    @staticmethod
    def _snapshot(algo):
        return {
            key: {r.tid for r in recs} for key, recs in algo.store.iter_pairs()
        }

    def test_matches_on_paper_example(self, gamelog_schema, gamelog_rows):
        ref = make_algorithm("stopdown", gamelog_schema)
        vec = make_algorithm("svec", gamelog_schema)
        expected = [fs.pairs for fs in ref.process_stream(gamelog_rows)]
        got = [fs.pairs for fs in vec.process_stream(gamelog_rows)]
        assert got == expected
        assert self._snapshot(vec) == self._snapshot(ref)
        assert vec.counters.snapshot() == ref.counters.snapshot()


class TestNoPythonPerRow:
    """The walk is the only discovery body at every shape: no arrival
    builds a ``Constraint`` outside its one build of ``C^t`` (one
    constraint per walked mask, none when it repeats the previous
    arrival's dimension values) or probes the anchor matrix cell by
    cell, and no retraction — None-carrying victims included — takes
    the scalar repair."""

    @pytest.mark.parametrize(
        "d, m, dhat, none_share",
        [(7, 2, 4, 0.0), (3, 2, None, 0.25)],
        ids=["d7-four-words", "d3-none-rows"],
    )
    def test_walk_builds_nothing_per_row(
        self, monkeypatch, d, m, dhat, none_share
    ):
        from repro.algorithms import retraction

        vec = make_algorithm(
            "svec", synthetic_schema(d, m), DiscoveryConfig(max_bound_dims=dhat)
        )
        store = vec.store
        tally = Counter()
        in_build = []

        def counted(inner, name, allowed=lambda: False):
            def spy(*args, **kwargs):
                tally[f"{name} in C^t" if allowed() else name] += 1
                return inner(*args, **kwargs)

            return spy

        def build(record, inner=vec.constraint_cache):
            in_build.append(record)
            try:
                return inner(record)
            finally:
                in_build.pop()

        init, fast = Constraint.__init__, Constraint.from_values_mask.__func__
        monkeypatch.setattr(
            Constraint, "__init__", counted(init, "Constraint", lambda: in_build)
        )
        monkeypatch.setattr(
            Constraint,
            "from_values_mask",
            classmethod(counted(fast, "Constraint", lambda: in_build)),
        )
        monkeypatch.setattr(vec, "constraint_cache", build)
        monkeypatch.setattr(
            store, "anchor_cell", counted(store.anchor_cell, "anchor_cell")
        )
        monkeypatch.setattr(
            store,
            "apply_cells",
            lambda *cells, inner=store.apply_cells: (
                tally.update(written=len(cells[1])),
                inner(*cells),
            ),
        )

        def scalar_repair(*args, **kwargs):
            raise AssertionError("svec took the scalar retraction repair")

        monkeypatch.setattr(retraction, "retract_top_down", scalar_repair)

        rows = noneful_rows(300, d, m, none_share, distribution="independent")
        previous = None
        for row in rows:
            tally.clear()
            record = vec.process(row).record
            assert tally["Constraint"] == 0
            assert tally["Constraint in C^t"] == (
                0 if record.dims == previous else len(vec.masks_top_down)
            )
            previous = record.dims
            # Cell-by-cell reads, if any, stay within the demoted cells.
            assert tally["anchor_cell"] <= tally["written"]
        victims = list(range(0, 300, 6))
        if none_share:
            assert any(None in rows[tid].values() for tid in victims)
        for tid in victims:
            tally.clear()
            vec.retract(tid)
            assert tally["Constraint"] == 0


def distinct_dims_rows(n, d, m, cardinality, seed=3):
    """``n`` rows whose dimension tuples are pairwise distinct, with
    measures falling strictly row by row: every arrival is dominated by
    the whole history (the least discovery work per arrival) and still
    founds the contexts only its new tuple satisfies."""
    rng = random.Random(seed)
    rows = []
    for i, code in enumerate(rng.sample(range(cardinality**d), n)):
        row = {f"d{j}": f"v{code // cardinality**j % cardinality}" for j in range(d)}
        row.update({f"m{j}": float(n - i) for j in range(m)})
        rows.append(row)
    return rows


def held_bytes(roots):
    """``sys.getsizeof`` summed over every object reachable from
    ``roots``, each once — strings (the rows' own values) and types
    excluded."""
    import gc
    import sys

    seen, total, layer = set(), 0, list(roots)
    while layer:
        fresh = {
            id(obj): obj
            for obj in layer
            if id(obj) not in seen and not isinstance(obj, (str, type))
        }
        seen.update(fresh)
        total += sum(map(sys.getsizeof, fresh.values()))
        layer = gc.get_referents(*fresh.values())
    return total


class TestWritePathMemory:
    """The write path keeps what the live rows need and nothing per
    distinct dimension tuple seen.

    1 500 rows with all-distinct d = 5 tuples (cardinality 16) stream
    through ``svec``, ``stopdown`` (one measure each) and a serial
    2-shard router (two measures: one subspace key per shard), traced
    from the first row so that a container reallocated on the way is
    counted once.  The ``tracemalloc`` growth between row 500 and row
    1 500 must stay within 10 % of the growth of the state the rows have
    to leave behind — the tables, the context counter and the skyline
    stores, sized object by object (:func:`held_bytes`).  Per row, on
    CPython 3.11, with three dims-keyed ``C^t`` memos kept beside that
    state (the algorithms' constraint cache, the counter's key memo,
    the router's constraint sequences, 16 384 entries each): ``svec``
    grew 14.9 KB against an 8.9 KB budget, ``stopdown`` 14.3 KB against
    9.8 KB, the router 31.2 KB against 13.1 KB (the key memo, reachable
    from the counter, counted in the budget).  With ``C^t`` built once
    per arrival instead: 5.9, 6.6 and 9.7 KB against 6.4, 7.2 and
    10.6 KB.  (The memos' share is the same per row on a 3 000-row
    stream; tracing one costs twice the time.)
    """

    D, CARDINALITY, ROWS, MARK, CHUNK = 5, 16, 1500, 500, 100

    @pytest.mark.parametrize("engine_kind", ["svec", "stopdown", "router"])
    def test_growth_is_the_live_state(self, engine_kind):
        import gc
        import tracemalloc

        from repro.service import ShardedDiscoverer

        m = 2 if engine_kind == "router" else 1
        schema = synthetic_schema(self.D, m)
        rows = distinct_dims_rows(self.ROWS, self.D, m, self.CARDINALITY)
        tracemalloc.start()
        try:
            if engine_kind == "router":
                engine = ShardedDiscoverer(schema, n_workers=2, mode="serial")
                algorithms = [w.links[0].engine.algorithm for w in engine._workers]
                assert len(algorithms) == 2
                tables = [engine.table] + [a.table for a in algorithms]
            else:
                engine = FactDiscoverer(schema, algorithm=engine_kind)
                algorithms = [engine.algorithm]
                tables = [engine.table]
            state = tables + [engine.context_counter] + [a.store for a in algorithms]
            traced, held = [], []
            for at in range(0, self.ROWS, self.CHUNK):
                facts = engine.facts_for_many(rows[at : at + self.CHUNK])
                if at + self.CHUNK in (self.MARK, self.ROWS):
                    gc.collect()
                    traced.append(tracemalloc.get_traced_memory()[0])
                    held.append(held_bytes(state))
        finally:
            tracemalloc.stop()
        growth = (traced[1] - traced[0]) / (self.ROWS - self.MARK)
        budget = 1.1 * (held[1] - held[0]) / (self.ROWS - self.MARK)
        assert growth <= budget, (growth, budget)

        # S_t at value width: every column of every fact set is int32.
        for fact_set in facts:
            _, positions, subspaces = fact_set.cells()
            context, skyline = fact_set.scores()
            assert {
                column.dtype for column in (positions, subspaces, context, skyline)
            } == {np.dtype(np.int32)}
        engine.close()


class TestNoneDimensionValues:
    """A dimension *value* equal to the unbound marker (None) must not
    corrupt the bound-mask bookkeeping of the fast constraint paths."""

    def test_constraint_for_record_rescans_on_none_dims(self):
        from repro.core.constraint import constraint_for_record

        r = rec(0, dims=(None, "x"))
        c = constraint_for_record(r, 0b01)
        # Position 0 carries None: it cannot be bound, so the mask must
        # reflect the values (old Constraint(...) semantics).
        assert c.bound_mask == 0
        assert c == Constraint((None, None))

    def test_discovery_with_none_dim_matches_bruteforce(self):
        rows = [
            {"d0": None, "d1": "x", "m0": 3, "m1": 1},
            {"d0": "a", "d1": "x", "m0": 2, "m1": 2},
            {"d0": None, "d1": "y", "m0": 1, "m1": 3},
            {"d0": None, "d1": "x", "m0": 3, "m1": 3},
        ]
        ref = make_algorithm("bruteforce", SCHEMA)
        want = [fs.pairs for fs in ref.process_stream(rows)]
        for name in ("stopdown", "svec", "baselinevec"):
            algo = make_algorithm(name, SCHEMA)
            got = [fs.pairs for fs in algo.process_stream(rows)]
            assert got == want, name


class TestSVecInternals:
    def test_registered_in_registry(self):
        assert make_algorithm("svec", SCHEMA).name == "svec"

    def test_every_arrival_enters_columns(self):
        vec = make_algorithm("svec", SCHEMA)
        rows = [
            {"d0": "a", "d1": "x", "m0": i % 3, "m1": (i * 7) % 5}
            for i in range(20)
        ]
        vec.process_stream(rows)
        assert vec.store.n_rows == 20
        assert len(vec.table) == 20

    def test_reset_clears_columns(self):
        vec = make_algorithm("svec", SCHEMA)
        vec.process({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        vec.reset()
        assert vec.store.n_rows == 0
        assert len(vec.table) == 0
        facts = vec.process({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        assert len(facts) == 4 * 3

    def test_growth_preserves_discovery(self):
        vec = make_algorithm("svec", SCHEMA)
        vec.store._initial_capacity = 8  # force several growths
        vec.store.clear()
        rows = [
            {"d0": "a", "d1": "x", "m0": i % 5, "m1": (i * 7) % 5}
            for i in range(60)
        ]
        ref = make_algorithm("stopdown", SCHEMA)
        assert [fs.pairs for fs in vec.process_stream(rows)] == [
            fs.pairs for fs in ref.process_stream(rows)
        ]


class TestOneWritePerArrival:
    """The store has one write kernel, and discovery and retraction
    each hand it one batch per unit of work."""

    @staticmethod
    def _count_writes(monkeypatch):
        calls = []
        inner = ColumnarSkylineStore.apply_cells

        def spy(self, subspaces, rows, anchors):
            calls.append(len(rows))
            return inner(self, subspaces, rows, anchors)

        monkeypatch.setattr(ColumnarSkylineStore, "apply_cells", spy)
        return calls

    @pytest.mark.parametrize(
        "d, m, n, none_share",
        [(4, 4, 200, 0.0), (6, 2, 80, 0.0), (3, 3, 120, 0.25)],
        ids=["d4", "d6-two-words", "d3-none-rows"],
    )
    def test_one_write_per_arrival_and_per_victim(
        self, monkeypatch, d, m, n, none_share
    ):
        calls = self._count_writes(monkeypatch)
        vec = make_algorithm("svec", synthetic_schema(d, m))
        store = vec.store
        rows = noneful_rows(n, d, m, none_share, distribution="anticorrelated")
        for row in rows:
            before = set(store._anchored())
            del calls[:]
            vec.process(row)
            changed = set(store._anchored()) != before
            # Exactly one kernel entry, carrying every changed cell, for
            # an arrival that anchors or demotes anything; none otherwise.
            assert len(calls) == int(changed)
        victims = range(0, n, 7)
        if none_share:
            assert any(None in vec.table[tid].dims for tid in victims)
        for tid in victims:
            anchored = store._cells[:, store.row_of(tid)].any()
            del calls[:]
            vec.retract(tid)
            assert len(calls) == int(anchored)

    def test_a_repeated_cell_is_rejected(self):
        store = store_of()
        row = store.register(rec(0))
        store.apply_cells([1], [row], [0b0001])
        with pytest.raises(ValueError, match="repeats"):
            store.apply_cells([1, 2, 1], [row, row, row], [0b0010, 1, 0b0100])
        # Rejected before anything was written.
        assert store.anchor_cell(1, row) == 0b0001
        assert store.anchor_cell(2, row) == 0
        assert store.stored_tuple_count() == 1

    def test_constraint_table_is_bounded_by_the_live_rows(self):
        """A window over a stream whose dimension values never repeat:
        every arrival brings 2^|D| - 1 new constraints, so the
        constraint table must give its ids back as rows leave, and the
        store's count matrix must not grow past the ids in use."""
        schema = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))
        engine = FactDiscoverer(
            schema, algorithm="svec", config=DiscoveryConfig(top_k=3)
        )
        store = engine.algorithm.store
        counter = engine.context_counter
        window, n_masks = 200, 8
        for tid in range(2000):
            engine.facts_for(
                {
                    "d0": f"a{tid}",
                    "d1": f"b{tid}",
                    "d2": f"c{tid}",
                    "m0": (tid * 37) % 101,
                    "m1": (tid * 53) % 103,
                }
            )
            if tid >= window:
                engine.delete(tid - window)
        live = sum(
            store.record_at(row) is not None for row in range(store.n_rows)
        )
        assert live == window
        assert len(counter) <= live * n_masks + 1
        # Ids are recycled, not leaked: the count matrix never grew
        # past what window + 1 simultaneous rows can hold, and nothing
        # is counted outside the ids the live rows hold.
        assert store._counts.shape[0] <= 2 * ((window + 1) * n_masks + 1)
        held = np.array(sorted(counter._ids.values()))
        unheld = np.ones(store._counts.shape[0], dtype=bool)
        unheld[held] = False
        assert not store._counts[unheld].any()
        assert not np.delete(counter._live, held).any()
        assert counter._live[held].all()


def _mirror_snapshot(store):
    return {
        key: {r.tid for r in records} for key, records in store.iter_pairs()
    }


class TestStoreDifferential:
    """The anchor-bit matrix against a ``MemorySkylineStore`` mirror:
    single-bit sets / clears, grouped arrival promotion, demotion
    re-anchoring, multi-cell ``apply_cells`` batches (cells set, moved
    and cleared in one write), unregister, forced compaction and
    ``clear()``, with None dimension values, at one word per cell
    (d = 2, 5) and several (d = 6, 7).  Every read surface — the
    listing, the cells, Invariant-2 skyline rows, the skyline counts
    from the count index and straight from the cells — must agree after
    every op."""

    SUBSPACES = (1, 2, 3)

    @staticmethod
    def _expected_counts(mirror, dims, n_dimensions):
        """``skyline_counts`` from its definition: per (mask, subspace),
        ``|λ_M(σ_C)|`` of the constraint ``C`` binding ``dims`` at the
        mask — at its canonical form ``c`` (a None value is never
        bound): the tuples anchored at ``c`` or an ancestor whose
        values at ``c``'s positions equal ``dims``'s."""
        bindable = bindable_positions(dims)
        anchors = {}
        for (constraint, subspace), records in mirror.iter_pairs():
            for record in records:
                anchors.setdefault((record.tid, subspace), (record, []))[
                    1
                ].append(constraint.bound_mask)
        counts = [[0] * 4 for _ in range(1 << n_dimensions)]
        for (_tid, subspace), (record, masks) in anchors.items():
            for mask in range(1 << n_dimensions):
                canonical = mask & bindable
                if any(a & ~canonical == 0 for a in masks) and all(
                    record.dims[j] == dims[j]
                    for j in range(n_dimensions)
                    if (canonical >> j) & 1
                ):
                    counts[mask][subspace] += 1
        return counts

    def _assert_agree(self, store, mirror, pool, probes, scored):
        want = _mirror_snapshot(mirror)
        assert _mirror_snapshot(store) == want
        assert store.stored_tuple_count() == mirror.stored_tuple_count()
        assert store.counters.stored_tuples == mirror.stored_tuple_count()
        for record in pool:
            row = store.row_of(record.tid)
            for subspace in self.SUBSPACES:
                cell = sum(
                    1 << constraint.bound_mask
                    for (constraint, sub), tids in want.items()
                    if sub == subspace and record.tid in tids
                )
                assert cell == (0 if row is None else store.anchor_cell(subspace, row))
        for constraint, subspace in set(want) | probes:
            # Invariant 2: anchored at C or an ancestor, satisfying C.
            rows = {
                store.row_of(tid)
                for (anchor, sub), tids in want.items()
                if sub == subspace and not anchor.bound_mask & ~constraint.bound_mask
                for tid in tids
                if constraint.satisfied_by(pool[tid])
            }
            assert store.skyline_rows(constraint, subspace).tolist() == sorted(rows)
        if scored:
            n = len(pool[0].dims)
            masks = range(1 << n)
            for dims in {record.dims for record in pool}:
                assert store.skyline_counts(
                    dims, masks
                ).tolist() == self._expected_counts(mirror, dims, n)

    @staticmethod
    def _apply(store, mirror, pool, op):
        """Run one op on both stores; returns the pairs it named."""

        def canonical(record, masks):
            bindable = bindable_positions(record.dims)
            return sorted({mask & bindable for mask in masks})

        kind = op[0]
        probes = set()
        if kind in ("insert", "delete"):
            _, tid, mask, subspace = op
            record = pool[tid]
            constraint = constraint_for_record(record, mask)
            probes.add((constraint, subspace))
            getattr(mirror, kind)(constraint, subspace, record)
            row = store.register(record) if kind == "insert" else store.row_of(tid)
            if row is not None:
                cell = store.anchor_cell(subspace, row)
                bit = 1 << constraint.bound_mask
                store.apply_cells(
                    [subspace], [row], [cell | bit if kind == "insert" else cell & ~bit]
                )
        elif kind == "arrival":
            _, tid, anchors = op
            record = pool[tid]
            stored = any(
                tid in tids for tids in _mirror_snapshot(mirror).values()
            )
            if not stored:
                subspaces = sorted(anchors)
                masks = [canonical(record, anchors[s]) for s in subspaces]
                store.apply_cells(
                    subspaces,
                    [store.register(record)] * len(subspaces),
                    [sum(1 << m for m in ms) for ms in masks],
                )
                for subspace, ms in zip(subspaces, masks):
                    for mask in ms:
                        mirror.insert(
                            constraint_for_record(record, mask),
                            subspace,
                            record,
                        )
        elif kind == "reanchor":
            _, tid, subspace, children = op
            record = pool[tid]
            row = store.row_of(tid)
            old = store.anchor_cell(subspace, row) if row is not None else 0
            if old:
                removed = (old & -old).bit_length() - 1
                children = canonical(record, children)
                store.apply_cells(
                    [subspace],
                    [row],
                    [old & ~(1 << removed) | sum(1 << m for m in children)],
                )
                mirror.delete(
                    constraint_for_record(record, removed), subspace, record
                )
                for mask in children:
                    mirror.insert(
                        constraint_for_record(record, mask), subspace, record
                    )
        elif kind == "apply_cells":
            cells = {
                (pool[tid], subspace): canonical(pool[tid], masks)
                for (tid, subspace), masks in op[1].items()
            }
            store.apply_cells(
                [subspace for _, subspace in cells],
                [store.register(record) for record, _ in cells],
                [sum(1 << m for m in masks) for masks in cells.values()],
            )
            for (record, subspace), masks in cells.items():
                wanted = {constraint_for_record(record, m) for m in masks}
                probes.update((c, subspace) for c in wanted)
                for (constraint, sub), tids in _mirror_snapshot(
                    mirror
                ).items():
                    if sub == subspace and record.tid in tids:
                        if constraint not in wanted:
                            mirror.delete(constraint, subspace, record)
                        wanted.discard(constraint)
                for constraint in wanted:
                    mirror.insert(constraint, subspace, record)
        elif kind == "unregister":
            record = pool[op[1]]
            store.unregister(record.tid)
            for (constraint, subspace), tids in _mirror_snapshot(
                mirror
            ).items():
                if record.tid in tids:
                    mirror.delete(constraint, subspace, record)
            assert store.row_of(record.tid) is None
        elif kind == "compact":
            store.compact()
            assert all(
                store.record_at(row) is not None
                for row in range(store.n_rows)
            )
        else:
            store.clear()
            mirror.clear()
        return probes

    @pytest.mark.parametrize("counts", ["index", "cells"])
    @pytest.mark.parametrize("n_dimensions", [2, 5, 6, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_memory_mirror(self, n_dimensions, counts, data):
        # "cells": every skyline_counts call counts from the anchor-bit
        # matrix, as past the count index's caps.
        cap = 8 if counts == "index" else 0
        with mock.patch.object(columnar_store, "_MAX_INDEXED_MEASURES", cap):
            self._drive(n_dimensions, data)

    def _drive(self, n_dimensions, data):
        pool_dims, ops = data.draw(store_op_sequences(n_dimensions))
        score_from = data.draw(st.integers(min_value=0, max_value=len(ops)))
        pool = [rec(tid, dims=dims) for tid, dims in enumerate(pool_dims)]
        # The store takes each row's constraint ids from the table: it
        # knows the whole pool from the start (and never lets it go).
        counter = ContextCounter(n_dimensions)
        for record in pool:
            counter.register(record)
        store = ColumnarSkylineStore(counter, n_measures=2, initial_capacity=2)
        mirror = MemorySkylineStore()
        self._assert_agree(store, mirror, pool, set(), score_from == 0)
        for step, op in enumerate(ops, start=1):
            probes = self._apply(store, mirror, pool, op)
            self._assert_agree(store, mirror, pool, probes, step >= score_from)
        # Every sequence ends on a compaction that shifts live rows: the
        # lowest live row goes, the rest slide down.
        live = [
            store.record_at(row).tid
            for row in range(store.n_rows)
            if store.record_at(row) is not None
        ]
        for op in [("unregister", tid) for tid in live[:1]] + [("compact",)]:
            self._apply(store, mirror, pool, op)
            self._assert_agree(store, mirror, pool, set(), True)
