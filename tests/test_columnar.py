"""Tests for the columnar store subsystem and the ``svec`` engine.

The columnar pieces — the column arrays, interning, ``grow_2d``, the
anchor-bit matrix behind the cell surface (``apply_cells`` /
``anchor_cell`` / ``skyline_rows`` / ``skyline_counts`` /
``iter_pairs``, differentially against a ``MemorySkylineStore``
mirror) — and the strong ``svec`` ≡ ``stopdown`` equivalence (facts,
stores, *and* counters) on randomized streams.
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
from repro.core.record import Record
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.metrics.counters import OpCounters
from repro.storage import ColumnarSkylineStore, MemorySkylineStore, grow_2d
from repro.storage import columnar_store
from tests.strategies import (
    row_strategy,
    store_op_sequences,
    stream_scenarios,
    sweep_constants,
)

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
    measures)."""
    return ColumnarSkylineStore(n_dimensions=2, n_measures=2, **kwargs)


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
        arrays = 8 * (2 * 8 + 2 * 4) + store._cells.nbytes
        containers = sys.getsizeof(store._records) + sys.getsizeof(
            store._row_of
        )
        assert store._cells.shape[1:] == (8, 1)
        assert store.approx_bytes() == arrays + containers
        # The scoring index joins once built: the count matrix (64
        # slots of 2^|M| int32 to start with) and its refcounts, one
        # slot id per (allocated row, mask), the up-closure byte table
        # (4 bytes per cell x 256 values x 1 word), and the key table —
        # one slot per mask of the one value combination here, keyed by
        # 2 x int32 as bytes.
        store.skyline_counts(("a", "x"), (0b01,))
        table = store._slot_table
        assert len(table) == 4
        index = (
            64 * 4 * 4
            + 64 * 4
            + 8 * 4 * 4
            + 4 * 256 * 4
            + sys.getsizeof(table)
            + 4 * (sys.getsizeof(bytes(8)) + sys.getsizeof(1))
        )
        assert store.approx_bytes() == arrays + containers + index

    def test_approx_bytes_tracks_traced_allocations(self):
        """``approx_bytes`` against ``tracemalloc``'s view of what the
        store module holds after a scored 300-row d4 m4 stream."""
        import gc
        import tracemalloc

        from repro import FactDiscoverer
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
        from repro import FactDiscoverer

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


def _store_contents(algos):
    """``{(constraint, subspace): tids}`` over the stores of ``algos``
    (one algorithm, or the shards of a partition)."""
    return {
        key: {r.tid for r in recs}
        for algo in algos
        for key, recs in algo.store.iter_pairs()
    }


class TestSVecEquivalence:
    """svec ≡ stopdown: facts, store contents, and counters."""

    def _snapshot(self, algo):
        return _store_contents([algo])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(row_strategy, min_size=1, max_size=16))
    def test_matches_stopdown_exactly(self, rows):
        ref = make_algorithm("stopdown", SCHEMA)
        vec = make_algorithm("svec", SCHEMA)
        expected = [fs.pairs for fs in ref.process_stream(rows)]
        got = [fs.pairs for fs in vec.process_stream(rows)]
        assert got == expected
        assert self._snapshot(vec) == self._snapshot(ref)
        assert vec.counters.snapshot() == ref.counters.snapshot()

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(row_strategy, min_size=1, max_size=12),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    def test_matches_stopdown_under_caps(self, rows, dhat, mhat):
        cfg = DiscoveryConfig(max_bound_dims=dhat, max_measure_dims=mhat)
        ref = make_algorithm("stopdown", SCHEMA, cfg)
        vec = make_algorithm("svec", SCHEMA, cfg)
        expected = [fs.pairs for fs in ref.process_stream(rows)]
        got = [fs.pairs for fs in vec.process_stream(rows)]
        assert got == expected
        assert self._snapshot(vec) == self._snapshot(ref)

    def test_matches_on_paper_example(self, gamelog_schema, gamelog_rows):
        ref = make_algorithm("stopdown", gamelog_schema)
        vec = make_algorithm("svec", gamelog_schema)
        expected = [fs.pairs for fs in ref.process_stream(gamelog_rows)]
        got = [fs.pairs for fs in vec.process_stream(gamelog_rows)]
        assert got == expected
        assert self._snapshot(vec) == self._snapshot(ref)
        assert vec.counters.snapshot() == ref.counters.snapshot()

    @settings(max_examples=10, deadline=None)
    @given(st.lists(row_strategy, min_size=2, max_size=12))
    def test_retraction_matches_stopdown(self, rows):
        ref = make_algorithm("stopdown", SCHEMA)
        vec = make_algorithm("svec", SCHEMA)
        ref.process_stream(rows)
        vec.process_stream(rows)
        tid = len(rows) // 2
        ref.retract(tid)
        vec.retract(tid)
        assert self._snapshot(vec) == self._snapshot(ref)
        probe = rows[0]
        assert vec.process(probe).pairs == ref.process(probe).pairs


class TestStreamEquivalence:
    """``svec`` ≡ ``stopdown`` ≡ ``bruteforce`` over the shared stream
    corpus: every lattice width the walk serves (one to four words per
    anchor cell), d̂ / m̂ caps, None-heavy rows, interleaved deletes, a
    subspace-sharded ``svec`` beside the whole one — checked after
    every op, on either side of the sweep index's arming constant."""

    @pytest.mark.parametrize("arm_rows", [None, 4], ids=["dense", "armed"])
    @settings(max_examples=40, deadline=None)
    @given(scenario=stream_scenarios())
    def test_every_op_matches_stopdown_and_bruteforce(self, scenario, arm_rows):
        if arm_rows is None:
            self._drive(scenario)
        else:
            with sweep_constants(arm_rows):
                self._drive(scenario)

    @staticmethod
    def _drive(scenario):
        schema, config, ops, shard_of = scenario
        ref = make_algorithm("stopdown", schema, config)
        vec = make_algorithm("svec", schema, config)
        brute = make_algorithm("bruteforce", schema, config)
        partition = {}
        for key in vec.maintained_subspaces():
            partition.setdefault(shard_of[key - 1], []).append(key)
        shards = [
            make_algorithm("svec", schema, config, shard_subspaces=keys)
            for keys in partition.values()
        ]
        assert sum(shard._has_root for shard in shards) == 1
        engines = [
            FactDiscoverer(schema, algorithm=name, config=config)
            for name in ("svec", "stopdown")
        ]
        live = []
        for op in ops:
            if isinstance(op, dict):
                live.append(ref.table.arrivals)
                want = list(ref.process(op).iter_pairs())
                # Emission order, collapsed duplicate positions included.
                assert list(vec.process(op).iter_pairs()) == want
                assert list(brute.process(op).iter_pairs()) == want
                sharded = Counter(
                    pair
                    for shard in shards
                    for pair in shard.process(op).iter_pairs()
                )
                assert sharded == Counter(want)
                scored = [
                    [
                        (f.constraint, f.subspace, f.context_size, f.skyline_size)
                        for f in engine.facts_for(op)
                    ]
                    for engine in engines
                ]
                assert scored[0] == scored[1]
                assert [row[:2] for row in scored[0]] == want
            elif len(live) > 1:
                tid = live.pop(op % len(live))
                for algo in (ref, vec, brute, *shards):
                    algo.retract(tid)
                for engine in engines:
                    engine.delete(tid)
            assert _store_contents([vec]) == _store_contents([ref])
            assert _store_contents(shards) == _store_contents([ref])
            assert vec.counters.snapshot() == ref.counters.snapshot()
            total = sum((shard.counters for shard in shards), OpCounters())
            assert total.snapshot() == ref.counters.snapshot()
            assert engines[0].counters.snapshot() == engines[1].counters.snapshot()


class TestNoPythonPerRow:
    """The walk is the only discovery body at every shape: no arrival
    builds a ``Constraint`` outside the ``C^t`` memo or probes the
    anchor matrix cell by cell, and no retraction — None-carrying
    victims included — takes the scalar repair."""

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
        in_memo = []

        def counted(inner, name, allowed=lambda: False):
            def spy(*args, **kwargs):
                if not allowed():
                    tally[name] += 1
                return inner(*args, **kwargs)

            return spy

        def memo(record, inner=vec.constraint_cache):
            in_memo.append(record)
            try:
                return inner(record)
            finally:
                in_memo.pop()

        init, fast = Constraint.__init__, Constraint.from_values_mask.__func__
        monkeypatch.setattr(
            Constraint, "__init__", counted(init, "Constraint", lambda: in_memo)
        )
        monkeypatch.setattr(
            Constraint,
            "from_values_mask",
            classmethod(counted(fast, "Constraint", lambda: in_memo)),
        )
        monkeypatch.setattr(vec, "constraint_cache", memo)
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
        for row in rows:
            tally.clear()
            vec.process(row)
            assert tally["Constraint"] == 0
            # Cell-by-cell reads, if any, stay within the demoted cells.
            assert tally["anchor_cell"] <= tally["written"]
        victims = list(range(0, 300, 6))
        if none_share:
            assert any(None in rows[tid].values() for tid in victims)
        for tid in victims:
            tally.clear()
            vec.retract(tid)
            assert tally["Constraint"] == 0


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
    def test_requires_columnar_store(self):
        from repro.algorithms.s_vectorized import SVectorized

        with pytest.raises(TypeError, match="ColumnarSkylineStore"):
            SVectorized(SCHEMA, store=MemorySkylineStore())

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
        store = ColumnarSkylineStore(n_dimensions=2, n_measures=2)
        row = store.register(rec(0))
        store.apply_cells([1], [row], [0b0001])
        with pytest.raises(ValueError, match="repeats"):
            store.apply_cells([1, 2, 1], [row, row, row], [0b0010, 1, 0b0100])
        # Rejected before anything was written.
        assert store.anchor_cell(1, row) == 0b0001
        assert store.anchor_cell(2, row) == 0
        assert store.stored_tuple_count() == 1

    def test_slot_table_is_bounded_by_the_live_rows(self):
        """A window over a stream whose dimension values never repeat:
        every arrival brings 2^|D| - 1 new value combinations, so the
        scoring index must give its slots back as rows leave."""
        from repro import FactDiscoverer

        schema = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))
        engine = FactDiscoverer(
            schema, algorithm="svec", config=DiscoveryConfig(top_k=3)
        )
        store = engine.algorithm.store
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
        table = store._slot_table
        assert len(table) <= live * n_masks + 1
        # Slots are recycled, not leaked: the count matrix never grew
        # past what window + 1 simultaneous rows can hold, and nothing
        # is counted outside the slots the live rows hold.
        assert store._counts.shape[0] <= 2 * ((window + 1) * n_masks + 1)
        unheld = np.ones(store._counts.shape[0], dtype=bool)
        unheld[list(table.values())] = False
        assert not store._counts[unheld].any()
        assert not store._slot_refs[unheld].any()
        assert store._slot_refs[~unheld].all()


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
        the tuples anchored at the mask or an ancestor whose values at
        the mask's positions equal ``dims``'s."""
        anchors = {}
        for (constraint, subspace), records in mirror.iter_pairs():
            for record in records:
                anchors.setdefault((record.tid, subspace), (record, []))[
                    1
                ].append(constraint.bound_mask)
        counts = [[0] * 4 for _ in range(1 << n_dimensions)]
        for (_tid, subspace), (record, masks) in anchors.items():
            for mask in range(1 << n_dimensions):
                if any(a & ~mask == 0 for a in masks) and all(
                    record.dims[j] == dims[j]
                    for j in range(n_dimensions)
                    if (mask >> j) & 1
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
        store = ColumnarSkylineStore(
            n_dimensions=n_dimensions, n_measures=2, initial_capacity=2
        )
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
