"""Tests for the columnar store subsystem and the ``svec`` engine.

Generic store semantics are covered by the parametrised fixture in
``test_stores.py``; here we test what is *specific* to the columnar
pieces — the column arrays, interning, ``grow_2d``, the anchor-mask
index — and the strong ``svec`` ≡ ``stopdown`` equivalence (facts,
stores, *and* counters) on randomized streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryConfig, TableSchema, make_algorithm
from repro.core.constraint import Constraint
from repro.core.record import Record
from repro.storage import ColumnarSkylineStore, MemorySkylineStore, grow_2d

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

row_strategy = st.fixed_dictionaries(
    {
        "d0": st.sampled_from(["a", "b", "c"]),
        "d1": st.sampled_from(["x", "y"]),
        "m0": st.integers(min_value=0, max_value=4),
        "m1": st.integers(min_value=0, max_value=4),
    }
)


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


class TestColumnarSubstrate:
    def test_register_is_idempotent_per_tid(self):
        store = ColumnarSkylineStore()
        r = rec(0)
        assert store.register(r) == store.register(r) == 0
        assert store.n_rows == 1

    def test_columns_reflect_registered_records(self):
        store = ColumnarSkylineStore()
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
        store = ColumnarSkylineStore()
        store.register(rec(0, dims=("a", "x")))
        probe = store.intern_dims(("a", "z"))
        assert probe[0] == store.dims_matrix()[0, 0]
        assert probe[1] != store.dims_matrix()[0, 1]

    def test_growth_preserves_history(self):
        store = ColumnarSkylineStore(initial_capacity=4)
        for tid in range(40):
            store.register(rec(tid, raw=(tid, -tid)))
        assert store.n_rows == 40
        assert store.values_matrix()[17, 0] == 17.0

    def test_reserve_grows_once(self):
        store = ColumnarSkylineStore(
            n_dimensions=2, n_measures=2, initial_capacity=4
        )
        store.reserve(100)
        cap = store._values.shape[0]
        assert cap >= 100
        for tid in range(80):
            store.register(rec(tid))
        assert store._values.shape[0] == cap

    def test_rows_returns_membership_in_insertion_order(self):
        store = ColumnarSkylineStore()
        c = Constraint(("a", None))
        store.insert(c, 0b11, rec(3))
        store.insert(c, 0b11, rec(1))
        assert store.rows(c, 0b11).tolist() == [0, 1]
        assert [r.tid for r in store.get(c, 0b11)] == [3, 1]

    def test_record_at_roundtrip(self):
        store = ColumnarSkylineStore()
        r = rec(7)
        row = store.register(r)
        assert store.record_at(row) is r

    def test_anchor_masks_track_insert_delete(self):
        store = ColumnarSkylineStore()
        r = rec(0)
        c1 = Constraint(("a", None))
        c2 = Constraint(("a", "x"))
        store.insert(c1, 0b01, r)
        store.insert(c2, 0b01, r)
        assert store.anchor_masks(0, 0b01) == {0b01, 0b11}
        store.delete(c1, 0b01, r)
        assert store.anchor_masks(0, 0b01) == {0b11}
        store.delete(c2, 0b01, r)
        assert store.anchor_masks(0, 0b01) == frozenset()

    def test_memory_store_has_no_anchor_index(self):
        assert MemorySkylineStore().anchor_masks(0, 0b01) is None

    def test_clear_resets_columns_and_index(self):
        store = ColumnarSkylineStore()
        store.insert(Constraint(("a", None)), 0b01, rec(0))
        store.clear()
        assert store.n_rows == 0
        assert store.stored_tuple_count() == 0
        assert store.anchor_masks(0, 0b01) == frozenset()

    def test_approx_bytes_counts_columns(self):
        store = ColumnarSkylineStore()
        assert store.approx_bytes() == 0
        store.insert(Constraint(("a", None)), 0b01, rec(0))
        assert store.approx_bytes() > 0


class TestSVecEquivalence:
    """svec ≡ stopdown: facts, store contents, and counters."""

    def _snapshot(self, algo):
        return {
            key: {r.tid for r in recs} for key, recs in algo.store.iter_pairs()
        }

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


class TestAnchorBitsets:
    """The per-row anchor bitset columns mirror the set-based reverse
    index exactly, through inserts, deletes, grouped inserts, netted
    re-anchoring, and retraction row shifts."""

    @staticmethod
    def _assert_bits_match_anchors(store):
        n = store.n_rows
        subspaces = {sub for (_, sub) in store._anchors}
        for subspace in subspaces:
            bits = store.anchor_bits(subspace, n)
            assert bits is not None
            for row in range(n):
                record = store.record_at(row)
                expected = 0
                if record is not None:  # tombstones are never anchored
                    for mask in store.anchor_masks(record.tid, subspace):
                        expected |= 1 << mask
                assert int(bits[row]) == expected, (subspace, row)

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {
                    "d0": st.sampled_from(["a", "b", None]),
                    "d1": st.sampled_from(["x", "y"]),
                    "m0": st.integers(min_value=0, max_value=3),
                    "m1": st.integers(min_value=0, max_value=3),
                }
            ),
            min_size=1,
            max_size=16,
        ),
        n_deletes=st.integers(min_value=0, max_value=3),
    )
    def test_bits_track_anchor_sets(self, rows, n_deletes):
        vec = make_algorithm("svec", SCHEMA)
        vec.process_many(rows)
        self._assert_bits_match_anchors(vec.store)
        for tid in range(min(n_deletes, len(rows))):
            vec.retract(tid)
        self._assert_bits_match_anchors(vec.store)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)],
                             ids=["subspace-grouped", "interleaved"])
    def test_insert_new_many_equals_insert_sequence(self, order):
        record = rec(0)
        pairs = [
            (Constraint(("a", None)), 0b11),
            (Constraint((None, "x")), 0b11),
            (Constraint(("a", None)), 0b01),
        ]
        pairs = [pairs[i] for i in order]
        grouped = ColumnarSkylineStore()
        sequential = ColumnarSkylineStore()
        for store in (grouped, sequential):
            store.register(record)
            store.skyline_counts(record.dims, ())  # activate flip maintenance
        grouped.insert_new_many(record, pairs)
        for constraint, subspace in pairs:
            sequential.insert(constraint, subspace, record)
        masks = range(4)
        assert (
            grouped.skyline_counts(record.dims, masks).tolist()
            == sequential.skyline_counts(record.dims, masks).tolist()
        )
        assert grouped.skyline_counts(record.dims, masks)[:, [0b11, 0b01]].tolist() == [
            [0, 0], [1, 1], [1, 0], [1, 1],
        ]
        assert {
            key: {r.tid for r in records}
            for key, records in grouped.iter_pairs()
        } == {
            key: {r.tid for r in records}
            for key, records in sequential.iter_pairs()
        }
        assert grouped.stored_tuple_count() == sequential.stored_tuple_count()
        for subspace in (0b11, 0b01):
            assert grouped.anchor_masks(0, subspace) == sequential.anchor_masks(
                0, subspace
            )
            gbits = grouped.anchor_bits(subspace, 1)
            sbits = sequential.anchor_bits(subspace, 1)
            assert int(gbits[0]) == int(sbits[0])

    def test_reanchor_demoted_equals_delete_plus_inserts(self):
        top = Constraint((None, None))
        children = [Constraint(("a", None)), Constraint((None, "x"))]
        record = rec(7)

        def build():
            store = ColumnarSkylineStore()
            store.insert(top, 0b11, record)
            store.skyline_counts(record.dims, ())  # activate flip maintenance
            return store

        netted = build()
        row = netted.row_of(7)
        netted.reanchor_demoted(0b11, record, row, top, children)
        sequential = build()
        sequential.delete(top, 0b11, record)
        for child in children:
            sequential.insert(child, 0b11, record)
        assert {
            key: {r.tid for r in records}
            for key, records in netted.iter_pairs()
        } == {
            key: {r.tid for r in records}
            for key, records in sequential.iter_pairs()
        }
        assert netted.anchor_masks(7, 0b11) == sequential.anchor_masks(7, 0b11)
        # The index layout is the store's business: compare through the
        # public probe, over every (subspace, mask, key) — the record's
        # own dims and a combination no stored tuple carries.
        masks = range(1 << len(record.dims))
        for dims in (record.dims, ("b", "y"), ("a", "y")):
            assert (
                netted.skyline_counts(dims, masks).tolist()
                == sequential.skyline_counts(dims, masks).tolist()
            )
        assert netted.skyline_counts(record.dims, masks)[:, 0b11].tolist() == [
            0, 1, 1, 1,
        ]
        assert netted.stored_tuple_count() == sequential.stored_tuple_count()
