"""Property tests for the paper's storage invariants.

* Invariant 1 (BottomUp / SBottomUp): after any stream prefix,
  ``µ_{C,M}`` equals the recomputed contextual skyline ``λ_M(σ_C(R))``
  for every allowed pair touched by any tuple.
* Invariant 2 (TopDown / STopDown): ``µ_{C,M}`` holds a tuple exactly at
  its *maximal* skyline constraints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TableSchema, make_algorithm
from repro.core.constraint import Constraint, satisfied_constraints
from repro.core.lattice import nonempty_subspaces
from repro.core.skyline import contextual_skyline

row_strategy = st.fixed_dictionaries(
    {
        "d0": st.sampled_from(["a", "b", "c"]),
        "d1": st.sampled_from(["x", "y"]),
        "m0": st.integers(min_value=0, max_value=3),
        "m1": st.integers(min_value=0, max_value=3),
    }
)

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def all_touched_constraints(records):
    out = set()
    for record in records:
        out.update(satisfied_constraints(record))
    return out


def maximal_skyline_constraints(records, record, subspace):
    """MSC^t_M recomputed from scratch (Defs. 9-10)."""
    skyline_constraints = set()
    for constraint in satisfied_constraints(record):
        sky = contextual_skyline(records, constraint, subspace)
        if any(r.tid == record.tid for r in sky):
            skyline_constraints.add(constraint)
    return {
        c
        for c in skyline_constraints
        if not any(
            other != c and c.subsumed_by(other) for other in skyline_constraints
        )
    }


class TestInvariant1:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(row_strategy, min_size=1, max_size=14))
    @pytest.mark.parametrize("name", ["bottomup", "sbottomup"])
    def test_store_equals_contextual_skylines(self, name, rows):
        algo = make_algorithm(name, SCHEMA)
        algo.process_stream(rows)
        records = list(algo.table)
        for constraint in all_touched_constraints(records):
            for subspace in nonempty_subspaces(SCHEMA.full_measure_mask):
                expected = {
                    r.tid
                    for r in contextual_skyline(records, constraint, subspace)
                }
                stored = {r.tid for r in algo.store.get(constraint, subspace)}
                assert stored == expected, (constraint, subspace)

    def test_store_after_paper_example(
        self, running_example_schema, running_example_rows
    ):
        algo = make_algorithm("bottomup", running_example_schema)
        algo.process_stream(running_example_rows)
        records = list(algo.table)
        for constraint in all_touched_constraints(records):
            for subspace in (0b01, 0b10, 0b11):
                expected = {
                    r.tid for r in contextual_skyline(records, constraint, subspace)
                }
                stored = {r.tid for r in algo.store.get(constraint, subspace)}
                assert stored == expected


class TestInvariant2:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(row_strategy, min_size=1, max_size=14))
    @pytest.mark.parametrize("name", ["topdown", "stopdown", "svec"])
    def test_store_holds_exactly_maximal_constraints(self, name, rows):
        algo = make_algorithm(name, SCHEMA)
        algo.process_stream(rows)
        records = list(algo.table)
        for subspace in nonempty_subspaces(SCHEMA.full_measure_mask):
            # Expected anchoring, tuple by tuple.
            expected_pairs = set()
            for record in records:
                for c in maximal_skyline_constraints(records, record, subspace):
                    expected_pairs.add((c, record.tid))
            stored_pairs = {
                (constraint, r.tid)
                for (constraint, sub), stored in algo.store.iter_pairs()
                if sub == subspace
                for r in stored
            }
            assert stored_pairs == expected_pairs, subspace

    def test_no_tuple_stored_at_two_comparable_constraints(
        self, gamelog_schema, gamelog_rows
    ):
        """Maximal anchors are pairwise incomparable per tuple."""
        algo = make_algorithm("topdown", gamelog_schema)
        algo.process_stream(gamelog_rows)
        anchors = {}
        for (constraint, subspace), records in algo.store.iter_pairs():
            for r in records:
                anchors.setdefault((r.tid, subspace), []).append(constraint)
        for (_tid, _sub), constraints in anchors.items():
            for i, c1 in enumerate(constraints):
                for c2 in constraints[i + 1 :]:
                    assert not c1.subsumed_by(c2)
                    assert not c2.subsumed_by(c1)


class TestStorageAsymmetry:
    """Fig. 10b's premise: bottom-up stores strictly more references."""

    def test_bottomup_stores_at_least_topdown(self, gamelog_schema, gamelog_rows):
        bu = make_algorithm("bottomup", gamelog_schema)
        td = make_algorithm("topdown", gamelog_schema)
        bu.process_stream(gamelog_rows)
        td.process_stream(gamelog_rows)
        assert bu.stored_tuple_count() >= td.stored_tuple_count()

    def test_sharing_variants_store_identically(
        self, gamelog_schema, gamelog_rows
    ):
        """TopDown and STopDown use the same materialisation scheme
        (§VI-B), as do BottomUp and SBottomUp — when m̂ = m (the full
        space is maintained by both)."""
        for base, shared in (
            ("bottomup", "sbottomup"),
            ("topdown", "stopdown"),
            ("topdown", "svec"),
        ):
            a = make_algorithm(base, gamelog_schema)
            b = make_algorithm(shared, gamelog_schema)
            a.process_stream(gamelog_rows)
            b.process_stream(gamelog_rows)
            snap_a = {
                key: {r.tid for r in recs} for key, recs in a.store.iter_pairs()
            }
            snap_b = {
                key: {r.tid for r in recs} for key, recs in b.store.iter_pairs()
            }
            assert snap_a == snap_b, base
