"""Structural properties every correct ``S_t`` must satisfy.

These are theorem-level checks derived from the paper's propositions,
tested on randomized streams independently of any specific algorithm
pairing (the equivalence suite already ties all algorithms together, so
we run the cheapest store-maintaining one).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryConfig, FactDiscoverer, TableSchema, make_algorithm
from repro.core.constraint import Constraint, constraint_for_record
from repro.core.lattice import iter_supermasks
from tests.strategies import row_strategy

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

streams = st.lists(row_strategy, min_size=1, max_size=16)


class TestSkylineConstraintStructure:
    @settings(max_examples=25, deadline=None)
    @given(streams)
    def test_facts_are_down_closed_per_subspace(self, rows):
        """Prop. 2 corollary: if t is a skyline tuple at (C, M), it is
        one at every more specific constraint it satisfies — S_t's
        constraint sets are down-closed within C^t."""
        algo = make_algorithm("sbottomup", SCHEMA)
        universe = (1 << SCHEMA.n_dimensions) - 1
        for row in rows:
            record = algo.table.make_record(row)
            facts = algo.process(record)
            by_subspace = {}
            for c, m in facts.pairs:
                by_subspace.setdefault(m, set()).add(c.bound_mask)
            for m, masks in by_subspace.items():
                for mask in masks:
                    for sup in iter_supermasks(mask, universe):
                        assert sup in masks, (mask, sup, m)

    @settings(max_examples=25, deadline=None)
    @given(streams)
    def test_bottom_constraint_in_st_unless_twin_dominated(self, rows):
        """⊥(C^t) = the tuple's own full constraint: t can only lose
        there to a tuple with identical dimensions."""
        algo = make_algorithm("sbottomup", SCHEMA)
        full = SCHEMA.full_measure_mask
        for row in rows:
            record = algo.table.make_record(row)
            history = list(algo.table)
            facts = algo.process(record)
            bottom = constraint_for_record(record, (1 << SCHEMA.n_dimensions) - 1)
            if (bottom, full) not in facts.pairs:
                from repro.core.dominance import dominates

                assert any(
                    other.dims == record.dims and dominates(other, record, full)
                    for other in history
                )

    @settings(max_examples=20, deadline=None)
    @given(streams)
    def test_subspace_count_consistency(self, rows):
        """For fixed C, the number of fact subspaces never exceeds the
        subspace universe, and every reported subspace is non-empty."""
        algo = make_algorithm("stopdown", SCHEMA)
        for facts in algo.process_stream(rows):
            for _c, m in facts.pairs:
                assert 0 < m <= SCHEMA.full_measure_mask


class TestProminenceProperties:
    @settings(max_examples=15, deadline=None)
    @given(streams)
    def test_prominence_at_least_one(self, rows):
        """Context contains at least its skyline: ratio ≥ 1."""
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        for row in rows:
            for fact in engine.facts_for(row):
                assert fact.prominence is not None
                assert fact.prominence >= 1.0

    @settings(max_examples=15, deadline=None)
    @given(streams)
    def test_context_size_monotone_in_generality(self, rows):
        """C1 ⊑ C2 ⇒ |σ_C1| ≤ |σ_C2| on reported facts."""
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        for row in rows:
            facts = list(engine.facts_for(row))
            by_pair = {(f.constraint, f.subspace): f for f in facts}
            for f in facts:
                for parent in f.constraint.parents():
                    parent_fact = by_pair.get((parent, f.subspace))
                    if parent_fact is not None:
                        assert parent_fact.context_size >= f.context_size

    @settings(max_examples=15, deadline=None)
    @given(streams)
    def test_new_tuple_counts_itself(self, rows):
        """Every fact's context includes the new tuple: size ≥ 1, and
        the skyline it is part of is non-empty."""
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        for row in rows:
            for fact in engine.facts_for(row):
                assert fact.context_size >= 1
                assert fact.skyline_size >= 1


class TestCapMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(streams)
    def test_tightening_caps_only_removes_facts(self, rows):
        """S_t under (d̂', m̂') ⊆ S_t under (d̂, m̂) when d̂' ≤ d̂, m̂' ≤ m̂,
        restricted to allowed pairs."""
        loose = make_algorithm("stopdown", SCHEMA, DiscoveryConfig())
        tight = make_algorithm(
            "stopdown", SCHEMA, DiscoveryConfig(max_bound_dims=1, max_measure_dims=1)
        )
        for row in rows:
            got_loose = loose.process(dict(row)).pairs
            got_tight = tight.process(dict(row)).pairs
            assert got_tight <= got_loose
            for c, m in got_tight:
                assert c.bound_count <= 1
                assert bin(m).count("1") <= 1
