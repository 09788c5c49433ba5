"""Unit + property tests for dominance and Proposition 4."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.dominance import (
    ComparisonOutcome,
    compare,
    dominated_by_any,
    dominates,
    measure_projection,
)
from repro.core.lattice import iter_submasks
from repro.core.record import Record


def rec(tid, *values):
    vals = tuple(float(v) for v in values)
    return Record(tid, ("x",), vals, vals)


vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates(rec(0, 3, 3), rec(1, 1, 1), 0b11)

    def test_equal_tuples_do_not_dominate(self):
        assert not dominates(rec(0, 2, 2), rec(1, 2, 2), 0b11)

    def test_needs_strictness_on_one_attribute(self):
        assert dominates(rec(0, 2, 3), rec(1, 2, 2), 0b11)

    def test_incomparable(self):
        assert not dominates(rec(0, 3, 1), rec(1, 1, 3), 0b11)
        assert not dominates(rec(1, 1, 3), rec(0, 3, 1), 0b11)

    def test_subspace_restriction(self):
        a, b = rec(0, 5, 0), rec(1, 1, 9)
        assert dominates(a, b, 0b01)  # m1 only
        assert dominates(b, a, 0b10)  # m2 only
        assert not dominates(a, b, 0b11)

    def test_empty_subspace_never_dominates(self):
        assert not dominates(rec(0, 9, 9), rec(1, 0, 0), 0)

    @given(vectors, vectors)
    def test_antisymmetry(self, u, v):
        a, b = rec(0, *u), rec(1, *v)
        full = 0b111
        assert not (dominates(a, b, full) and dominates(b, a, full))

    @given(vectors, vectors, vectors)
    def test_transitivity(self, u, v, w):
        a, b, c = rec(0, *u), rec(1, *v), rec(2, *w)
        full = 0b111
        if dominates(a, b, full) and dominates(b, c, full):
            assert dominates(a, c, full)


class TestProposition4:
    def test_partition_masks(self):
        out = compare(rec(0, 3, 1, 2), rec(1, 1, 5, 2))
        assert out.gt == 0b001
        assert out.lt == 0b010
        assert out.eq == 0b100

    @given(vectors, vectors)
    def test_partition_is_disjoint_cover(self, u, v):
        out = compare(rec(0, *u), rec(1, *v))
        assert out.gt | out.lt | out.eq == 0b111
        assert out.gt & out.lt == 0
        assert out.gt & out.eq == 0
        assert out.lt & out.eq == 0

    @given(vectors, vectors)
    def test_prop4_matches_direct_dominance(self, u, v):
        """t ≺_M t' iff M∩M< ≠ ∅ and M∩M> = ∅, for every subspace M."""
        t, other = rec(0, *u), rec(1, *v)
        out = compare(t, other)
        for subspace in range(1, 1 << 3):
            assert out.dominated_in(subspace) == dominates(other, t, subspace)
            assert out.dominates_in(subspace) == dominates(t, other, subspace)

    @given(vectors, vectors)
    def test_dominated_subspaces_enumerate_prop4(self, u, v):
        """The subspaces where t is dominated are exactly the subsets of
        M< ∪ M= that meet M<."""
        out = compare(rec(0, *u), rec(1, *v))
        enumerated = {m for m in iter_submasks(out.lt | out.eq) if m & out.lt}
        assert {
            m for m in range(1, 1 << 3) if out.dominated_in(m)
        } == enumerated

    @given(vectors, vectors)
    def test_dominating_subspaces_enumerate_prop4(self, u, v):
        """Mirror image: t dominates in exactly the subsets of M> ∪ M=
        that meet M>."""
        out = compare(rec(0, *u), rec(1, *v))
        enumerated = {m for m in iter_submasks(out.gt | out.eq) if m & out.gt}
        assert {
            m for m in range(1, 1 << 3) if out.dominates_in(m)
        } == enumerated


class TestHelpers:
    def test_dominated_by_any(self):
        t = rec(0, 1, 1)
        assert dominated_by_any(t, [rec(1, 0, 0), rec(2, 2, 2)], 0b11)
        assert not dominated_by_any(t, [rec(1, 0, 0)], 0b11)

    def test_measure_projection(self):
        assert measure_projection(rec(0, 1, 2, 3), 0b101) == (1.0, 3.0)
        assert measure_projection(rec(0, 1, 2, 3), 0) == ()
