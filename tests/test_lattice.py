"""Unit + property tests for the bitmask lattice machinery."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lattice import (
    agreement_mask,
    children_of,
    is_submask,
    iter_submasks,
    iter_supermasks,
    masks_by_level,
    nonempty_subspaces,
    parents_of,
    popcount,
    submask_closure_table,
)

masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


class TestSubmasks:
    def test_enumeration(self):
        assert sorted(iter_submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]

    def test_zero(self):
        assert list(iter_submasks(0)) == [0]

    @given(masks)
    def test_count_is_power_of_two(self, m):
        assert sum(1 for _ in iter_submasks(m)) == 1 << popcount(m)

    @given(masks)
    def test_all_are_submasks(self, m):
        assert all(is_submask(s, m) for s in iter_submasks(m))


class TestSupermasks:
    def test_enumeration(self):
        assert sorted(iter_supermasks(0b001, 0b111)) == [0b001, 0b011, 0b101, 0b111]

    @given(masks, masks)
    def test_supermasks_within_universe(self, m, u):
        universe = m | u  # ensure m fits inside
        sups = list(iter_supermasks(m, universe))
        assert all(is_submask(m, s) and is_submask(s, universe) for s in sups)
        assert len(sups) == 1 << popcount(universe & ~m)


class TestNeighbours:
    def test_parents(self):
        assert sorted(parents_of(0b110)) == [0b010, 0b100]

    def test_children(self):
        assert sorted(children_of(0b001, 0b111)) == [0b011, 0b101]

    @given(masks)
    def test_parent_child_inverse(self, m):
        universe = (1 << 6) - 1
        for p in parents_of(m):
            assert m in set(children_of(p, universe))


class TestLevels:
    def test_masks_by_level_partition(self):
        levels = masks_by_level(4)
        assert sum(len(level) for level in levels) == 16
        for k, level in enumerate(levels):
            assert all(popcount(m) == k for m in level)

    @pytest.mark.parametrize("n_bits", range(6))
    def test_level_sizes_are_binomial(self, n_bits):
        levels = masks_by_level(n_bits)
        assert len(levels) == n_bits + 1
        assert [len(level) for level in levels] == [
            comb(n_bits, k) for k in range(n_bits + 1)
        ]
        assert levels[0] == (0,)
        assert levels[-1] == ((1 << n_bits) - 1,)
        for level in levels:
            assert list(level) == sorted(level)


class TestClosureTable:
    def test_small_table(self):
        table = submask_closure_table(2)
        # closure(0b11) covers masks {00, 01, 10, 11} → bits 0..3 set.
        assert table[0b11] == 0b1111
        assert table[0b01] == 0b0011
        assert table[0b00] == 0b0001

    @given(st.integers(min_value=0, max_value=(1 << 5) - 1))
    def test_matches_enumeration(self, m):
        table = submask_closure_table(5)
        expected = 0
        for s in iter_submasks(m):
            expected |= 1 << s
        assert table[m] == expected


class TestAgreement:
    def test_agreement_positions(self):
        assert agreement_mask(("a", "b", "c"), ("a", "x", "c")) == 0b101

    def test_no_agreement(self):
        assert agreement_mask(("a",), ("b",)) == 0

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
    def test_self_agreement_is_full(self, dims):
        assert agreement_mask(dims, dims) == (1 << len(dims)) - 1


class TestSubspaces:
    def test_nonempty_excludes_zero(self):
        subs = nonempty_subspaces(0b111)
        assert 0 not in subs
        assert len(subs) == 7

    def test_full_space_first(self):
        assert nonempty_subspaces(0b111)[0] == 0b111

    def test_max_size_cap(self):
        subs = nonempty_subspaces(0b111, max_size=2)
        assert all(popcount(m) <= 2 for m in subs)
        assert len(subs) == 6
