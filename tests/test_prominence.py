"""Tests for prominence scoring, context counting, and fact ranking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Constraint,
    ContextCounter,
    DiscoveryConfig,
    Record,
    TableSchema,
)
from repro.core.facts import FactSet, SituationalFact
from repro.core.prominence import score_facts, select_reportable

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def rec(tid, dims=("a", "b"), values=(1.0, 1.0)):
    return Record(tid, tuple(dims), tuple(values), tuple(values))


class TestContextCounter:
    def test_register_counts_all_satisfied_constraints(self):
        counter = ContextCounter()
        counter.register(rec(0, ("a", "b")))
        assert counter.count(Constraint((None, None))) == 1
        assert counter.count(Constraint(("a", None))) == 1
        assert counter.count(Constraint(("a", "b"))) == 1
        assert counter.count(Constraint(("z", None))) == 0

    def test_counts_accumulate(self):
        counter = ContextCounter()
        counter.register(rec(0, ("a", "b")))
        counter.register(rec(1, ("a", "c")))
        assert counter.count(Constraint(("a", None))) == 2
        assert counter.count(Constraint(("a", "b"))) == 1

    def test_unregister_reverses(self):
        counter = ContextCounter()
        counter.register(rec(0, ("a", "b")))
        counter.register(rec(1, ("a", "b")))
        counter.unregister(rec(1, ("a", "b")))
        assert counter.count(Constraint(("a", "b"))) == 1
        counter.unregister(rec(0, ("a", "b")))
        assert counter.count(Constraint(("a", "b"))) == 0
        assert len(counter) == 0

    def test_max_bound_cap(self):
        counter = ContextCounter(max_bound_dims=1)
        counter.register(rec(0, ("a", "b")))
        assert counter.count(Constraint(("a", None))) == 1
        assert counter.count(Constraint(("a", "b"))) == 0  # beyond d̂


class TestSituationalFact:
    def test_prominence_ratio(self):
        f = SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 2)
        assert f.prominence == 5.0

    def test_prominence_none_when_unscored(self):
        f = SituationalFact(rec(0), Constraint(("a", None)), 0b1)
        assert f.prominence is None

    def test_prominence_none_when_zero_skyline(self):
        f = SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 0)
        assert f.prominence is None

    def test_describe(self):
        f = SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 2)
        text = f.describe(SCHEMA)
        assert "d0=a" in text and "m0" in text and "prominence=5" in text


class TestFactSet:
    def _facts(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b01, 10, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b01, 4, 2))
        fs.add(SituationalFact(rec(0), Constraint((None, None)), 0b11, 20, 4))
        return fs

    def test_ranked_descending_prominence(self):
        ranked = self._facts().ranked()
        proms = [f.prominence for f in ranked]
        assert proms == sorted(proms, reverse=True)
        assert proms[0] == 10.0

    def test_prominent_threshold_and_ties(self):
        fs = self._facts()
        assert [f.prominence for f in fs.prominent(tau=5)] == [10.0]
        assert fs.prominent(tau=50) == []

    def test_prominent_keeps_all_ties(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b01, 10, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b10, 20, 2))
        winners = fs.prominent(tau=2)
        assert len(winners) == 2  # both at prominence 10

    def test_top_k_with_tie_at_cut(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b01, 9, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b01, 6, 2))
        fs.add(SituationalFact(rec(0), Constraint((None, "b")), 0b10, 3, 1))
        top = fs.top_k(2)
        assert [f.prominence for f in top] == [9.0, 3.0, 3.0]

    def test_pairs_and_contains(self):
        fs = self._facts()
        assert (Constraint(("a", None)), 0b01) in fs
        assert (Constraint(("z", None)), 0b01) not in fs
        assert len(fs.pairs) == 3

    def test_len_and_iter(self):
        fs = self._facts()
        assert len(fs) == 3
        assert len(list(fs)) == 3


class TestScoreAndSelect:
    def test_score_facts_fills_sizes(self):
        counter = ContextCounter()
        r = rec(0, ("a", "b"))
        counter.register(r)
        fs = FactSet(r)
        fs.add_pair(Constraint(("a", None)), 0b1)
        sizes = {(Constraint(("a", None)), 0b1): 1}
        scored = score_facts(fs, counter, sizes)
        (fact,) = list(scored)
        assert fact.context_size == 1
        assert fact.skyline_size == 1
        assert fact.prominence == 1.0

    def test_select_reportable_tau(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b1, 2, 1))
        out = select_reportable(fs, DiscoveryConfig(tau=5))
        assert [f.prominence for f in out] == [10.0]

    def test_select_reportable_top_k(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b1, 2, 1))
        out = select_reportable(fs, DiscoveryConfig(top_k=1))
        assert len(out) == 1 and out[0].prominence == 10.0

    def test_select_reportable_default_ranks_all(self):
        fs = FactSet(rec(0))
        fs.add(SituationalFact(rec(0), Constraint(("a", None)), 0b1, 10, 1))
        fs.add(SituationalFact(rec(0), Constraint(("a", "b")), 0b1, 2, 1))
        out = select_reportable(fs, DiscoveryConfig())
        assert len(out) == 2


class TestFactSetColumns:
    """The columnar FactSet internals: bulk pair/score columns with
    lazy object materialisation."""

    def test_add_pairs_and_iter_pairs_stay_lazy(self):
        fs = FactSet(rec(0))
        pairs = [(Constraint(("a", None)), 0b01), (Constraint((None, "b")), 0b11)]
        fs.add_pairs([c for c, _ in pairs], [m for _, m in pairs])
        assert list(fs.iter_pairs()) == pairs
        assert len(fs) == 2
        assert fs.pairs == set(pairs)
        assert fs._facts is None  # nothing materialised yet

    def test_set_scores_before_materialisation(self):
        fs = FactSet(rec(0))
        fs.add_pair(Constraint(("a", None)), 0b01)
        fs.add_pair(Constraint((None, "b")), 0b11)
        fs.set_scores([10, 20], [2, 4])
        facts = list(fs)
        assert [f.context_size for f in facts] == [10, 20]
        assert [f.skyline_size for f in facts] == [2, 4]
        assert [f.prominence for f in facts] == [5.0, 5.0]

    def test_set_scores_after_materialisation_updates_objects(self):
        fs = FactSet(rec(0))
        fs.add_pair(Constraint(("a", None)), 0b01)
        first = list(fs)[0]
        fs.set_scores([7], [1])
        assert first.context_size == 7 and first.skyline_size == 1
        assert list(fs)[0] is first  # identity preserved

    def test_set_scores_rejects_short_columns(self):
        fs = FactSet(rec(0))
        fs.add_pair(Constraint(("a", None)), 0b01)
        fs.add_pair(Constraint((None, "b")), 0b10)
        with pytest.raises(ValueError):
            fs.set_scores([1], [1])

    def test_add_object_after_pairs_keeps_order_and_scores(self):
        fs = FactSet(rec(0))
        fs.add_pair(Constraint(("a", None)), 0b01)
        pre_scored = SituationalFact(rec(0), Constraint(("a", "b")), 0b01, 4, 2)
        fs.add(pre_scored)
        facts = list(fs)
        assert facts[1] is pre_scored
        assert facts[1].prominence == 2.0
        assert len(fs) == 2


# ----------------------------------------------------------------------
# Columnar selection ≡ the object implementation it replaced
# ----------------------------------------------------------------------
def _object_key(f):
    return (
        -(f.prominence if f.prominence is not None else float("-inf")),
        f.constraint.bound_count,
        bin(f.subspace).count("1"),
    )


def object_ranked(facts):
    """The pre-columnar ``FactSet.ranked``: sort every fact object."""
    return sorted(facts, key=_object_key)


def object_prominent(facts, tau):
    """The pre-columnar ``FactSet.prominent``."""
    scored = [f for f in facts if f.prominence is not None]
    if not scored:
        return []
    best = max(f.prominence for f in scored)
    if best < tau:
        return []
    return [f for f in scored if f.prominence == best]


def object_top_k(facts, k):
    """The pre-columnar ``FactSet.top_k``."""
    ranked = object_ranked(facts)
    if len(ranked) <= k:
        return ranked
    cutoff = ranked[k - 1].prominence
    out = ranked[:k]
    for fact in ranked[k:]:
        if fact.prominence is not None and fact.prominence == cutoff:
            out.append(fact)
        else:
            break
    return out


def object_select(facts, config):
    """The pre-columnar ``select_reportable``."""
    if config.tau is not None:
        return object_prominent(facts, config.tau)
    if config.top_k is not None:
        return object_top_k(facts, config.top_k)
    return object_ranked(facts)


DIM_VALUES = ("a", "b", "c")
#: C^t of the record below, in walk order (⊤ first).
CONS_SEQ = tuple(
    Constraint(tuple(v if (mask >> i) & 1 else None for i, v in enumerate(DIM_VALUES)))
    for mask in (0, 1, 2, 4, 3, 5, 6, 7)
)
RECORD3 = Record(0, DIM_VALUES, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))

#: Small cardinalities so prominences collide (ties at every cut);
#: skyline size 0 / None mean "no prominence".
cell_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),   # position along CONS_SEQ
    st.integers(min_value=1, max_value=7),   # subspace
    st.sampled_from([0, 1, 2, 3, 4, 6, 12]),  # context size
    st.sampled_from([0, 0, 1, 2, 3, 4]),     # skyline size
)

BUILDERS = ("pairs", "cells", "objects", "unscored", "late-pair", "zero-sky")


def build_fact_set(builder, cells):
    """One ``S_t`` over ``cells`` via each construction path; returns
    the set and the reference objects (same order, same scores)."""
    import numpy as np

    fs = FactSet(RECORD3)
    constraints = [CONS_SEQ[p] for p, _, _, _ in cells]
    subspaces = [s for _, s, _, _ in cells]
    context = [c for _, _, c, _ in cells]
    skyline = [k for _, _, _, k in cells]
    if builder == "zero-sky":
        skyline = [0] * len(cells)
    if builder in ("pairs", "late-pair", "zero-sky"):
        fs.add_pairs(constraints, subspaces)
        fs.set_scores(context, skyline)
    elif builder == "cells":
        fs.add_cells(
            CONS_SEQ,
            np.asarray([p for p, _, _, _ in cells], dtype=np.int64),
            np.asarray(subspaces, dtype=np.int64),
        )
        fs.set_scores(np.asarray(context), np.asarray(skyline, dtype=np.intc))
    elif builder == "unscored":
        for constraint, subspace in zip(constraints, subspaces):
            fs.add_pair(constraint, subspace)
        context = skyline = [None] * len(cells)
    reference = [
        SituationalFact(RECORD3, *row)
        for row in zip(constraints, subspaces, context, skyline)
    ]
    if builder == "objects":
        for fact in reference:
            fs.add(fact)
    if builder == "late-pair":
        # A pair arriving after the scoring pass reads as unscored.
        fs.add_pair(CONS_SEQ[3], 0b101)
        reference.append(SituationalFact(RECORD3, CONS_SEQ[3], 0b101))
    return fs, reference


class TestColumnarSelectionMatchesObjects:
    @pytest.mark.parametrize("builder", BUILDERS)
    @settings(max_examples=60, deadline=None)
    @given(cells=st.lists(cell_strategy, min_size=0, max_size=24))
    def test_top_k_tau_grid(self, builder, cells):
        for top_k in (None, 1, 2, 5, 24, 40):
            for tau in (None, 1.0, 2.0, 3.0, 6.0, 1e9):
                config = DiscoveryConfig(tau=tau, top_k=top_k)
                fs, reference = build_fact_set(builder, cells)
                assert select_reportable(fs, config) == object_select(
                    reference, config
                )
        fs, reference = build_fact_set(builder, cells)
        assert fs.ranked() == object_ranked(reference)
        assert list(fs) == reference
        assert len(fs) == len(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.lists(cell_strategy, min_size=1, max_size=24),
        k=st.integers(min_value=1, max_value=30),
    )
    def test_added_objects_are_the_ones_returned(self, cells, k):
        fs, reference = build_fact_set("objects", cells)
        for got in (fs.top_k(k), fs.prominent(1.0), fs.ranked()):
            assert all(
                any(fact is added for added in reference) for fact in got
            )

    def test_selection_after_iteration_returns_the_iterated_objects(self):
        fs, _ = build_fact_set("cells", [(0, 1, 6, 1), (1, 1, 6, 2), (2, 3, 4, 4)])
        seen = list(fs)
        assert fs.top_k(1)[0] is seen[0]
        assert fs.prominent(1.0)[0] is seen[0]

    def test_tau_wins_over_top_k(self):
        """With both set, ``select_reportable`` applies τ alone."""
        fs, _ = build_fact_set("pairs", [(0, 1, 6, 1), (1, 1, 6, 2), (2, 3, 4, 4)])
        both = select_reportable(fs, DiscoveryConfig(tau=2.0, top_k=2))
        assert [f.prominence for f in both] == [6.0]
        assert both == select_reportable(fs, DiscoveryConfig(tau=2.0))
        assert len(select_reportable(fs, DiscoveryConfig(top_k=2))) == 2


class TestOnlyWinnersAreMaterialised:
    """The deterministic de-vectorisation guard: count the fact objects
    the scored columnar path constructs."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        init = SituationalFact.__init__

        def spy(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(SituationalFact, "__init__", spy)
        return count

    def test_top_k_on_a_wide_set_builds_only_what_it_returns(self, built):
        from repro import FactDiscoverer
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        config = DiscoveryConfig(top_k=5)
        engine = FactDiscoverer(
            synthetic_schema(5, 5), algorithm="svec", config=config
        )
        rows = synthetic_rows(256, 5, 5, distribution="independent")
        fact_sets = engine.facts_for_many(rows)
        assert built[0] == 0  # a whole batch discovered and scored: none
        wide = [fs for fs in fact_sets if len(fs) >= 500]
        assert wide
        for fs in wide[-20:]:  # late arrivals: few ties at the cut
            before = built[0]
            reported = select_reportable(fs, config)
            assert 5 <= len(reported) < len(fs) // 4
            assert built[0] - before <= len(reported)
        assert all(fs.cells() is not None for fs in fact_sets)
