"""Tests for prominence scoring, context counting, and fact ranking."""

import numpy as np
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
from repro.core.constraint import constraint_for_record
from repro.core.facts import FactSet, SituationalFact
from repro.core.prominence import select_reportable
from repro.query import QueryPlan

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def rec(tid, dims=("a", "b"), values=(1.0, 1.0)):
    return Record(tid, tuple(dims), tuple(values), tuple(values))


class TestContextCounter:
    def test_register_counts_all_satisfied_constraints(self):
        counter = ContextCounter(2)
        counter.register(rec(0, ("a", "b")))
        assert counter.count(Constraint((None, None))) == 1
        assert counter.count(Constraint(("a", None))) == 1
        assert counter.count(Constraint(("a", "b"))) == 1
        assert counter.count(Constraint(("z", None))) == 0

    def test_counts_accumulate(self):
        counter = ContextCounter(2)
        counter.register(rec(0, ("a", "b")))
        counter.register(rec(1, ("a", "c")))
        assert counter.count(Constraint(("a", None))) == 2
        assert counter.count(Constraint(("a", "b"))) == 1

    def test_unregister_reverses(self):
        counter = ContextCounter(2)
        counter.register(rec(0, ("a", "b")))
        counter.register(rec(1, ("a", "b")))
        counter.unregister(rec(1, ("a", "b")))
        assert counter.count(Constraint(("a", "b"))) == 1
        counter.unregister(rec(0, ("a", "b")))
        assert counter.count(Constraint(("a", "b"))) == 0
        assert len(counter) == 0

    def test_max_bound_cap(self):
        counter = ContextCounter(2, max_bound_dims=1)
        counter.register(rec(0, ("a", "b")))
        assert counter.count(Constraint(("a", None))) == 1
        assert counter.count(Constraint(("a", "b"))) == 0  # beyond d̂
        assert counter.covers(Constraint(("a", None)))
        assert not counter.covers(Constraint(("a", "b")))

    def test_none_rows_count_each_distinct_constraint_once(self):
        """A None dimension collapses masks onto one constraint; the
        row is one tuple of that context, not one per covering mask —
        and the count stays exact, so the counter covers it."""
        counter = ContextCounter(2)
        counter.register(rec(0, ("x", None)))
        counter.register(rec(1, ("x", None)))
        assert counter.count(Constraint((None, None))) == 2
        assert counter.count(Constraint(("x", None))) == 2
        assert counter.covers(Constraint(("x", None)))
        # counts_for_dims stays parallel to the masks (⊤, d0, d1, d0d1).
        assert counter.counts_for_dims(("x", None)) == [2, 2, 2, 2]
        counter.register(rec(2, ("x", "y")))
        assert counter.counts_for_dims(("x", "y")) == [3, 3, 1, 1]
        counter.unregister(rec(0, ("x", None)))
        counter.unregister(rec(1, ("x", None)))
        assert counter.counts_for_dims(("x", "y")) == [1, 1, 1, 1]
        assert len(counter) == 4


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


def cell_set(record, rows):
    """``S_t`` of ``record`` in its one form: ``rows`` are ``(C, M)``
    pairs, or ``(C, M, |σ_C|, |λ_M|)`` to score the set as well."""
    cons_seq = [
        constraint_for_record(record, mask)
        for mask in ContextCounter(len(record.dims)).masks
    ]
    fs = FactSet(record)
    fs.add_cells(
        cons_seq,
        np.array([cons_seq.index(row[0]) for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int64),
    )
    if rows and len(rows[0]) == 4:
        fs.set_scores([row[2] for row in rows], [row[3] for row in rows])
    return fs


class TestFactSet:
    def _facts(self):
        return cell_set(
            rec(0),
            [
                (Constraint(("a", None)), 0b01, 10, 1),
                (Constraint(("a", "b")), 0b01, 4, 2),
                (Constraint((None, None)), 0b11, 20, 4),
            ],
        )

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
        fs = cell_set(
            rec(0),
            [
                (Constraint(("a", None)), 0b01, 10, 1),
                (Constraint(("a", "b")), 0b10, 20, 2),
            ],
        )
        winners = fs.prominent(tau=2)
        assert len(winners) == 2  # both at prominence 10

    def test_top_k_with_tie_at_cut(self):
        fs = cell_set(
            rec(0),
            [
                (Constraint(("a", None)), 0b01, 9, 1),
                (Constraint(("a", "b")), 0b01, 6, 2),
                (Constraint((None, "b")), 0b10, 3, 1),
            ],
        )
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

    def test_an_empty_set_has_the_one_form(self):
        fs = FactSet(rec(0))
        cons_seq, positions, subspaces = fs.cells()
        assert len(cons_seq) == len(positions) == len(subspaces) == 0
        assert len(fs) == 0 and list(fs) == [] and fs.pairs == set()
        assert fs.columns() == ([], [], None, None)


class TestScoreAndSelect:
    def test_context_column_reads_the_cell_positions(self):
        counter = ContextCounter(2)
        r = rec(0, ("a", "b"))
        counter.register(r)
        counter.register(rec(1, ("a", "c")))
        # Three facts as cells: positions along C^t = counter.masks.
        cells = FactSet(r)
        cons_seq = [constraint_for_record(r, mask) for mask in counter.masks]
        cells.add_cells(cons_seq, np.array([1, 3, 0]), np.array([1, 1, 3]))
        assert counter.context_column(cells).tolist() == [2, 1, 2]
        cells.set_scores(counter.context_column(cells), [1, 1, 2])
        assert [f.prominence for f in cells] == [2.0, 1.0, 1.0]

    def test_select_reportable_tau(self):
        fs = cell_set(
            rec(0),
            [(Constraint(("a", None)), 0b1, 10, 1), (Constraint(("a", "b")), 0b1, 2, 1)],
        )
        out = select_reportable(fs, DiscoveryConfig(tau=5))
        assert [f.prominence for f in out] == [10.0]

    def test_select_reportable_top_k(self):
        fs = cell_set(
            rec(0),
            [(Constraint(("a", None)), 0b1, 10, 1), (Constraint(("a", "b")), 0b1, 2, 1)],
        )
        out = select_reportable(fs, DiscoveryConfig(top_k=1))
        assert len(out) == 1 and out[0].prominence == 10.0

    def test_select_reportable_default_ranks_all(self):
        fs = cell_set(
            rec(0),
            [(Constraint(("a", None)), 0b1, 10, 1), (Constraint(("a", "b")), 0b1, 2, 1)],
        )
        out = select_reportable(fs, DiscoveryConfig())
        assert len(out) == 2


class TestFactSetColumns:
    """The columnar FactSet internals: the cell form and score columns
    with lazy object materialisation."""

    def test_cells_and_iter_pairs_stay_lazy(self):
        pairs = [(Constraint(("a", None)), 0b01), (Constraint((None, "b")), 0b11)]
        fs = cell_set(rec(0), pairs)
        assert list(fs.iter_pairs()) == pairs
        assert len(fs) == 2
        assert fs.pairs == set(pairs)
        assert fs.columns() == ([c for c, _ in pairs], [0b01, 0b11], None, None)
        assert fs._facts is None  # nothing materialised yet

    def test_set_scores_before_materialisation(self):
        fs = cell_set(
            rec(0), [(Constraint(("a", None)), 0b01), (Constraint((None, "b")), 0b11)]
        )
        fs.set_scores([10, 20], [2, 4])
        facts = list(fs)
        assert [f.context_size for f in facts] == [10, 20]
        assert [f.skyline_size for f in facts] == [2, 4]
        assert [f.prominence for f in facts] == [5.0, 5.0]
        assert fs.columns()[2:] == ([10, 20], [2, 4])

    def test_set_scores_after_materialisation_updates_objects(self):
        fs = cell_set(rec(0), [(Constraint(("a", None)), 0b01)])
        first = list(fs)[0]
        fs.set_scores([7], [1])
        assert first.context_size == 7 and first.skyline_size == 1
        assert list(fs)[0] is first  # identity preserved

    def test_set_scores_rejects_short_columns(self):
        fs = cell_set(
            rec(0), [(Constraint(("a", None)), 0b01), (Constraint((None, "b")), 0b10)]
        )
        with pytest.raises(ValueError):
            fs.set_scores([1], [1])

    def test_add_cells_fills_an_empty_set_only(self):
        fs = cell_set(rec(0), [(Constraint(("a", None)), 0b01)])
        with pytest.raises(ValueError):
            fs.add_cells(*fs.cells())

    def test_reads_do_not_change_the_set(self):
        fs = cell_set(
            rec(0),
            [(Constraint(("a", None)), 0b01, 4, 2), (Constraint(("a", "b")), 0b10, 1, 1)],
        )
        cells = fs.cells()
        assert (Constraint(("a", "b")), 0b10) in fs
        list(fs.iter_pairs()), fs.columns(), fs.ranked()
        assert fs.cells() is cells
        assert [f.prominence for f in fs] == [2.0, 1.0]


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

BUILDERS = ("cells", "unscored", "zero-sky", "iterated", "scored-after-iteration")


def build_fact_set(builder, cells):
    """One ``S_t`` over ``cells`` via each path through the cell form;
    returns the set and the reference objects (same order, same
    scores).  ``iterated`` materialises the objects before selection,
    ``scored-after-iteration`` before the scoring pass."""
    fs = FactSet(RECORD3)
    constraints = [CONS_SEQ[p] for p, _, _, _ in cells]
    subspaces = [s for _, s, _, _ in cells]
    context = [c for _, _, c, _ in cells]
    skyline = [k for _, _, _, k in cells]
    if builder == "zero-sky":
        skyline = [0] * len(cells)
    fs.add_cells(
        CONS_SEQ,
        np.asarray([p for p, _, _, _ in cells], dtype=np.int64),
        np.asarray(subspaces, dtype=np.int64),
    )
    if builder == "scored-after-iteration":
        list(fs)
    if builder == "unscored":
        context = skyline = [None] * len(cells)
    else:
        fs.set_scores(np.asarray(context), np.asarray(skyline, dtype=np.intc))
    if builder == "iterated":
        list(fs)
    reference = [
        SituationalFact(RECORD3, *row)
        for row in zip(constraints, subspaces, context, skyline)
    ]
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
    def test_iterated_objects_are_the_ones_returned(self, cells, k):
        fs, _ = build_fact_set("iterated", cells)
        seen = list(fs)
        for got in (fs.top_k(k), fs.prominent(1.0), fs.ranked()):
            assert all(any(fact is added for added in seen) for fact in got)

    def test_selection_after_iteration_returns_the_iterated_objects(self):
        fs, _ = build_fact_set("cells", [(0, 1, 6, 1), (1, 1, 6, 2), (2, 3, 4, 4)])
        seen = list(fs)
        assert fs.top_k(1)[0] is seen[0]
        assert fs.prominent(1.0)[0] is seen[0]

    def test_tau_wins_over_top_k(self):
        """With both set, ``select_reportable`` applies τ alone."""
        fs, _ = build_fact_set("cells", [(0, 1, 6, 1), (1, 1, 6, 2), (2, 3, 4, 4)])
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


class TestNoneDimensionContexts:
    """``|σ_C|`` on rows carrying a None dimension value is the number
    of tuples in the context, as ``query()`` and the table scan say —
    not inflated by the masks the None collapses onto one constraint
    (every algorithm used to report 4 where two tuples are in it)."""

    SCHEMA = TableSchema(("a", "b"), ("m",))
    ROWS = [
        {"a": "x", "b": None, "m": 1},
        {"a": "x", "b": None, "m": 2},
        {"a": "x", "b": "y", "m": 3},
    ]

    @staticmethod
    def _engine(algorithm):
        from repro import FactDiscoverer
        from repro.service.sharding import ShardedDiscoverer

        schema = TestNoneDimensionContexts.SCHEMA
        if algorithm == "sharded-svec":
            return ShardedDiscoverer(schema, n_workers=1, mode="serial")
        return FactDiscoverer(schema, algorithm=algorithm)

    @pytest.mark.parametrize(
        "algorithm",
        ["stopdown", "svec", "bruteforce", "bottomup", "sharded-svec"],
    )
    def test_context_sizes_follow_the_definition(self, algorithm):
        engine = self._engine(algorithm)
        top, x = Constraint((None, None)), Constraint(("x", None))
        contexts = []
        for row in self.ROWS:
            facts = engine.facts_for(row)
            by_constraint = {f.constraint: f.context_size for f in facts}
            contexts.append((by_constraint[top], by_constraint[x]))
            for fact in facts:
                assert fact.context_size == len(
                    engine.table.select_constraint(fact.constraint)
                )
                assert fact.context_size == engine.query().context_size(
                    fact.constraint
                )
        assert contexts == [(1, 1), (2, 2), (3, 3)]

    @pytest.mark.parametrize("algorithm", ["svec", "sharded-svec"])
    def test_planner_statistics_stay_constant_time_on_none_rows(
        self, algorithm
    ):
        """The counter covers every constraint within d̂ on None streams
        too, so the planner prices them from an exact ``|σ_C|``."""
        engine = self._engine(algorithm)
        for row in self.ROWS:
            engine.facts_for(row)
        constraints = (Constraint((None, None)), Constraint(("x", None)))
        plan = QueryPlan(engine.query(), [(c, 0b1) for c in constraints])
        for constraint, entry in zip(constraints, plan.explain()):
            assert entry["context_size"] is not None
            assert entry["context_size"] == len(
                engine.table.select_constraint(constraint)
            )


class TestOneScoringCall:
    """Every engine scores ``S_t`` with one call — the counter's
    context column and the algorithm's skyline column.  For ``svec``
    that is one ``counts_for_dims`` probe and one read of the store's
    counts per arrival: no per-fact counter lookup and no per-pair
    skyline recompute, inside the count index's caps and past them."""

    @staticmethod
    def _forbid(monkeypatch, owner, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"svec scoring called {name}")

        monkeypatch.setattr(owner, name, refuse)

    def test_a_scored_batch_probes_the_counter_once_per_arrival(
        self, monkeypatch
    ):
        from repro import FactDiscoverer
        from repro.algorithms.base import DiscoveryAlgorithm
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        engine = FactDiscoverer(
            synthetic_schema(4, 4),
            algorithm="svec",
            config=DiscoveryConfig(top_k=5),
        )
        counter = engine.context_counter
        probes = []
        inner = counter.counts_for_dims
        monkeypatch.setattr(
            counter,
            "counts_for_dims",
            lambda dims: probes.append(dims) or inner(dims),
        )
        self._forbid(monkeypatch, ContextCounter, "count")
        self._forbid(monkeypatch, DiscoveryAlgorithm, "skyline_sizes")
        self._forbid(monkeypatch, DiscoveryAlgorithm, "skyline_size")
        rows = synthetic_rows(256, 4, 4, distribution="anticorrelated")
        fact_sets = engine.facts_for_many(rows)
        assert len(probes) == 256
        assert all(facts.scores() is not None for facts in fact_sets)

    def test_past_the_index_caps_svec_never_sweeps(self, monkeypatch):
        from repro import FactDiscoverer
        from repro.algorithms.base import DiscoveryAlgorithm
        from repro.core.skyline import contextual_skyline
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        self._forbid(monkeypatch, DiscoveryAlgorithm, "skyline_sizes")
        engine = FactDiscoverer(
            synthetic_schema(9, 2),
            algorithm="svec",
            config=DiscoveryConfig(max_bound_dims=2),
        )
        rows = synthetic_rows(60, 9, 2, cardinalities=[3] * 9, seed=7)
        for row in rows:
            facts = engine.facts_for(row)
        table = engine.table
        assert len(facts)
        for fact in facts:
            assert fact.skyline_size == len(
                contextual_skyline(table, fact.constraint, fact.subspace)
            )


class TestOneFactSetForm:
    """``S_t`` has one form and ``svec`` one ancestor: the fact set
    keeps no list-form slots, and ``SVectorized`` stands directly on
    ``DiscoveryAlgorithm`` without importing the paper ladder."""

    def test_fact_set_keeps_only_the_cell_form(self):
        assert set(FactSet.__slots__) == {
            "record",
            "_cells",
            "_context",
            "_skyline",
            "_facts",
            "_pair_cache",
        }
        for gone in ("add", "add_pair", "add_pairs", "_expand", "_pad_scores"):
            assert not hasattr(FactSet, gone), gone

    def test_svec_stands_on_the_base_class(self):
        import ast
        import inspect

        from repro.algorithms import s_vectorized
        from repro.algorithms.base import DiscoveryAlgorithm
        from repro.service import feeds

        assert s_vectorized.SVectorized.__mro__[1] is DiscoveryAlgorithm
        imported = {
            node.module
            for node in ast.walk(ast.parse(inspect.getsource(s_vectorized)))
            if isinstance(node, ast.ImportFrom)
        }
        assert not imported & {"s_top_down", "top_down", "storage.memory_store"}
        assert not hasattr(feeds, "_list_cells")
