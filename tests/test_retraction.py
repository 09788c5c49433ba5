"""Tests for tuple retraction (§VIII deletion extension).

The oracle is replay: after deleting tuple ``k`` from a stream, every
store and every subsequent discovery must match a fresh algorithm fed
the stream with tuple ``k`` omitted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FactDiscoverer, TableSchema, make_algorithm
from repro.core.constraint import satisfied_constraints
from repro.core.lattice import nonempty_subspaces
from repro.core.skyline import contextual_skyline
from tests.strategies import narrow_row_strategy, wide_row_strategy

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

STORE_ALGOS = ["bottomup", "topdown", "sbottomup", "stopdown", "svec"]
ALL_ALGOS = STORE_ALGOS + ["bruteforce", "baselineseq", "baselineidx", "ccsc"]


def store_snapshot(algo):
    return {
        key: {r.tid for r in records} for key, records in algo.store.iter_pairs()
    }


class TestStoreRepair:
    @pytest.mark.parametrize("name", STORE_ALGOS)
    def test_invariant_restored_after_delete(self, name):
        rows = [
            {"d0": "a", "d1": "x", "m0": 3, "m1": 3},  # dominator
            {"d0": "a", "d1": "x", "m0": 1, "m1": 1},  # suppressed
            {"d0": "a", "d1": "y", "m0": 2, "m1": 0},
            {"d0": "b", "d1": "x", "m0": 0, "m1": 2},
        ]
        algo = make_algorithm(name, SCHEMA)
        algo.process_stream(rows)
        algo.retract(0)  # remove the dominator
        records = list(algo.table)
        if name in ("bottomup", "sbottomup"):
            # Invariant 1: store equals recomputed skylines everywhere.
            for record in records:
                for constraint in satisfied_constraints(record):
                    for subspace in nonempty_subspaces(SCHEMA.full_measure_mask):
                        expected = {
                            r.tid
                            for r in contextual_skyline(records, constraint, subspace)
                        }
                        stored = {
                            r.tid for r in algo.store.get(constraint, subspace)
                        }
                        assert stored == expected, (constraint, subspace)
        # The suppressed tuple re-enters the top-level skyline.
        from repro import Constraint

        top = Constraint.top(2)
        full = SCHEMA.full_measure_mask
        assert any(
            r.tid == 1
            for r in contextual_skyline(records, top, full)
        )

    @pytest.mark.parametrize("name", STORE_ALGOS)
    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(narrow_row_strategy, min_size=2, max_size=10),
        victim=st.integers(min_value=0, max_value=9),
    )
    def test_delete_matches_replay(self, name, rows, victim):
        victim = victim % len(rows)
        algo = make_algorithm(name, SCHEMA)
        algo.process_stream(rows)
        algo.retract(victim)

        replay = make_algorithm(name, SCHEMA)
        kept = [row for i, row in enumerate(rows) if i != victim]
        replay.process_stream(kept)

        # Same skyline *sets* per pair (tids differ: replay renumbers).
        def content(algo_):
            out = {}
            for (constraint, subspace), records in algo_.store.iter_pairs():
                out.setdefault((constraint, subspace), set()).update(
                    (r.dims, r.raw) for r in records
                )
            return out

        assert content(algo) == content(replay)

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_discovery_after_delete_matches_replay(self, name):
        rows = [
            {"d0": "a", "d1": "x", "m0": 3, "m1": 3},
            {"d0": "a", "d1": "x", "m0": 1, "m1": 2},
            {"d0": "b", "d1": "y", "m0": 2, "m1": 1},
        ]
        probe = {"d0": "a", "d1": "x", "m0": 2, "m1": 2}
        algo = make_algorithm(name, SCHEMA)
        algo.process_stream(rows)
        algo.retract(0)
        got = {
            (c.values, m) for c, m in algo.process(probe).pairs
        }

        replay = make_algorithm(name, SCHEMA)
        replay.process_stream(rows[1:])
        expected = {
            (c.values, m) for c, m in replay.process(probe).pairs
        }
        assert got == expected, name


class TestColumnarRetraction:
    """PR-3 columnar retraction repair ≡ the scalar repair path.

    ``svec`` repairs Invariant-2 stores after a deletion from the
    anchor-bitset reverse index and one columnar dominance sweep
    (:func:`repro.algorithms.retraction.retract_top_down_columnar`);
    ``stopdown``, whose only repair is the scalar one, recomputes
    contextual skylines from the table.
    Both must leave identical stores, identical op counters, and
    identical (scored) facts for every subsequent arrival — including
    streams carrying unbindable (None) dimension values, which take the
    scalar fallback for the removed tuple but still repair around
    None-valued surviving rows columnarly.
    """

    SCHEMA3 = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(wide_row_strategy, min_size=4, max_size=14),
        data=st.data(),
    )
    def test_columnar_equals_scalar_retraction(self, rows, data):
        columnar = FactDiscoverer(self.SCHEMA3, algorithm="svec")
        scalar = FactDiscoverer(self.SCHEMA3, algorithm="stopdown")
        expected = [scalar.facts_for(row) for row in rows]
        got = [columnar.facts_for(row) for row in rows]
        victims = data.draw(
            st.lists(
                st.sampled_from(range(len(rows))),
                min_size=1,
                max_size=min(4, len(rows)),
                unique=True,
            )
        )
        for tid in victims:
            scalar.delete(tid)
            columnar.delete(tid)
        assert store_snapshot(columnar.algorithm) == store_snapshot(
            scalar.algorithm
        )
        survivors = [i for i in range(len(rows)) if i not in victims]
        # Deletions must also reverse the scoring/anchor indexes
        # identically: every subsequent arrival discovers and scores
        # the same facts on both paths, and the op counters stay in
        # lockstep (post-deletion comparisons read the repaired µ).
        more = rows[: min(4, len(rows))]
        expected_after = [scalar.facts_for(row) for row in more]
        got_after = [columnar.facts_for(row) for row in more]
        key = lambda fact: (
            fact.constraint.values,
            fact.subspace,
            fact.context_size,
            fact.skyline_size,
        )
        for want, have in zip(expected + expected_after, got + got_after):
            assert sorted(map(key, have), key=repr) == sorted(
                map(key, want), key=repr
            )
        assert (
            columnar.counters.snapshot() == scalar.counters.snapshot()
        ), survivors

    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.lists(wide_row_strategy, min_size=4, max_size=12),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_algorithms_agree_across_deletions(self, rows, seed):
        """svec's columnar repair keeps it in scored-output lockstep
        with stopdown (scalar Invariant-2 repair) and bottomup
        (Invariant-1 repair) across deletion-interleaved streams."""
        import random

        rng = random.Random(seed)
        cut = len(rows) // 2
        engines = {
            name: FactDiscoverer(self.SCHEMA3, algorithm=name)
            for name in ("svec", "stopdown", "bottomup")
        }
        outputs = {name: [] for name in engines}
        for name, engine in engines.items():
            outputs[name] += [engine.facts_for(row) for row in rows[:cut]]
        victims = rng.sample(range(cut), k=min(cut, rng.randint(1, 3)))
        for tid in victims:
            for engine in engines.values():
                engine.delete(tid)
        for name, engine in engines.items():
            outputs[name] += [engine.facts_for(row) for row in rows[cut:]]
        key = lambda fact: (
            fact.constraint.values,
            fact.subspace,
            fact.context_size,
            fact.skyline_size,
        )
        snapshots = {
            name: [sorted(map(key, facts), key=repr) for facts in out]
            for name, out in outputs.items()
        }
        assert snapshots["svec"] == snapshots["stopdown"] == snapshots["bottomup"]


class TestEngineDelete:
    def test_delete_reverses_context_counts(self):
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        engine.observe({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        engine.observe({"d0": "a", "d1": "x", "m0": 2, "m1": 2})
        engine.delete(0)
        from repro import Constraint

        assert engine.context_counter.count(Constraint(("a", "x"))) == 1
        assert len(engine) == 1

    def test_delete_then_prominence_correct(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        for i in range(5):
            engine.observe({"d0": "a", "d1": "x", "m0": 0, "m1": i})
        engine.observe({"d0": "a", "d1": "x", "m0": 9, "m1": 9})  # tid 5
        engine.delete(5)  # the champion leaves
        facts = engine.facts_for({"d0": "a", "d1": "x", "m0": 5, "m1": 5})
        # New arrival now tops every context again.
        assert all(f.skyline_size == 1 for f in facts if f.subspace == 0b01)

    def test_delete_missing_raises(self):
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        with pytest.raises(KeyError):
            engine.delete(7)
