"""Tests for tuple retraction (§VIII deletion extension).

The oracle is replay: after deleting tuple ``k`` from a stream, every
store and every subsequent discovery must match a fresh algorithm fed
the stream with tuple ``k`` omitted.  Pinned cases here; randomized
delete and update schedules, against replay of the live rows, are
``tests/test_corpus.py``'s.
"""

import pytest

from repro import FactDiscoverer, TableSchema, make_algorithm
from repro.core.constraint import satisfied_constraints
from repro.core.lattice import nonempty_subspaces
from repro.core.skyline import contextual_skyline

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

STORE_ALGOS = ["bottomup", "topdown", "sbottomup", "stopdown", "svec"]
ALL_ALGOS = STORE_ALGOS + [
    "bruteforce", "baselineseq", "baselineidx", "baselinevec", "ccsc",
]

#: ``(rows, probe)``: tuple 0 leaves, then the probe arrives.
REPLAY_CASES = {
    "dominator-leaves": (
        [
            {"d0": "a", "d1": "x", "m0": 3, "m1": 3},
            {"d0": "a", "d1": "x", "m0": 1, "m1": 2},
            {"d0": "b", "d1": "y", "m0": 2, "m1": 1},
        ],
        {"d0": "a", "d1": "x", "m0": 2, "m1": 2},
    ),
    # Once the 9/9 leaves, nothing dominates the probe: all 4 contexts
    # in all 3 subspaces (a columnar history still holding the 9/9
    # reports none).
    "only-dominator-leaves": (
        [
            {"d0": "a", "d1": "x", "m0": 9, "m1": 9},
            {"d0": "a", "d1": "x", "m0": 1, "m1": 1},
        ],
        {"d0": "a", "d1": "x", "m0": 5, "m1": 5},
    ),
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

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_discovery_after_delete_matches_replay(self, name, case):
        rows, probe = REPLAY_CASES[case]
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
