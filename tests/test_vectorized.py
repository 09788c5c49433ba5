"""Tests for the NumPy tuple-at-a-time baseline."""

from repro import TableSchema, make_algorithm
from repro.algorithms.vectorized import VectorizedBaseline

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


class TestEquivalence:
    def test_matches_on_paper_example(self, gamelog_schema, gamelog_rows):
        ref = make_algorithm("bruteforce", gamelog_schema)
        vec = make_algorithm("baselinevec", gamelog_schema)
        expected = [fs.pairs for fs in ref.process_stream(gamelog_rows)]
        got = [fs.pairs for fs in vec.process_stream(gamelog_rows)]
        assert got == expected


class TestInternals:
    def test_array_growth_preserves_history(self):
        from repro.algorithms import vectorized

        vec = VectorizedBaseline(SCHEMA)
        n = vectorized._INITIAL_CAPACITY + 10
        rows = [
            {"d0": "a", "d1": "x", "m0": i % 5, "m1": (i * 7) % 5}
            for i in range(n)
        ]
        vec.process_stream(rows)
        assert vec._size == n
        assert len(vec.table) == n
        # History still consulted correctly after growth.
        ref = make_algorithm("bruteforce", SCHEMA)
        ref.process_stream(rows)
        probe = {"d0": "a", "d1": "x", "m0": 2, "m1": 2}
        assert vec.process(probe).pairs == ref.process(probe).pairs

    def test_reset_clears_arrays(self):
        vec = VectorizedBaseline(SCHEMA)
        vec.process({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        vec.reset()
        assert vec._size == 0
        assert len(vec.table) == 0

    def test_first_tuple_wins_everything(self):
        vec = VectorizedBaseline(SCHEMA)
        facts = vec.process({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        assert len(facts) == 4 * 3  # 4 constraints x 3 subspaces

    def test_registered(self):
        assert make_algorithm("baselinevec", SCHEMA).name == "baselinevec"
