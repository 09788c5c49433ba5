"""Cross-algorithm equivalence on hand-written cases and the paper's
examples: all ten algorithms produce ``bruteforce``'s (Alg. 2) ``S_t``
for every arriving tuple, with and without the ``d̂``/``m̂`` caps.  The
randomized streams are ``tests/test_corpus.py``'s.
"""

from repro import DiscoveryConfig, TableSchema, make_algorithm

from tests.conftest import MEMORY_ALGORITHMS


def run_all(schema, rows, config=None):
    outs = {}
    for name in MEMORY_ALGORITHMS:
        algo = make_algorithm(name, schema, config)
        outs[name] = [fs.pairs for fs in algo.process_stream(rows)]
    return outs


class TestDeterministicEquivalence:
    def test_running_example(self, running_example_schema, running_example_rows):
        outs = run_all(running_example_schema, running_example_rows)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name

    def test_gamelog_example(self, gamelog_schema, gamelog_rows):
        outs = run_all(gamelog_schema, gamelog_rows)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name

    def test_with_dhat_cap(self, gamelog_schema, gamelog_rows):
        config = DiscoveryConfig(max_bound_dims=2)
        outs = run_all(gamelog_schema, gamelog_rows, config)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name
        assert all(
            c.bound_count <= 2 for pairs in ref for (c, _m) in pairs
        )

    def test_with_mhat_cap(self, gamelog_schema, gamelog_rows):
        config = DiscoveryConfig(max_measure_dims=2)
        outs = run_all(gamelog_schema, gamelog_rows, config)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name
        assert all(
            bin(m).count("1") <= 2 for pairs in ref for (_c, m) in pairs
        )

    def test_duplicate_tuples(self):
        """Identical tuples must coexist in skylines (no self-domination)."""
        schema = TableSchema(("d",), ("m1", "m2"))
        rows = [{"d": "x", "m1": 3, "m2": 3}] * 3
        outs = run_all(schema, rows)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name
        # Every copy stays a skyline tuple everywhere.
        assert all(len(pairs) == 2 * 3 for pairs in ref)

    def test_single_dimension_single_measure(self):
        schema = TableSchema(("d",), ("m",))
        rows = [{"d": v, "m": x} for v, x in
                [("a", 1), ("b", 5), ("a", 3), ("b", 5), ("a", 0)]]
        outs = run_all(schema, rows)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name

    def test_min_preferences_respected(self):
        from repro import MIN

        schema = TableSchema(("d",), ("pts", "fouls"), {"fouls": MIN})
        rows = [
            {"d": "x", "pts": 10, "fouls": 5},
            {"d": "x", "pts": 10, "fouls": 2},  # better: fewer fouls
            {"d": "x", "pts": 12, "fouls": 6},
        ]
        outs = run_all(schema, rows)
        ref = outs["bruteforce"]
        for name, got in outs.items():
            assert got == ref, name
        # Tuple 1 dominates tuple 0 in {fouls} and in {pts, fouls}.
        fouls = schema.measure_mask(("fouls",))
        assert all(m != fouls or c.bound_count >= 0 for c, m in ref[1])
