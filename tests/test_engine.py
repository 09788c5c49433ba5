"""End-to-end tests for the FactDiscoverer engine."""

import pytest

from repro import (
    Constraint,
    DiscoveryConfig,
    FactDiscoverer,
    TableSchema,
    make_algorithm,
)

SCHEMA = TableSchema(("player", "team"), ("points", "assists"))

ROWS = [
    {"player": "A", "team": "T1", "points": 10, "assists": 5},
    {"player": "B", "team": "T1", "points": 8, "assists": 7},
    {"player": "A", "team": "T2", "points": 12, "assists": 3},
    {"player": "C", "team": "T2", "points": 6, "assists": 6},
]


class TestObserve:
    def test_first_tuple_wins_everything(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        facts = engine.observe(ROWS[0])
        # 4 constraints × 3 subspaces: sole tuple is always in skyline.
        assert len(facts) == 12
        assert all(f.prominence == 1.0 for f in facts)

    def test_scoring_matches_definitions(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        for row in ROWS[:-1]:
            engine.observe(row)
        facts = engine.facts_for(ROWS[-1])
        by_pair = {f.pair: f for f in facts}
        team2 = Constraint.from_mapping(SCHEMA, {"team": "T2"})
        assists = SCHEMA.measure_mask(("assists",))
        fact = by_pair[(team2, assists)]
        # Context team=T2 holds 2 tuples; C's 6 assists beat A's 3.
        assert fact.context_size == 2
        assert fact.skyline_size == 1
        assert fact.prominence == 2.0

    def test_observe_many_returns_per_tuple_lists(self):
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        outs = engine.observe_many(ROWS)
        assert len(outs) == 4
        assert len(engine) == 4

    def test_tau_filters_to_prominent_only(self):
        engine = FactDiscoverer(
            SCHEMA, algorithm="stopdown", config=DiscoveryConfig(tau=2.0)
        )
        engine.observe(ROWS[0])
        out = engine.observe(ROWS[1])
        # Early tuples can't reach prominence 2 in 2-tuple contexts
        # unless alone in a big skyline; check the policy applies.
        assert all(f.prominence >= 2.0 for f in out)

    def test_top_k(self):
        engine = FactDiscoverer(
            SCHEMA, algorithm="stopdown", config=DiscoveryConfig(top_k=3)
        )
        engine.observe(ROWS[0])
        out = engine.observe(ROWS[1])
        assert len(out) >= 1
        proms = [f.prominence for f in out]
        assert proms == sorted(proms, reverse=True)

    def test_score_false_returns_unscored(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown", score=False)
        facts = engine.facts_for(ROWS[0])
        assert all(f.prominence is None for f in facts)

    def test_accepts_algorithm_instance(self):
        algo = make_algorithm("bottomup", SCHEMA)
        engine = FactDiscoverer(SCHEMA, algorithm=algo)
        assert engine.algorithm is algo

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            FactDiscoverer(SCHEMA, algorithm="quantum")

    def test_score_false_with_tau_rejected(self):
        """tau filtering needs prominence; score=False would silently
        drop every fact — fail loudly at construction instead."""
        with pytest.raises(ValueError, match="score=False"):
            FactDiscoverer(
                SCHEMA, algorithm="stopdown",
                config=DiscoveryConfig(tau=2.0), score=False,
            )

    def test_counters_exposed(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        engine.observe_many(ROWS)
        assert engine.counters.traversed_constraints > 0

    def test_repr(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        assert "stopdown" in repr(engine)


class TestObserveMany:
    """observe_many / facts_for_many must equal a loop of observe."""

    @pytest.mark.parametrize("name", ["stopdown", "svec", "baselinevec"])
    def test_observe_many_matches_observe_loop(self, name):
        batch = FactDiscoverer(SCHEMA, algorithm=name)
        loop = FactDiscoverer(SCHEMA, algorithm=name)
        batched = batch.observe_many(ROWS)
        looped = [loop.observe(row) for row in ROWS]
        assert len(batched) == len(looped) == len(ROWS)
        for got, want in zip(batched, looped):
            assert [(f.pair, f.context_size, f.skyline_size) for f in got] == [
                (f.pair, f.context_size, f.skyline_size) for f in want
            ]

    @pytest.mark.parametrize("name", ["stopdown", "svec"])
    def test_facts_for_many_unscored_matches_loop(self, name):
        batch = FactDiscoverer(SCHEMA, algorithm=name, score=False)
        loop = FactDiscoverer(SCHEMA, algorithm=name, score=False)
        batched = batch.facts_for_many(ROWS)
        looped = [loop.facts_for(row) for row in ROWS]
        assert [fs.pairs for fs in batched] == [fs.pairs for fs in looped]
        assert len(batch) == len(loop) == len(ROWS)

    def test_observe_many_scoring_uses_per_arrival_state(self):
        """Prominence for row i must reflect the relation at arrival i,
        not the end of the batch."""
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        first = engine.observe_many(ROWS)[0]
        assert all(f.prominence == 1.0 for f in first)

    def test_observe_many_empty_batch(self):
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        assert engine.observe_many([]) == []

    def test_process_many_matches_process_stream(self):
        from repro import make_algorithm

        batch = make_algorithm("svec", SCHEMA)
        loop = make_algorithm("svec", SCHEMA)
        got = [fs.pairs for fs in batch.process_many(ROWS)]
        want = [fs.pairs for fs in loop.process_stream(ROWS)]
        assert got == want


class TestScoringConsistencyAcrossAlgorithms:
    """Prominence must not depend on which algorithm produced S_t."""

    @pytest.mark.parametrize(
        "name", ["bruteforce", "baselineseq", "ccsc", "bottomup", "topdown",
                 "sbottomup", "stopdown", "svec"]
    )
    def test_scores_match_bottomup_reference(self, name, gamelog_schema, gamelog_rows):
        ref_engine = FactDiscoverer(gamelog_schema, algorithm="bottomup")
        for row in gamelog_rows[:-1]:
            ref_engine.observe(row)
        ref = {
            f.pair: (f.context_size, f.skyline_size)
            for f in ref_engine.facts_for(gamelog_rows[-1])
        }

        engine = FactDiscoverer(gamelog_schema, algorithm=name)
        for row in gamelog_rows[:-1]:
            engine.observe(row)
        got = {
            f.pair: (f.context_size, f.skyline_size)
            for f in engine.facts_for(gamelog_rows[-1])
        }
        assert got == ref
