"""Scored batch ingestion ≡ the scalar row-at-a-time loop.

The vectorized scoring subsystem (``svec``'s skyline column off the
store's count index, the interned-key ``ContextCounter``, and batched
demotion repair) must be *output-invisible*: ``observe_many``
with scoring on has to produce exactly what a loop of scalar ``observe``
calls produces — same facts, same context/skyline cardinalities, same
reportable selections, same operation counters — for every algorithm,
with and without ``d̂``/``m̂`` caps, and across deletions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Constraint,
    ContextCounter,
    DiscoveryConfig,
    FactDiscoverer,
    Record,
    TableSchema,
    contextual_skyline,
)
from repro.core.constraint import satisfied_constraints
from tests.strategies import none_row_strategy, row_strategy, stream_scenarios

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

ALGORITHMS = ("stopdown", "svec", "bottomup")


def fact_key(fact):
    return (
        fact.record.tid,
        fact.constraint.values,
        fact.subspace,
        fact.context_size,
        fact.skyline_size,
    )


def scored_snapshot(facts_list):
    """Order-free rendering of one scored ``S_t`` per arrival."""
    return [sorted(map(fact_key, facts), key=repr) for facts in facts_list]


def reportable_snapshot(reportable_lists):
    """Reportable lists keep their ranking order — compare verbatim."""
    return [[fact_key(f) for f in facts] for facts in reportable_lists]


class TestScoredBatchEquivalence:
    """scored observe_many ≡ [observe(row) for row in rows]."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=14))
    def test_facts_scores_and_counters_match(self, algorithm, rows):
        loop = FactDiscoverer(SCHEMA, algorithm=algorithm)
        batch = FactDiscoverer(SCHEMA, algorithm=algorithm)
        expected = [loop.facts_for(row) for row in rows]
        got = batch.facts_for_many(rows)
        assert scored_snapshot(got) == scored_snapshot(expected)
        assert batch.counters.snapshot() == loop.counters.snapshot()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=12),
        dhat=st.integers(min_value=0, max_value=2),
        mhat=st.integers(min_value=1, max_value=2),
    )
    def test_matches_under_caps(self, algorithm, rows, dhat, mhat):
        cfg = DiscoveryConfig(max_bound_dims=dhat, max_measure_dims=mhat)
        loop = FactDiscoverer(SCHEMA, algorithm=algorithm, config=cfg)
        batch = FactDiscoverer(SCHEMA, algorithm=algorithm, config=cfg)
        expected = [loop.facts_for(row) for row in rows]
        got = batch.facts_for_many(rows)
        assert scored_snapshot(got) == scored_snapshot(expected)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=12),
        tau=st.sampled_from([None, 1.0, 3.0]),
        top_k=st.sampled_from([None, 1, 3]),
    )
    def test_reportable_selection_matches(self, algorithm, rows, tau, top_k):
        if tau is not None and top_k is not None:
            top_k = None  # tau takes precedence; test one policy at a time
        cfg = DiscoveryConfig(tau=tau, top_k=top_k)
        loop = FactDiscoverer(SCHEMA, algorithm=algorithm, config=cfg)
        batch = FactDiscoverer(SCHEMA, algorithm=algorithm, config=cfg)
        expected = [loop.observe(row) for row in rows]
        got = batch.observe_many(rows)
        assert reportable_snapshot(got) == reportable_snapshot(expected)

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=14))
    def test_algorithms_agree_on_scores(self, rows):
        """The same stream scores identically across all algorithms."""
        outputs = [
            scored_snapshot(
                FactDiscoverer(SCHEMA, algorithm=name).facts_for_many(rows)
            )
            for name in ALGORITHMS
        ]
        assert outputs[0] == outputs[1] == outputs[2]


class TestDeletionInterleaved:
    """Deletions between scored batches: stores, counters, and the
    context counts behind prominence must all repair identically."""

    @pytest.mark.parametrize("algorithm", ("stopdown", "svec"))
    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=4, max_size=14),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_scored_batches_survive_deletions(self, algorithm, rows, seed):
        rng = random.Random(seed)
        cut = len(rows) // 2
        loop = FactDiscoverer(SCHEMA, algorithm=algorithm)
        batch = FactDiscoverer(SCHEMA, algorithm=algorithm)
        expected = [loop.facts_for(row) for row in rows[:cut]]
        got = batch.facts_for_many(rows[:cut])
        victims = rng.sample(range(cut), k=min(cut, rng.randint(1, 3)))
        for tid in victims:
            loop.delete(tid)
            batch.delete(tid)
        expected += [loop.facts_for(row) for row in rows[cut:]]
        got += batch.facts_for_many(rows[cut:])
        assert scored_snapshot(got) == scored_snapshot(expected)
        # The unregister path must leave both counters in lockstep for
        # every constraint any processed tuple satisfies.
        for record in batch.table:
            for constraint in satisfied_constraints(record):
                assert batch.context_counter.count(
                    constraint
                ) == loop.context_counter.count(constraint)


class TestUnbindableDimValues:
    """Dimension values equal to the unbound marker collapse distinct
    ``C^t`` masks onto one constraint, so pruning state must be read at
    the collapsed *canonical* mask (``mask & bindable_positions``).
    Historically topdown/stopdown (and, on streams whose dominators
    bind a value at the arrival's None position, svec's scalar pass
    too) tested the raw mask and over-reported; since the canonical
    -mask fix **every** algorithm agrees with the ``bruteforce`` oracle
    on such streams."""

    #: The original ROADMAP repro: the second arrival's dominator is
    #: met at ⊤, but the third arrival's raw mask {d0} (collapsing onto
    #: ⊤) used to re-report the pruned constraint.
    ROWS = [
        {"d0": None, "d1": "y", "d2": None, "m0": 1, "m1": 1},
        {"d0": "b", "d1": "x", "d2": "r", "m0": 2, "m1": 1},
        {"d0": None, "d1": "y", "d2": "p", "m0": 0, "m1": 0},
    ]
    SCHEMA3 = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))

    #: A dominator binding a value at the arrival's None position: its
    #: agreement mask cannot cover the duplicate raw masks, which used
    #: to slip past svec's exact sweep as well.
    ROWS2 = [
        {"d0": "a", "d1": "y", "m0": 2},
        {"d0": None, "d1": "y", "m0": 1},
    ]
    SCHEMA2 = TableSchema(("d0", "d1"), ("m0",))

    ALL = ("svec", "bottomup", "topdown", "stopdown", "sbottomup")

    @pytest.mark.parametrize("algorithm", ALL)
    def test_matches_bruteforce_with_none_dims(self, algorithm):
        from repro import make_algorithm

        oracle = make_algorithm("bruteforce", self.SCHEMA3)
        algo = make_algorithm(algorithm, self.SCHEMA3)
        want = [fs.pairs for fs in oracle.process_stream(self.ROWS)]
        got = [fs.pairs for fs in algo.process_stream(self.ROWS)]
        assert got == want

    @pytest.mark.parametrize("algorithm", ALL)
    def test_matches_bruteforce_with_bound_dominator(self, algorithm):
        from repro import make_algorithm

        oracle = make_algorithm("bruteforce", self.SCHEMA2)
        algo = make_algorithm(algorithm, self.SCHEMA2)
        want = [fs.pairs for fs in oracle.process_stream(self.ROWS2)]
        got = [fs.pairs for fs in algo.process_stream(self.ROWS2)]
        assert got == want

    @pytest.mark.parametrize("algorithm", ("svec", "topdown", "stopdown"))
    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(none_row_strategy, min_size=1, max_size=10))
    def test_property_matches_bruteforce(self, algorithm, rows):
        from repro import make_algorithm

        oracle = make_algorithm("bruteforce", self.SCHEMA3)
        algo = make_algorithm(algorithm, self.SCHEMA3)
        want = [fs.pairs for fs in oracle.process_stream(rows)]
        got = [fs.pairs for fs in algo.process_stream(rows)]
        assert got == want

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(none_row_strategy, min_size=1, max_size=10))
    def test_svec_counters_match_stopdown_on_none_streams(self, rows):
        """Unbindable values route svec to its scalar fallback pass,
        which must stay in op-counter lockstep with stopdown — including
        the self-comparisons at collapsed duplicate masks whose bucket
        the arrival itself just created."""
        from repro import make_algorithm

        svec = make_algorithm("svec", self.SCHEMA3)
        stopdown = make_algorithm("stopdown", self.SCHEMA3)
        svec.process_stream(rows)
        stopdown.process_stream(rows)
        assert svec.counters.snapshot() == stopdown.counters.snapshot()

    def test_scored_batch_matches_loop_with_none_dims(self):
        loop = FactDiscoverer(self.SCHEMA3, algorithm="svec")
        batch = FactDiscoverer(self.SCHEMA3, algorithm="svec")
        expected = [loop.facts_for(row) for row in self.ROWS]
        got = batch.facts_for_many(self.ROWS)
        assert scored_snapshot(got) == scored_snapshot(expected)
        assert batch.counters.snapshot() == loop.counters.snapshot()


def rec(tid, dims):
    return Record(tid, tuple(dims), (1.0,), (1.0,))


value_strategy = st.sampled_from(["a", "b", None, 1])


class TestContextCounterDefinition:
    """The one counter against the definition ``|σ_C(R)|`` — including
    batch registration, deletions, the d̂ cap, and dimension values
    equal to the unbound marker (a row is one tuple of each distinct
    constraint it satisfies, however many masks collapse onto it)."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims_list=st.lists(
            st.tuples(value_strategy, value_strategy, value_strategy),
            min_size=1,
            max_size=24,
        ),
        max_bound=st.sampled_from([None, 0, 1, 2]),
        batch_cut=st.integers(min_value=0, max_value=24),
        n_deletes=st.integers(min_value=0, max_value=4),
    )
    def test_matches_the_table_scan(
        self, dims_list, max_bound, batch_cut, n_deletes
    ):
        counter = ContextCounter(3, max_bound)
        records = [rec(tid, dims) for tid, dims in enumerate(dims_list)]
        cut = min(batch_cut, len(records))
        for record in records[:cut]:
            counter.register(record)
        counter.register_many(records[cut:])
        for record in records[:n_deletes]:
            counter.unregister(record)
        live = records[n_deletes:]
        satisfied = {
            constraint
            for record in records
            for constraint in satisfied_constraints(record, max_bound)
        }
        assert len(counter) == sum(
            any(c.satisfied_by(r) for r in live) for c in satisfied
        )
        for constraint in satisfied:
            assert counter.covers(constraint)
            assert counter.count(constraint) == sum(
                constraint.satisfied_by(r) for r in live
            )
        unseen = Constraint(("zz", None, None))
        assert counter.count(unseen) == 0

    def test_grouped_batch_path_kicks_in(self):
        # ≥16 UNBOUND-free rows take the np.unique grouping path.
        records = [
            rec(tid, ("a" if tid % 2 else "b", "x")) for tid in range(20)
        ]
        counter = ContextCounter(2)
        counter.register_many(records)
        assert counter.count(Constraint((None, "x"))) == 20
        assert counter.count(Constraint(("a", "x"))) == 10
        assert counter.count(Constraint(("b", None))) == 10


def _definition(table, constraint, subspace, memo):
    """``(|σ_C(R)|, |λ_M(σ_C(R))|)`` by table scan, memoised per op."""
    key = (constraint, subspace)
    if key not in memo:
        memo[key] = (
            len(table.select_constraint(constraint)),
            len(contextual_skyline(table, constraint, subspace)),
        )
    return memo[key]


class TestScoresFollowTheDefinition:
    """One oracle for scores: after every arrival and delete of a
    stream, every fact each engine reports carries the definition's
    ``(|σ_C|, |λ_M(σ_C)|)`` and every engine's context counter equals
    the table scan on every constraint of the live rows' ``C^t``.
    ``stopdown`` (Invariant-2 sweep), ``bottomup`` (Invariant-1
    buckets), ``svec`` (count index, or the anchor-bit matrix past its
    caps) and the serial sharded ``svec`` router — None-heavy rows,
    deletes, shard partitions, and the d = 9 / m = 9 shapes past the
    index caps included."""

    ALGORITHMS = ("stopdown", "bottomup", "svec")

    @pytest.mark.parametrize("past_caps", [False, True], ids=["walk", "past-caps"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_op_scores_by_the_definition(self, past_caps, data):
        from repro.service.sharding import ShardedDiscoverer

        schema, config, ops, shard_of = data.draw(
            stream_scenarios(past_caps=past_caps)
        )
        engines = [
            FactDiscoverer(schema, algorithm=name, config=config)
            for name in self.ALGORITHMS
        ]
        engines.append(
            ShardedDiscoverer(
                schema, config, n_workers=len(set(shard_of)), mode="serial"
            )
        )
        cap = config.max_bound_dims
        table = engines[0].table
        live = []
        for op in ops:
            if isinstance(op, dict):
                live.append(table.arrivals)
                scored = [engine.facts_for(op) for engine in engines]
            elif len(live) > 1:
                tid = live.pop(op % len(live))
                for engine in engines:
                    engine.delete(tid)
                scored = []
            else:
                continue
            memo = {}
            for facts in scored:
                for fact in facts:
                    assert (fact.context_size, fact.skyline_size) == _definition(
                        table, fact.constraint, fact.subspace, memo
                    ), (type(facts), fact)
            constraints = {
                constraint
                for record in table
                for constraint in satisfied_constraints(record, cap)
            }
            for engine in engines:
                assert [r.tid for r in engine.table] == [r.tid for r in table]
                for constraint in constraints:
                    assert engine.context_counter.count(constraint) == len(
                        table.select_constraint(constraint)
                    ), constraint
        for engine in engines:
            engine.close()
