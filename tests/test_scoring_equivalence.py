"""Scoring on pinned streams and against the counter's definition.

The pinned None-dimension streams that once made algorithms
over-report, the one context counter against ``|σ_C(R)|`` by table
scan, and reads of ``S_t`` that must leave it as it was.  Scores on
randomized streams — every engine, every op — are
``tests/test_corpus.py``'s.
"""

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
    make_algorithm,
)
from repro.core.constraint import satisfied_constraints
from tests.conftest import MEMORY_ALGORITHMS

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


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


class TestUnbindableDimValues:
    """Dimension values equal to the unbound marker collapse distinct
    ``C^t`` masks onto one constraint, so pruning state must be read at
    the collapsed *canonical* mask (``mask & bindable_positions``).
    Testing the raw mask over-reports: two pinned streams where it
    did, for topdown / stopdown and for a dominator binding a value at
    the arrival's None position."""

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
    #: agreement mask cannot cover the duplicate raw masks.
    ROWS2 = [
        {"d0": "a", "d1": "y", "m0": 2},
        {"d0": None, "d1": "y", "m0": 1},
    ]
    SCHEMA2 = TableSchema(("d0", "d1"), ("m0",))

    ALL = ("svec", "bottomup", "topdown", "stopdown", "sbottomup")

    @pytest.mark.parametrize("algorithm", ALL)
    def test_matches_bruteforce_with_none_dims(self, algorithm):
        oracle = make_algorithm("bruteforce", self.SCHEMA3)
        algo = make_algorithm(algorithm, self.SCHEMA3)
        want = [fs.pairs for fs in oracle.process_stream(self.ROWS)]
        got = [fs.pairs for fs in algo.process_stream(self.ROWS)]
        assert got == want

    @pytest.mark.parametrize("algorithm", ALL)
    def test_matches_bruteforce_with_bound_dominator(self, algorithm):
        oracle = make_algorithm("bruteforce", self.SCHEMA2)
        algo = make_algorithm(algorithm, self.SCHEMA2)
        want = [fs.pairs for fs in oracle.process_stream(self.ROWS2)]
        got = [fs.pairs for fs in algo.process_stream(self.ROWS2)]
        assert got == want

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
    deletions, the d̂ cap, and dimension values
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
        n_deletes=st.integers(min_value=0, max_value=4),
    )
    def test_matches_the_table_scan(self, dims_list, max_bound, n_deletes):
        counter = ContextCounter(3, max_bound)
        records = [rec(tid, dims) for tid, dims in enumerate(dims_list)]
        for record in records:
            counter.register(record)
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


class TestReadsDoNotMutate:
    """Reading ``S_t`` — ``pairs``, ``in``, ``iter_pairs`` — leaves it
    as it was: the skyline column, the cells and a shard worker's
    ingest reply come out as for a set nobody read (a read used to
    expand the cells into lists and drop them, after which
    ``skyline_column`` and the worker's ingest raised ``TypeError``)."""

    ROWS = [
        {"d0": d0, "d1": d1, "m0": (7 * i) % 5, "m1": (3 * i) % 4}
        for i, (d0, d1) in enumerate(
            zip("abcabcabacab", ["x", "y", None, "x", "y", "x"] * 2)
        )
    ]

    @staticmethod
    def read(facts):
        pair = next(iter(facts.iter_pairs()), None)
        facts.pairs, pair in facts, list(facts.iter_pairs())
        return facts

    @pytest.mark.parametrize("name", MEMORY_ALGORITHMS)
    def test_skyline_column_and_cells(self, name):
        config = DiscoveryConfig(max_bound_dims=2)
        read, unread = (make_algorithm(name, SCHEMA, config) for _ in range(2))
        for row in self.ROWS:
            got = self.read(read.process(row))
            want = unread.process(row)
            assert read.skyline_column(got).tolist() == (
                unread.skyline_column(want).tolist()
            )
            (got_seq, got_at, got_sub), (want_seq, want_at, want_sub) = (
                got.cells(),
                want.cells(),
            )
            assert tuple(got_seq) == tuple(want_seq)
            assert got_at.tolist() == want_at.tolist()
            assert got_sub.tolist() == want_sub.tolist()

    def test_shard_worker_ingest_reply(self, monkeypatch):
        from repro.service.worker import _ShardEngine

        config = DiscoveryConfig()
        read, unread = (
            _ShardEngine(SCHEMA, config, [1, 2, 3], score=True) for _ in range(2)
        )
        process = read.algorithm.process
        monkeypatch.setattr(
            read.algorithm, "process", lambda row: self.read(process(row))
        )
        got, want = read.ingest(self.ROWS), unread.ingest(self.ROWS)
        assert got[:4] == want[:4]
