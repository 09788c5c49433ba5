"""One runner for the engine contract, over the one scenario corpus.

The contract is the paper's.  ``S_t`` is exactly the set of ``(C, M)``
that make the arriving tuple a contextual skyline tuple (§III), and a
scored fact carries ``|σ_C|`` and ``|λ_M(σ_C)|`` (§VII).  Every
randomized engine-equivalence check of the suite lives here.  Each
stream of :func:`tests.strategies.stream_scenarios` runs through every
in-memory algorithm, the scored engines, a drawn subspace partition of
``svec`` and the serial sharded router.  After every op the runner
asserts:

1. *Pairs.*  ``S_t`` is the set of Def. 3: the pairs of ``C^t`` ×
   the allowed subspaces where no tuple of the context dominates the
   arrival.  Every algorithm emits ``stopdown``'s ``S_t`` (the
   exceptions are the sets below); the top-down walkers and the router
   in the same emission order, the others, which walk or sweep in
   another order, as the same multiset of pairs.
2. *Scores.*  Every fact of every scored engine carries the
   definition's ``(|σ_C|, |λ_M(σ_C)|)``, every context counter equals
   the table scan, and ``svec``'s per-pair ``skyline_size`` /
   ``skyline_sizes`` equal the recompute.
3. *Stores.*  ``svec``, its shard-restricted partition and the router's
   workers hold ``stopdown``'s µ stores and op counters.
4. *Batches.*  A twin of each engine with a batched path takes every
   run of consecutive arrivals through ``facts_for_many`` or
   ``observe_many`` (alternating) and every update through ``update``.
   It matches the per-row engine in scored sets, in reportable lists
   under the drawn policy, and in op counters.

At the end of the schedule:

5. *History independence.*  Each store algorithm equals a fresh one fed
   the live rows in tid order: µ store contents as ``(dims, raw)``
   multisets, context counts, and the probe arrival's scored ``S_t``.

One test case per cell of the corpus's grid (schema family × ``d̂`` ×
policy kind × input form, and each past-caps shape on either side of
the sweep index's arming constant), so every cell runs on every test
run and a failure names its cell; the rest of a stream is drawn.  The
input form is how arrivals reach the engines: as mappings, or as
pre-built :class:`~repro.core.record.Record` s, whose tid every engine
re-assigns to the arrival index.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscoveryConfig,
    FactDiscoverer,
    TableSchema,
    contextual_skyline,
    make_algorithm,
)
from repro.core.constraint import satisfied_constraints
from repro.core.lattice import nonempty_subspaces
from repro.core.prominence import select_reportable
from repro.core.record import Table
from repro.core.skyline import is_contextual_skyline_tuple
from repro.metrics.counters import OpCounters
from repro.service.sharding import ShardedDiscoverer
from tests.conftest import MEMORY_ALGORITHMS, STORE_ALGORITHMS
from tests.strategies import (
    DHATS,
    FAMILIES,
    PAST_CAP_SHAPES,
    POLICIES,
    StreamScenario,
    stream_scenarios,
    sweep_constants,
)

#: Algorithms emitting ``S_t`` in ``stopdown``'s order: ``C^t`` top-down
#: within each subspace, subspaces full space first.
IN_ORDER = {"bruteforce", "topdown", "stopdown", "svec"}

#: ``ccsc`` keeps a compressed skycube over all ``2^m - 1`` subspaces,
#: so it sits out streams with more measures than this.
SKYCUBE_MAX_MEASURES = 3

#: The engines with a batched path, each checked against a twin.
BATCHED = ("stopdown", "bottomup", "svec")

#: A delete that re-exposes a tuple beyond the d̂ cap only: once the
#: 9/9 leaves, the 1/1 is a skyline tuple of (a, x) and of no context
#: within d̂ = 1, so no store may anchor it anywhere.
BEYOND_CAP_REPAIR = StreamScenario(
    TableSchema(("d0", "d1"), ("m0", "m1")),
    DiscoveryConfig(max_bound_dims=1),
    (
        {"d0": "a", "d1": "y", "m0": 5, "m1": 5},
        {"d0": "b", "d1": "x", "m0": 5, "m1": 5},
        {"d0": "a", "d1": "x", "m0": 1, "m1": 1},
        {"d0": "a", "d1": "x", "m0": 9, "m1": 9},
        3,
    ),
    (0, 1, 0),
    {"d0": "a", "d1": "x", "m0": 2, "m1": 2},
)


def scored_rows(facts):
    """A scored ``S_t`` in emission order, as plain tuples."""
    return list(zip(*facts.columns()))


def reported_rows(facts):
    """A reportable list, in its ranking order, as plain tuples."""
    return [
        (f.record.tid, f.constraint, f.subspace, f.context_size, f.skyline_size)
        for f in facts
    ]


def store_contents(algos):
    """``{(C, M): tids}`` over the µ stores of ``algos`` (one algorithm,
    or the shards of a subspace partition)."""
    return {
        key: {r.tid for r in records}
        for algo in algos
        for key, records in algo.store.iter_pairs()
    }


def store_multiset(algo):
    """``{(C, M): Counter of (dims, raw)}`` — µ up to tid numbering."""
    return {
        key: Counter((r.dims, r.raw) for r in records)
        for key, records in algo.store.iter_pairs()
    }


class Run:
    """Every engine over one scenario, checked op by op."""

    def __init__(self, scenario, records=False):
        schema, config = scenario.schema, scenario.config
        #: Builds the ``Record`` an arrival is handed in as, when
        #: ``records``; the engines re-number it.
        self.maker = Table(schema) if records else None
        self.schema, self.config = schema, config
        skip = {"ccsc"} if schema.n_measures > SKYCUBE_MAX_MEASURES else set()
        self.algos = {
            name: make_algorithm(name, schema, config)
            for name in MEMORY_ALGORITHMS
            if name not in skip
        }
        self.engines = {
            name: FactDiscoverer(schema, self.algos[name], config)
            for name in STORE_ALGORITHMS
        }
        self.reference = self.algos["stopdown"]
        partition = {}
        for key in self.reference.maintained_subspaces():
            partition.setdefault(scenario.shard_of[key - 1], []).append(key)
        self.shards = [
            make_algorithm("svec", schema, config, shard_subspaces=keys)
            for keys in partition.values()
        ]
        assert sum(shard._has_root for shard in self.shards) == 1
        self.router = ShardedDiscoverer(
            schema, config, n_workers=len(partition), mode="serial"
        )
        self.scored = [*self.engines.values(), self.router]
        self.per_row = [self.engines[name] for name in BATCHED] + [self.router]
        self.twins = [
            FactDiscoverer(schema, name, config) for name in BATCHED
        ] + [
            ShardedDiscoverer(
                schema, config, n_workers=len(partition), mode="serial",
                chunk_size=3,
            )
        ]
        #: ``(tid, row)`` of the live tuples, in tid order.
        self.live = []
        #: The twins' pending run: rows and the per-row engines' S_t.
        self.pending = []
        self.runs = 0

    # -- ops -------------------------------------------------------------
    def given(self, row):
        """``row`` in the run's input form."""
        return row if self.maker is None else self.maker.make_record(row)

    def apply(self, op):
        if isinstance(op, dict):
            self.pending.append((op, self.arrive(op)))
            return True
        if not self.live:
            return False
        if isinstance(op, int):
            tid = self.live.pop(op % len(self.live))[0]
            self.retract(tid)
            for twin in self.twins:
                twin.delete(tid)
        else:
            index, row = op
            tid = self.live.pop(index % len(self.live))[0]
            self.retract(tid)
            for twin, facts in zip(self.twins, self.arrive(row)):
                got = twin.update(tid, self.given(row))
                assert reported_rows(got) == reported_rows(
                    select_reportable(facts, self.config)
                )
            self.check_twin_counters()
        return True

    def arrive(self, row):
        """One arrival everywhere: assertions 1 and 2.  Returns the
        per-row engines' ``S_t`` for the twins."""
        self.live.append((self.reference.table.arrivals, row))
        row = self.given(row)
        scored = {name: engine.facts_for(row) for name, engine in self.engines.items()}
        want = list(scored["stopdown"].iter_pairs())
        for name, algo in self.algos.items():
            facts = scored[name] if name in scored else algo.process(row)
            got = list(facts.iter_pairs())
            if name in IN_ORDER:
                assert got == want, name
            else:
                assert Counter(got) == Counter(want), name
        routed = self.router.facts_for(row)
        assert list(routed.iter_pairs()) == want
        assert Counter(
            pair for shard in self.shards for pair in shard.process(row).iter_pairs()
        ) == Counter(want)
        table, memo = self.reference.table, {}
        record = scored["stopdown"].record
        assert set(want) == {
            (constraint, subspace)
            for constraint in satisfied_constraints(record, self.reference.bound_cap)
            for subspace in nonempty_subspaces(
                self.schema.full_measure_mask, self.config.max_measure_dims
            )
            if is_contextual_skyline_tuple(record, table, constraint, subspace)
        }

        def definition(constraint, subspace):
            key = (constraint, subspace)
            if key not in memo:
                memo[key] = (
                    len(table.select_constraint(constraint)),
                    len(contextual_skyline(table, constraint, subspace)),
                )
            return memo[key]

        for facts in (*scored.values(), routed):
            for fact in scored_rows(facts):
                assert fact[2:] == definition(*fact[:2]), (type(facts), fact)
        svec, facts = self.algos["svec"], scored["svec"]
        sizes = svec.skyline_sizes(facts)
        for pair in facts.iter_pairs():
            sky = definition(*pair)[1]
            assert svec.skyline_size(*pair) == sizes[pair] == sky, pair
        return [scored[name] for name in BATCHED] + [routed]

    def retract(self, tid):
        """One delete on every per-row engine and algorithm."""
        self.flush()
        for name, algo in self.algos.items():
            if name in self.engines:
                self.engines[name].delete(tid)
            else:
                algo.retract(tid)
        self.router.delete(tid)
        for shard in self.shards:
            shard.retract(tid)

    def flush(self):
        """The twins take the pending run as one batch (assertion 4)."""
        if not self.pending:
            return
        rows = [self.given(row) for row, _ in self.pending]
        for i, twin in enumerate(self.twins):
            per_row = [facts[i] for _, facts in self.pending]
            if self.runs % 2:
                got = [reported_rows(r) for r in twin.observe_many(rows)]
                assert got == [
                    reported_rows(select_reportable(facts, self.config))
                    for facts in per_row
                ]
            else:
                got = twin.facts_for_many(rows)
                assert list(map(scored_rows, got)) == list(map(scored_rows, per_row))
                assert [f.record.tid for f in got] == [
                    f.record.tid for f in per_row
                ]
        self.check_twin_counters()
        self.pending = []
        self.runs += 1

    # -- state -----------------------------------------------------------
    def check_twin_counters(self):
        for twin, engine in zip(self.twins, self.per_row):
            assert twin.counters.snapshot() == engine.counters.snapshot()

    def check_state(self):
        """Assertions 2 (counters) and 3 after an op."""
        table = self.reference.table
        tids = [r.tid for r in table]
        cap = self.reference.bound_cap
        sizes = {
            constraint: len(table.select_constraint(constraint))
            for record in table
            for constraint in satisfied_constraints(record, cap)
        }
        for engine in self.scored:
            assert [r.tid for r in engine.table] == tids
            counter = engine.context_counter
            assert len(counter) == len(sizes)
            for constraint, size in sizes.items():
                assert counter.count(constraint) == size, constraint
        want = store_contents([self.reference])
        workers = [worker.links[0].engine.algorithm for worker in self.router._workers]
        assert store_contents([self.algos["svec"]]) == want
        assert store_contents(self.shards) == want
        assert store_contents(workers) == want
        counters = self.reference.counters.snapshot()
        assert self.algos["svec"].counters.snapshot() == counters
        total = sum((shard.counters for shard in self.shards), OpCounters())
        assert total.snapshot() == counters
        assert self.router.counters.snapshot() == counters

    def finish(self, probe):
        """Assertion 5: history independence."""
        self.flush()
        rows = [row for _, row in self.live]
        cap = self.reference.bound_cap
        constraints = {
            constraint
            for record in self.reference.table
            for constraint in satisfied_constraints(record, cap)
        }
        for name in STORE_ALGORITHMS:
            engine = self.engines[name]
            fresh = FactDiscoverer(self.schema, name, self.config)
            fresh.facts_for_many(rows)
            assert store_multiset(engine.algorithm) == store_multiset(
                fresh.algorithm
            ), name
            assert len(engine.context_counter) == len(fresh.context_counter)
            for constraint in constraints:
                assert engine.context_counter.count(
                    constraint
                ) == fresh.context_counter.count(constraint)
            assert scored_rows(engine.facts_for(probe)) == scored_rows(
                fresh.facts_for(probe)
            ), name

    def close(self):
        self.router.close()
        for twin in self.twins:
            twin.close()


def drive(scenario, records=False):
    run = Run(scenario, records)
    try:
        for op in scenario.ops:
            if run.apply(op):
                run.check_state()
        run.finish(scenario.probe)
    finally:
        run.close()


def drive_swept(scenario, armed, records=False):
    """Dense: the shipped sweep-index constants, which no short stream
    reaches.  Armed: the index arms after four rows, so the walk reads
    the packed prefix."""
    if armed:
        with sweep_constants(4):
            drive(scenario, records)
    else:
        drive(scenario, records)


@pytest.mark.parametrize("records", [False, True], ids=["mappings", "records"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "dhat", DHATS, ids=["uncapped" if d is None else f"dhat{d}" for d in DHATS]
)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_every_op_follows_the_definitions(family, dhat, policy, records, data):
    """One cell of the corpus's grid; m̂, the stream and the sweep
    index's side are drawn."""
    scenario = data.draw(
        stream_scenarios(families=(family,), dhats=(dhat,), policies=(policy,)),
        label="scenario",
    )
    drive_swept(scenario, data.draw(st.booleans(), label="armed"), records)


@pytest.mark.parametrize("armed", [False, True], ids=["dense", "armed"])
def test_a_delete_repairs_beyond_the_cap(armed):
    drive_swept(BEYOND_CAP_REPAIR, armed)


@pytest.mark.parametrize("armed", [False, True], ids=["dense", "armed"])
@pytest.mark.parametrize(
    "shape", PAST_CAP_SHAPES, ids=[f"d{d}m{m}" for d, m, _, _ in PAST_CAP_SHAPES]
)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_past_the_count_index_caps(shape, armed, data):
    """Shapes past the count index's caps, where ``svec`` counts
    skylines from its anchor-bit matrix."""
    drive_swept(data.draw(stream_scenarios(past_cap=shape), label="scenario"), armed)
