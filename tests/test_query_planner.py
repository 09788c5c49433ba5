"""Property suite for the PR-8 read path.

Four layers, one invariant: every acceleration — columnar kernels,
cost-ordered planning with τ/top-k early termination, sharded
push-down, the versioned result cache — must be *property-identical*
to exact scalar recomputation.  The suite fuzzes each layer against the
naive oracle on deletion-interleaved and ``None``-dimension streams,
covers beyond-``d̂`` constraints (where store reconstruction is
invalid and the kernels must take over), and drives the push-down ops
through injected worker crashes and the TCP ``query`` op.
"""

import asyncio
import json
import random

import pytest

from repro import Constraint, DiscoveryConfig, FactDiscoverer, TableSchema
from repro.api import EngineSpec, ShardingSpec, open_engine
from repro.core.constraint import UNBOUND
from repro.core.skyline import contextual_skyline, skyline_bnl
from repro.query import ContextualQueryEngine, QueryPlan, QueryResultCache
from repro.query.kernels import ColumnarQueryKernels
from repro.service import faults
from repro.service.server import StreamServer
from tests.strategies import open_router, seeded_rows, sweep_constants

SCHEMA = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))
#: d̂ = 2 on a 3-dimension schema: fully-bound constraints are
#: beyond-cap, so store/scoring-index answers are invalid for them and
#: the kernels/scalar path must take over.
CONFIG = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2)


def sample_pairs(rng, n_pairs=24):
    """Random (constraint, subspace) pairs spanning bound counts 0..3
    (3 = beyond the d̂=2 cap) and subspaces 0..3."""
    pairs = []
    for _ in range(n_pairs):
        values = tuple(
            rng.choice((UNBOUND, f"{p}{rng.randint(0, 2)}"))
            for p in ("a", "b", "c")
        )
        pairs.append((Constraint(values), rng.randint(0, 3)))
    # Pin the corner cases in every run.
    pairs.append((Constraint((UNBOUND,) * 3), 3))          # top, full space
    pairs.append((Constraint(("a1", "b1", "c1")), 3))      # beyond-cap
    pairs.append((Constraint(("a0", UNBOUND, UNBOUND)), 0))  # empty subspace
    return pairs


def ingest_with_deletions(engine, rows, delete_every=0, seed=11):
    rng = random.Random(seed)
    live = []
    for i, row in enumerate(rows):
        engine.observe(row)
        live.append(engine.arrivals - 1)
        if delete_every and i % delete_every == delete_every - 1:
            engine.delete(live.pop(rng.randrange(len(live))))


# ----------------------------------------------------------------------
# Columnar kernels vs the scalar oracle
# ----------------------------------------------------------------------
class TestKernelScalarParity:
    @pytest.mark.parametrize("none_frac,delete_every", [
        (0.0, 0), (0.0, 5), (0.25, 0), (0.25, 4),
    ])
    def test_full_read_surface_parity(self, none_frac, delete_every):
        engine = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
        ingest_with_deletions(
            engine,
            seeded_rows(60, 7, (3, 3, 2), "anticorrelated", none_frac),
            delete_every,
        )
        fast = ContextualQueryEngine(engine.algorithm, use_kernels=True)
        slow = ContextualQueryEngine(engine.algorithm, use_kernels=False)
        assert fast._kernels() is not None  # svec must engage the kernels
        rng = random.Random(17)
        for constraint, subspace in sample_pairs(rng):
            key = (constraint, subspace)
            got = sorted(r.tid for r in fast.skyline(constraint, subspace))
            want = sorted(r.tid for r in slow.skyline(constraint, subspace))
            oracle = sorted(
                r.tid
                for r in contextual_skyline(engine.table, constraint, subspace)
            )
            assert got == want == oracle, key
            for k in (1, 2, 3):
                got_band = sorted(
                    r.tid for r in fast.skyband(constraint, subspace, k)
                )
                want_band = sorted(
                    r.tid for r in slow.skyband(constraint, subspace, k)
                )
                assert got_band == want_band, (key, k)
            assert fast.context_size(constraint) == slow.context_size(
                constraint
            ), key
            assert fast.prominence(constraint, subspace) == slow.prominence(
                constraint, subspace
            ), key
            for record in list(engine.table)[:10]:
                assert fast.is_skyline_tuple(
                    record.tid, constraint, subspace
                ) == slow.is_skyline_tuple(record.tid, constraint, subspace), (
                    key,
                    record.tid,
                )

    def test_skyband_stays_on_the_kernels(self, monkeypatch):
        """svec answers every skyband through the one columnar
        dominance-count kernel, never through the scalar double loop's
        ``dominates`` — beyond-cap constraints and empty subspaces
        included."""
        from repro.query import contextual

        engine = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
        ingest_with_deletions(
            engine, seeded_rows(60, 7, (3, 3, 2), "anticorrelated", 0.25), 4
        )
        calls = []
        kernel = ColumnarQueryKernels.skyband_records

        def counted(self, *args):
            calls.append(args)
            return kernel(self, *args)

        def scalar(*args):
            raise AssertionError("svec skyband took the scalar loop")

        monkeypatch.setattr(ColumnarQueryKernels, "skyband_records", counted)
        monkeypatch.setattr(contextual, "dominates", scalar)
        queries = engine.query()
        pairs = sample_pairs(random.Random(17))
        for constraint, subspace in pairs:
            for k in (1, 2, 3):
                queries.skyband(constraint, subspace, k)
        assert len(calls) == 3 * len(pairs)

    def test_reads_of_unseen_values_intern_nothing(self):
        """A forward read looks the query's values up and never interns
        them: the value interner only grows, and any TCP ``query``
        client reaches this path.  The store has armed its sweep index:
        a read must leave that alone too."""
        with sweep_constants(8):
            engine = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
            engine.observe_many(
                seeded_rows(60, 7, (3, 3, 2), "anticorrelated", 0.25)
            )
            assert engine.algorithm.store.folded_sweep() is not None
            interner = engine.algorithm.context_counter.interner
            queries = engine.query()
            unseen = [f"new{i}" for i in range(50)]
            for value in unseen:
                for constraint in (
                    Constraint((value, UNBOUND, UNBOUND)),
                    Constraint(("a1", value, UNBOUND)),
                ):
                    assert queries.skyband(constraint, 3, 2) == []
                    assert queries.skyline(constraint, 3) == []
            for position in (0, 1):
                assert all(
                    interner.lookup(position, v) is None for v in unseen
                )

    def test_kernels_refuse_non_columnar_algorithms(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        engine.observe_many(seeded_rows(10, 7, (3, 3, 2), "anticorrelated"))
        assert ColumnarQueryKernels.for_algorithm(engine.algorithm) is None
        # …and the query engine still answers exactly via the scalar path.
        queries = ContextualQueryEngine(engine.algorithm)
        constraint = Constraint(("a1", UNBOUND, UNBOUND))
        got = sorted(r.tid for r in queries.skyline(constraint, 3))
        want = sorted(
            r.tid for r in contextual_skyline(engine.table, constraint, 3)
        )
        assert got == want

    def test_beyond_cap_store_paths_are_bypassed(self):
        """A fully-bound constraint (bound count 3 > d̂=2) may have
        skyline tuples anchored in no maintained store; the query engine
        must recompute rather than trust reconstruction."""
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        engine.observe_many(seeded_rows(60, 3, (3, 3, 2), "anticorrelated"))
        queries = engine.query()
        for values in {
            tuple(r.dims) for r in engine.table if UNBOUND not in r.dims
        }:
            constraint = Constraint(values)
            assert not queries._within_bound_cap(constraint)
            for subspace in (1, 2, 3):
                got = sorted(r.tid for r in queries.skyline(constraint, subspace))
                want = sorted(
                    r.tid
                    for r in contextual_skyline(
                        engine.table, constraint, subspace
                    )
                )
                assert got == want, (values, subspace)


# ----------------------------------------------------------------------
# Planner: identical reported set, fewer evaluations
# ----------------------------------------------------------------------
BOUND_GRID = [
    {},
    {"top_k": 1},
    {"top_k": 3},
    {"tau": 2.0},
    {"tau": 1.0, "top_k": 2},
]


def naive_batch(engine, pairs, top_k=None, tau=None):
    """Input-order oracle computed from raw table scans only."""
    table = list(engine.table)
    proms = []
    for constraint, subspace in pairs:
        context = [r for r in table if constraint.satisfied_by(r)]
        sky = skyline_bnl(context, subspace)
        proms.append(None if not sky else len(context) / len(sky))
    keep = [
        i
        for i, p in enumerate(proms)
        if p is not None and (tau is None or p >= tau)
    ]
    if top_k is not None:
        ranked = sorted((proms[i] for i in keep), reverse=True)
        if len(ranked) >= top_k:
            theta = ranked[top_k - 1]
            keep = [i for i in keep if proms[i] >= theta]
    if tau is None and top_k is None:
        keep = list(range(len(pairs)))
    return [(i, proms[i]) for i in keep]


class TestPlannerIdentity:
    def _engine(self, seed=7):
        engine = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
        rows = seeded_rows(80, seed, (3, 3, 2), "anticorrelated")
        ingest_with_deletions(engine, rows, delete_every=7)
        return engine

    @pytest.mark.parametrize("bounds", BOUND_GRID)
    def test_planned_equals_fixed_order_equals_oracle(self, bounds):
        engine = self._engine()
        pairs = sample_pairs(random.Random(23), n_pairs=20)
        queries = engine.query()
        planned = queries.batch(pairs, **bounds)
        fixed = queries.batch(pairs, _fixed_order=True, **bounds)
        want = naive_batch(engine, pairs, **bounds)
        want_keys = [(*pairs[i], p) for i, p in want]
        for got in (planned, fixed):
            got_keys = [(r.constraint, r.subspace, r.prominence) for r in got]
            assert got_keys == want_keys, bounds
        for r_planned, r_fixed in zip(planned, fixed):
            assert sorted(x.tid for x in r_planned.skyline) == sorted(
                x.tid for x in r_fixed.skyline
            )
            assert r_planned.context_size == r_fixed.context_size
            assert r_planned.skyline_size == r_fixed.skyline_size

    def test_early_termination_skips_without_changing_results(self):
        """With a top-1 bound over a workload of one huge-context pair
        and many tiny ones, the planner must prove the tiny pairs
        unreportable from their counter upper bounds alone."""
        engine = self._engine(seed=5)
        # One dominant pair (whole table, one measure) + narrow pairs.
        pairs = [(Constraint((UNBOUND, UNBOUND, UNBOUND)), 1)] + [
            (Constraint((f"a{i % 3}", f"b{(i // 3) % 3}", UNBOUND)), 2)
            for i in range(9)
        ]
        queries = engine.query()
        plan = QueryPlan(queries, pairs, top_k=1)
        results = plan.execute()
        assert plan.skipped > 0
        assert plan.evaluated_count + plan.stats_hits + plan.skipped == len(pairs)
        want = naive_batch(engine, pairs, top_k=1)
        assert [
            (r.constraint, r.subspace, r.prominence) for r in results
        ] == [(*pairs[i], p) for i, p in want]

    def test_explain_exposes_cost_model(self):
        engine = self._engine()
        pairs = sample_pairs(random.Random(2), n_pairs=10)
        plan = QueryPlan(engine.query(), pairs)
        rows = plan.explain()
        assert len(rows) == len(pairs)
        assert {row["mode"] for row in rows} <= {"indexed", "counted", "scan"}
        for row in rows:
            assert row["cost"] >= 0

    def test_bad_top_k_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="top_k"):
            engine.query().batch(["* | m0"], top_k=0)

    @pytest.mark.parametrize("kind", [
        "single-stopdown", "sharded-serial", "windowed", "query-cached",
        "sharded-cached",
    ])
    def test_batch_identity_across_compositions(self, kind):
        specs = {
            "single-stopdown": lambda: EngineSpec(SCHEMA, "stopdown", CONFIG),
            "sharded-serial": lambda: EngineSpec(
                SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial")
            ),
            "windowed": lambda: EngineSpec(
                SCHEMA, "stopdown", CONFIG, window=4096
            ),
            "query-cached": lambda: EngineSpec(
                SCHEMA, "svec", CONFIG, query_cache=64
            ),
            "sharded-cached": lambda: EngineSpec(
                SCHEMA, "svec", CONFIG,
                sharding=ShardingSpec(2, "serial"), query_cache=64,
            ),
        }
        rows = seeded_rows(50, 13, (3, 3, 2), "anticorrelated")
        pairs = sample_pairs(random.Random(29), n_pairs=16)
        with open_engine(specs[kind]()) as engine:
            ingest_with_deletions(engine, rows, delete_every=6)
            for bounds in BOUND_GRID:
                got = engine.query().batch(pairs, **bounds)
                want = naive_batch(engine, pairs, **bounds)
                assert [
                    (r.constraint, r.subspace, r.prominence) for r in got
                ] == [(*pairs[i], p) for i, p in want], (kind, bounds)


# ----------------------------------------------------------------------
# Versioned result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction_and_version_staleness(self):
        cache = QueryResultCache(2)
        cache.put("a", (1, 0), "A")
        cache.put("b", (1, 0), "B")
        assert cache.get("a", (1, 0)) == (True, "A")
        cache.put("c", (1, 0), "C")  # evicts "b" (a was touched)
        assert cache.get("b", (1, 0))[0] is False
        assert cache.evictions == 1
        # Same key, newer version: stale entry is a miss, then replaced.
        assert cache.get("a", (2, 0))[0] is False
        cache.put("a", (2, 0), "A2")
        assert cache.get("a", (2, 0)) == (True, "A2")
        assert len(cache) == 2
        with pytest.raises(ValueError, match="capacity"):
            QueryResultCache(0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="query_cache"):
            EngineSpec(SCHEMA, query_cache=0)
        doc = EngineSpec(SCHEMA, "svec", CONFIG, query_cache=9).to_dict()
        assert EngineSpec.from_dict(doc).query_cache == 9
        # Back-compat: old spec dicts without the field still load.
        doc.pop("query_cache")
        assert EngineSpec.from_dict(doc).query_cache is None

    def test_hits_and_write_invalidation(self):
        with open_engine(
            EngineSpec(SCHEMA, "svec", CONFIG, query_cache=32)
        ) as engine:
            engine.observe_many(
                seeded_rows(30, 7, (3, 3, 2), "anticorrelated")
            )
            q = engine.query()
            first = q.skyline_text("d0=a1 | m0, m1")
            again = q.skyline_text("d0=a1 | m0, m1")
            assert [r.tid for r in first] == [r.tid for r in again]
            counters = engine.stats()["query_cache"]
            assert counters["hits"] == 1 and counters["misses"] == 1
            # Any write bumps (arrivals, deletions): cached answers stale.
            engine.observe({"d0": "a1", "d1": "b0", "d2": "c0",
                            "m0": 99, "m1": 99})
            fresh = engine.query().skyline_text("d0=a1 | m0, m1")
            assert [r.tid for r in fresh] == [len(engine.table) - 1 + 0] or (
                len(fresh) == 1
            )
            assert engine.stats()["query_cache"]["misses"] == 2
            engine.delete(fresh[0].tid)
            after_delete = engine.query().skyline_text("d0=a1 | m0, m1")
            assert fresh[0].tid not in [r.tid for r in after_delete]
            # Mutating a returned list must not poison the cache.
            after_delete.append("junk")
            assert "junk" not in engine.query().skyline_text(
                "d0=a1 | m0, m1"
            )
            stats = engine.stats()
            assert stats["kind"] == "query-cached"
            assert stats["query_cache"]["hits"] >= 1
            json.dumps(stats)
            # A repeated skyband read is one miss, then hits only.
            band = Constraint(("a1", UNBOUND, UNBOUND))
            before = engine.stats()["query_cache"]
            first = [r.tid for r in q.skyband(band, 3, 2)]
            for _ in range(3):
                assert [r.tid for r in q.skyband(band, 3, 2)] == first
            after = engine.stats()["query_cache"]
            assert after["hits"] - before["hits"] == 3
            assert after["misses"] - before["misses"] == 1

    def test_fuzz_cached_equals_uncached_under_interleaved_writes(self):
        rng = random.Random(41)
        rows = seeded_rows(70, 19, (3, 3, 2), "anticorrelated", 0.1)
        cached = open_engine(
            EngineSpec(SCHEMA, "svec", CONFIG, query_cache=16)
        )
        plain = open_engine(EngineSpec(SCHEMA, "svec", CONFIG))
        pairs = sample_pairs(rng, n_pairs=10)
        try:
            live = []
            for i, row in enumerate(rows):
                for engine in (cached, plain):
                    engine.observe(row)
                live.append(cached.arrivals - 1)
                if rng.random() < 0.15 and live:
                    tid = live.pop(rng.randrange(len(live)))
                    cached.delete(tid)
                    plain.delete(tid)
                if i % 5 == 4:
                    constraint, subspace = pairs[rng.randrange(len(pairs))]
                    # Repeat each read so later repeats hit the cache.
                    for _ in range(2):
                        got = sorted(
                            r.tid for r in cached.query().skyline(
                                constraint, subspace
                            )
                        )
                        want = sorted(
                            r.tid for r in plain.query().skyline(
                                constraint, subspace
                            )
                        )
                        assert got == want, (i, constraint, subspace)
                        assert cached.query().prominence(
                            constraint, subspace
                        ) == plain.query().prominence(constraint, subspace)
            counters = cached.stats()["query_cache"]
            assert counters["hits"] > 0
            assert counters["misses"] > 0
        finally:
            cached.close()
            plain.close()


# ----------------------------------------------------------------------
# Sharded push-down under injected faults
# ----------------------------------------------------------------------
class TestPushDownFaults:
    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.clear()
        yield
        faults.clear()

    @pytest.mark.parametrize("op", ["skyband", "top_k"])
    def test_query_op_crash_restarts_and_answers(self, op):
        rows = seeded_rows(36, 9, (3, 3, 2), "anticorrelated")
        reference = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
        reference.observe_many(rows)
        faults.install([
            {"point": "worker.op", "action": "crash", "op": op, "after": 1}
        ])
        engine = open_router(
            SCHEMA, 2, "process", CONFIG, chunk_size=12, op_timeout=15
        )
        try:
            engine.observe_many(rows)
            constraint = Constraint(("a1", UNBOUND, UNBOUND))
            queries = engine.query()
            if op == "skyband":
                got = sorted(
                    r.tid for r in queries.skyband(constraint, 3, 2)
                )
                want = sorted(
                    r.tid
                    for r in reference.query().skyband(constraint, 3, 2)
                )
            else:
                got = queries.prominence(constraint, 3)
                want = reference.query().prominence(constraint, 3)
            assert got == want
            assert engine.fault_counters()["worker_restarts"] >= 1
        finally:
            engine.close()


# ----------------------------------------------------------------------
# TCP query op
# ----------------------------------------------------------------------
class TestTcpQueryOp:
    def test_query_op_round_trip(self):
        rows = seeded_rows(30, 31, (3, 3, 2), "anticorrelated")

        async def run():
            engine = open_engine(
                EngineSpec(SCHEMA, "svec", CONFIG, query_cache=32)
            )
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            for row in rows:
                await call({"op": "ingest", "row": row})
            text = "d0=a1 | m0, m1"
            sky = await call({"op": "query", "q": text})
            sky_again = await call({"op": "query", "q": text})
            band = await call(
                {"op": "query", "q": text, "kind": "skyband", "k": 2}
            )
            prom = await call({"op": "query", "q": text, "kind": "prominence"})
            bad_query = await call({"op": "query", "q": "no pipe"})
            bad_kind = await call(
                {"op": "query", "q": text, "kind": "mystery"}
            )
            stats = await call({"op": "stats"})
            writer.close()
            await server.stop()
            return engine, sky, sky_again, band, prom, bad_query, bad_kind, stats

        (engine, sky, sky_again, band, prom, bad_query, bad_kind,
         stats) = asyncio.run(run())
        try:
            from repro.query.parser import parse_query

            constraint, subspace = parse_query("d0=a1 | m0, m1", SCHEMA)
            want = sorted(
                r.tid
                for r in contextual_skyline(engine.table, constraint, subspace)
            )
            assert sorted(sky["tids"]) == want
            assert sky_again == sky
            assert set(sky["tids"]) <= set(band["tids"])
            context = [
                r for r in engine.table if constraint.satisfied_by(r)
            ]
            assert prom["context_size"] == len(context)
            assert prom["prominence"] == pytest.approx(
                len(context) / len(want)
            )
            assert "error" in bad_query and "error" in bad_kind
            assert stats["stats"]["query_cache_hits"] >= 1
        finally:
            engine.close()
