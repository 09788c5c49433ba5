"""Engine-protocol conformance suite (`repro.api` facade).

Every engine composition built through ``open_engine`` must honour the
same :class:`repro.api.Engine` protocol and — where the composition is
semantics-preserving — produce property-identical output on a shared
stream: facts in emission order, scores, op-counter totals, deletions.
Windowed and aggregate compositions additionally prove equivalent to
hand-wired references of their semantics, and every composition
round-trips through a v3 snapshot (spec → snapshot → spec).
"""

import asyncio
import json

import pytest

from repro import (
    Constraint,
    DiscoveryConfig,
    FactDiscoverer,
    TableSchema,
    open_engine,
)
from repro.api import (
    CheckpointPolicy,
    Engine,
    EngineSpec,
    GroupSpec,
    ShardingSpec,
)
from repro.core.skyline import contextual_skyline
from repro.extensions import load_engine
from repro.storage import sweep_index as sweep_module
from tests.strategies import seeded_rows

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))
CONFIG = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2)
ROWS = seeded_rows(40, 7, (3, 3), "anticorrelated")


def fact_key(fact):
    return (
        fact.constraint.values,
        fact.subspace,
        fact.context_size,
        fact.skyline_size,
    )


def counters_total(engine):
    snap = engine.counters.snapshot()
    return {
        k: snap[k]
        for k in ("comparisons", "traversed_constraints", "stored_tuples")
    }


#: Spec factory per engine kind.  The windowed kind uses a window larger
#: than the stream, so it participates in the identical-output matrix
#: (true eviction semantics are covered separately below).
ENGINE_SPECS = {
    "single-stopdown": lambda: EngineSpec(SCHEMA, "stopdown", CONFIG),
    "single-svec": lambda: EngineSpec(SCHEMA, "svec", CONFIG),
    "sharded-serial": lambda: EngineSpec(
        SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial")
    ),
    "sharded-process": lambda: EngineSpec(
        SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "process")
    ),
    "windowed": lambda: EngineSpec(SCHEMA, "stopdown", CONFIG, window=4096),
    "windowed-svec": lambda: EngineSpec(SCHEMA, "svec", CONFIG, window=4096),
    "query-cached": lambda: EngineSpec(
        SCHEMA, "svec", CONFIG, query_cache=128
    ),
    "query-cached-sharded": lambda: EngineSpec(
        SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial"),
        query_cache=128,
    ),
}

KINDS = sorted(ENGINE_SPECS)


@pytest.fixture(autouse=True, params=["armed-index", "never-armed"])
def sweep_side(request, monkeypatch):
    """Every test runs on both sides of the ``svec`` store's one
    internal choice.  ``armed-index``: the sweep index arms after 8 rows
    and folds every 8, so the 40-row shared stream actually walks the
    packed prefix (forked process workers inherit the shrunk module
    constants).  ``never-armed``: the shipped constants, which no stream
    here reaches, so every sweep is dense.  The two sides are required
    to be property-identical, and non-``svec`` kinds are unaffected by
    construction — which is exactly what the equivalence matrix proves.
    """
    if request.param == "armed-index":
        monkeypatch.setattr(sweep_module, "ARM_ROWS", 8)
        monkeypatch.setattr(sweep_module, "DEFAULT_FOLD_BATCH", 8)
    return request.param


def run_stream(engine, rows, delete_every=0):
    """Observe ``rows`` (interleaving deletions when asked); returns the
    per-arrival fact keys."""
    out = []
    live = []
    for i, row in enumerate(rows):
        out.append([fact_key(f) for f in engine.observe(row)])
        live.append(engine.arrivals - 1)
        if delete_every and i % delete_every == delete_every - 1 and live:
            tid = live.pop(len(live) // 2)
            engine.delete(tid)
    return out


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
class TestProtocolConformance:
    @pytest.mark.parametrize("kind", KINDS)
    def test_protocol_members(self, kind):
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            assert isinstance(engine, Engine)
            for attr in ("schema", "discovery_schema", "config", "table",
                         "counters", "spec", "score", "kind"):
                assert hasattr(engine, attr), attr
            engine.observe_many(ROWS[:8])
            assert len(engine) == 8
            stats = engine.stats()
            assert stats["rows"] == 8
            assert {"kind", "score", "counters"} <= set(stats)
            json.dumps(stats)  # must be JSON-able
            # One uniform spec → dict → spec round trip.
            doc = engine.spec.to_dict()
            assert EngineSpec.from_dict(doc).to_dict() == doc
        # Context-manager exit closed it; close() stays idempotent.
        engine.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_update_matches_delete_then_observe(self, kind):
        with open_engine(ENGINE_SPECS[kind]()) as engine, open_engine(
            ENGINE_SPECS[kind]()
        ) as reference:
            engine.observe_many(ROWS[:10])
            reference.observe_many(ROWS[:10])
            replacement = {"d0": "a0", "d1": "b9", "m0": 9, "m1": 9}
            got = [fact_key(f) for f in engine.update(3, replacement)]
            reference.delete(3)
            want = [fact_key(f) for f in reference.observe(replacement)]
            assert got == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_query_uniform(self, kind):
        """engine.query() answers forward skylines on every composition
        — including sharded engines, which historically could not."""
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            engine.observe_many(ROWS)
            queries = engine.query()
            for mapping, measures in (
                ({}, ("m0",)),
                ({"d0": "a1"}, ("m0", "m1")),
                ({"d1": "b2"}, ("m1",)),
            ):
                constraint = Constraint.from_mapping(SCHEMA, mapping)
                subspace = SCHEMA.measure_mask(measures)
                got = sorted(r.tid for r in queries.skyline(constraint, subspace))
                want = sorted(
                    r.tid
                    for r in contextual_skyline(
                        engine.table, constraint, subspace
                    )
                )
                assert got == want, (kind, mapping, measures)
                prom = queries.prominence(constraint, subspace)
                assert prom is None or prom >= 1.0


# ----------------------------------------------------------------------
# Identical output across compositions
# ----------------------------------------------------------------------
class TestOutputEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_stream_property_identical(self, kind):
        reference = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        want = run_stream(reference, ROWS)
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            got = run_stream(engine, ROWS)
            assert got == want
            assert counters_total(engine) == counters_total(reference)

    def test_fixture_settings_select_the_side(self, sweep_side):
        with open_engine(ENGINE_SPECS["single-svec"]()) as engine:
            run_stream(engine, ROWS)
            armed = engine.algorithm.store.folded_sweep() is not None
            assert armed == (sweep_side == "armed-index")

    @pytest.mark.parametrize("kind", ["single-svec", "sharded-serial",
                                      "sharded-process", "windowed",
                                      "windowed-svec", "query-cached"])
    def test_deletion_interleaved_property_identical(self, kind):
        reference = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        want = run_stream(reference, ROWS, delete_every=5)
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            got = run_stream(engine, ROWS, delete_every=5)
            assert got == want
            assert counters_total(engine) == counters_total(reference)

    @pytest.mark.parametrize(
        "kind", ["single-stopdown", "single-svec", "sharded-serial",
                 "windowed"]
    )
    def test_snapshot_restored_engine_is_identical(self, kind, tmp_path):
        """spec → snapshot → restore mid-stream equals the uninterrupted
        engine: same remaining-stream facts and same counter totals."""
        path = str(tmp_path / "mid.json")
        uninterrupted = open_engine(ENGINE_SPECS[kind]())
        want_head = run_stream(uninterrupted, ROWS[:20])
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            assert run_stream(engine, ROWS[:20]) == want_head
            engine.snapshot(path)
        restored = load_engine(path)
        assert restored.spec.to_dict() == uninterrupted.spec.to_dict()
        assert run_stream(restored, ROWS[20:]) == run_stream(
            uninterrupted, ROWS[20:]
        )
        assert counters_total(restored) == counters_total(uninterrupted)
        restored.close()
        uninterrupted.close()


# ----------------------------------------------------------------------
# Batched queries: planner output identical on every composition
# ----------------------------------------------------------------------
class TestBatchQueryConformance:
    QUERIES = [
        "* | m0",
        "d0=a0 | m0, m1",
        "d0=a1 & d1=b1 | m1",
        "d1=b2 | m0",
        "d0=a2 | m0, m1",
        "d0=a0 & d1=b0 | m0",
        "d0=zz | m0",  # empty context — never reportable
    ]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "bounds", [{}, {"top_k": 2}, {"tau": 2.0}, {"top_k": 2, "tau": 1.5}]
    )
    def test_batch_matches_naive_reference(self, kind, bounds):
        """``query().batch`` reports the same pairs, statistics and
        skylines as naive input-order evaluation on the reference
        engine, whatever the composition and bounds."""
        reference = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        reference.observe_many(ROWS)
        want = reference.query().batch(
            self.QUERIES, _fixed_order=True, **bounds
        )
        with open_engine(ENGINE_SPECS[kind]()) as engine:
            engine.observe_many(ROWS)
            got = engine.query().batch(self.QUERIES, **bounds)
            assert [(r.constraint, r.subspace) for r in got] == [
                (r.constraint, r.subspace) for r in want
            ], (kind, bounds)
            for g, w in zip(got, want):
                assert g.prominence == w.prominence
                assert g.context_size == w.context_size
                assert g.skyline_size == w.skyline_size
                assert sorted(r.tid for r in g.skyline) == sorted(
                    r.tid for r in w.skyline
                )


# ----------------------------------------------------------------------
# Columnar scoring and selection on the benchmark's two stream shapes
# ----------------------------------------------------------------------
class TestColumnarScoringStreams:
    """``svec`` scores and selects in columns (per-mask count vectors,
    cell-form fact sets, winners-only materialisation).  On wide streams
    with interleaved deletes, a sliding window and None-dimension rows
    (which the walk takes as data), the single engine, scalar
    ``stopdown`` and the process-sharded pool must agree on every fact
    in emission order, both cardinalities, the reportable selection in
    its order, and the op counters."""

    WINDOW = 24

    @staticmethod
    def scenario(n_dims, n_measures, distribution, n):
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        rows = synthetic_rows(
            n, n_dims, n_measures, distribution=distribution,
            cardinalities=[3] * n_dims, seed=11,
        )
        for i, row in enumerate(rows):
            if i % 5 == 3:  # unbindable (None) dimension values
                row[f"d{i % n_dims}"] = None
        return synthetic_schema(n_dims, n_measures), rows

    def run(self, spec, rows):
        """Per arrival: (full S_t keys, reportable keys); plus the
        final counters.  Every 6th arrival deletes a mid-window tid."""
        from repro.core.prominence import select_reportable

        out = []
        live = []
        with open_engine(spec) as engine:
            for i, row in enumerate(rows):
                if len(live) >= self.WINDOW:
                    live.pop(0)
                facts = engine.facts_for(row)
                live.append(facts.record.tid)
                out.append((
                    [fact_key(f) for f in facts],
                    [fact_key(f) for f in select_reportable(facts, spec.config)],
                ))
                if i % 6 == 5:
                    engine.delete(live.pop(len(live) // 2))
            return out, engine.counters.snapshot()

    @pytest.mark.parametrize("policy", [{"top_k": 5}, {"tau": 2.0}])
    @pytest.mark.parametrize(
        "shape", [(5, 5, "independent", 40), (4, 4, "anticorrelated", 60)],
        ids=["d5m5-independent", "d4m4-anticorrelated"],
    )
    def test_svec_stopdown_and_process_shards_agree(self, shape, policy):
        schema, rows = self.scenario(*shape)
        config = DiscoveryConfig(**policy)
        runs = {}
        for name, algorithm, sharding in (
            ("stopdown", "stopdown", None),
            ("svec", "svec", None),
            ("sharded", "svec", ShardingSpec(2, "process")),
        ):
            spec = EngineSpec(
                schema, algorithm, config, sharding=sharding,
                window=self.WINDOW,
            )
            runs[name] = self.run(spec, rows)
        assert runs["svec"] == runs["stopdown"]
        assert runs["sharded"] == runs["stopdown"]
        facts, reported = zip(*runs["svec"][0])
        assert max(map(len, facts)) >= (500 if shape[0] == 5 else 100)
        assert any(0 < len(r) < len(f) for f, r in zip(facts, reported))


# ----------------------------------------------------------------------
# Middleware semantics (windowed / aggregate)
# ----------------------------------------------------------------------
class TestWindowedSemantics:
    def test_equivalent_to_manual_eviction(self):
        window = 6
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, window=window)
        reference = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        live = []
        with open_engine(spec) as engine:
            for row in ROWS:
                while len(live) >= window:
                    reference.delete(live.pop(0))
                want = [fact_key(f) for f in reference.observe(row)]
                live.append(reference.arrivals - 1)
                got = [fact_key(f) for f in engine.observe(row)]
                assert got == want
            assert len(engine) == window
            assert engine.live_tids == live
            assert counters_total(engine) == counters_total(reference)

    def test_windowed_sharded_composition(self):
        """A window layered over a *sharded* engine — composable for the
        first time through the facade."""
        spec = EngineSpec(
            SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial"),
            window=5,
        )
        single = EngineSpec(SCHEMA, "stopdown", CONFIG, window=5)
        with open_engine(spec) as sharded, open_engine(single) as reference:
            for row in ROWS[:25]:
                got = [fact_key(f) for f in sharded.observe(row)]
                want = [fact_key(f) for f in reference.observe(row)]
                assert got == want
            assert len(sharded) == 5


class TestAtomicDeleteMany:
    """A grouped retraction naming an unknown or repeated tid raises
    ``KeyError`` before its first removal: the table, the stores and
    the window keep every row, so the caller has nothing to recover."""

    BAD = ([0, 99], [1, 1])

    @staticmethod
    def _state(engine):
        return (
            [r.tid for r in engine.table],
            engine.version,
            len(engine.context_counter),
            counters_total(engine),
        )

    def test_svec(self):
        engine = FactDiscoverer(SCHEMA, algorithm="svec", config=CONFIG)
        engine.observe_many(ROWS[:6])

        def state():
            return self._state(engine), {
                key: {r.tid for r in records}
                for key, records in engine.algorithm.store.iter_pairs()
            }

        before = state()
        for tids in self.BAD:
            with pytest.raises(KeyError):
                engine.delete_many(tids)
            assert state() == before
        assert [r.tid for r in engine.delete_many([3, 1])] == [3, 1]

    def test_serial_router(self):
        from tests.strategies import open_router

        with open_router(SCHEMA, config=CONFIG) as router:
            router.observe_many(ROWS[:6])
            before = self._state(router)
            for tids in self.BAD:
                with pytest.raises(KeyError):
                    router.delete_many(tids)
                assert self._state(router) == before
                for worker in router._workers:
                    shard = worker.links[0].engine.algorithm
                    assert [r.tid for r in shard.table] == before[0]
            assert [r.tid for r in router.delete_many([3, 1])] == [3, 1]

    def test_windowed_engine_keeps_its_rows(self):
        spec = EngineSpec(SCHEMA, "svec", CONFIG, window=3)
        with open_engine(spec) as engine:
            evicted = []
            engine.add_retraction_listener(
                lambda records: evicted.extend(r.tid for r in records)
            )
            engine.observe_many(ROWS[:3])
            for tids in self.BAD:
                with pytest.raises(KeyError):
                    engine.delete_many(tids)
                assert engine.live_tids == [0, 1, 2]
            # The next arrival evicts tid 0 (the listener sees it) and
            # keeps its own row.
            engine.observe(ROWS[3])
            assert engine.live_tids == [1, 2, 3]
            assert [r.tid for r in engine.table] == [1, 2, 3]
            assert evicted == [0]


AGG = GroupSpec(
    ("d0",), {"total": ("m0", "sum"), "games": ("m0", "count"),
              "best": ("m1", "max")}
)


class TestAggregateSemantics:
    def _reference(self):
        """Hand-wired aggregate reference: fold + retract + observe."""
        agg_schema = AGG.discovery_schema()
        ref = FactDiscoverer(agg_schema, algorithm="stopdown", config=CONFIG)
        sums, counts, best, live = {}, {}, {}, {}

        def push(row):
            key = row["d0"]
            sums[key] = sums.get(key, 0.0) + row["m0"]
            counts[key] = counts.get(key, 0) + 1
            best[key] = max(best.get(key, float("-inf")), row["m1"])
            if key in live:
                ref.delete(live[key])
            facts = ref.observe({
                "d0": key, "total": sums[key],
                "games": float(counts[key]), "best": float(best[key]),
            })
            live[key] = ref.arrivals - 1
            return facts

        return ref, push

    def test_equivalent_to_manual_fold(self):
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, aggregate=AGG)
        ref, push = self._reference()
        with open_engine(spec) as engine:
            for row in ROWS:
                got = [fact_key(f) for f in engine.observe(row)]
                want = [fact_key(f) for f in push(row)]
                assert got == want
            assert len(engine) == len(ref.table)
            assert counters_total(engine) == counters_total(ref)
            # Schemas split: validation on base rows, facts on aggregates.
            assert engine.schema.dimensions == SCHEMA.dimensions
            assert engine.discovery_schema.measures == ("total", "games", "best")

    def test_aggregate_over_a_sharded_router(self):
        """The router discovers over the aggregate relation, so the
        sharded composition emits exactly the unsharded one's facts."""
        from dataclasses import replace

        from repro.service import ShardedDiscoverer

        spec = EngineSpec(SCHEMA, "svec", CONFIG, aggregate=AGG)
        sharded = replace(spec, sharding=ShardingSpec(2, "serial"))
        with open_engine(spec) as single, open_engine(sharded) as routed:
            assert isinstance(routed.inner, ShardedDiscoverer)
            assert routed.inner.schema == sharded.discovery_schema
            want = [[fact_key(f) for f in single.facts_for(r)] for r in ROWS]
            got = [[fact_key(f) for f in routed.facts_for(r)] for r in ROWS]
        assert got == want
        assert sum(map(len, want)) > 0

    def test_aggregate_delete_is_rejected(self):
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, aggregate=AGG)
        with open_engine(spec) as engine:
            engine.observe(ROWS[0])
            with pytest.raises(RuntimeError, match="group"):
                engine.delete(0)

    def test_aggregate_snapshot_replays_base_rows(self, tmp_path):
        """v3 persists the base-row journal, not the derived aggregates
        — restoring and continuing matches the uninterrupted fold."""
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, aggregate=AGG)
        path = str(tmp_path / "agg.json")
        uninterrupted = open_engine(spec)
        with open_engine(spec) as engine:
            for row in ROWS[:20]:
                engine.observe(row)
                uninterrupted.observe(row)
            engine.snapshot(path)
        doc = json.load(open(path))
        assert doc["format_version"] == 3
        assert len(doc["rows"]) == 20  # journal: every base row
        restored = load_engine(path)
        for row in ROWS[20:]:
            got = [fact_key(f) for f in restored.observe(row)]
            want = [fact_key(f) for f in uninterrupted.observe(row)]
            assert got == want
        assert restored.group_count() == uninterrupted.group_count()
        restored.close()
        uninterrupted.close()


# ----------------------------------------------------------------------
# Sharded query parity (the historical gap)
# ----------------------------------------------------------------------
class TestShardedQueryParity:
    def test_skyline_prominence_skyband_match_single(self):
        spec = EngineSpec(
            SCHEMA, "svec", CONFIG, sharding=ShardingSpec(3, "serial")
        )
        single = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        with open_engine(spec) as sharded:
            sharded.observe_many(ROWS)
            single.observe_many(ROWS)
            q_sharded, q_single = sharded.query(), single.query()
            cases = [
                (Constraint.from_mapping(SCHEMA, {}), ("m0", "m1")),
                (Constraint.from_mapping(SCHEMA, {"d0": "a0"}), ("m0",)),
                (Constraint.from_mapping(SCHEMA, {"d0": "a2", "d1": "b1"}),
                 ("m1",)),
            ]
            for constraint, measures in cases:
                subspace = SCHEMA.measure_mask(measures)
                assert sorted(
                    r.tid for r in q_sharded.skyline(constraint, subspace)
                ) == sorted(
                    r.tid for r in q_single.skyline(constraint, subspace)
                )
                assert q_sharded.prominence(
                    constraint, subspace
                ) == q_single.prominence(constraint, subspace)
                assert sorted(
                    r.tid for r in q_sharded.skyband(constraint, subspace, 2)
                ) == sorted(
                    r.tid for r in q_single.skyband(constraint, subspace, 2)
                )
                assert q_sharded.context_size(
                    constraint
                ) == q_single.context_size(constraint)

    def test_sharded_query_closed_engine_raises(self):
        spec = EngineSpec(
            SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial")
        )
        engine = open_engine(spec)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.query()


# ----------------------------------------------------------------------
# Spec validation and serialisation
# ----------------------------------------------------------------------
class TestEngineSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(SCHEMA),
            EngineSpec(SCHEMA, "svec", CONFIG, score=False),
            EngineSpec(SCHEMA, "svec", sharding=ShardingSpec(4, "process", 32)),
            EngineSpec(SCHEMA, window=7),
            EngineSpec(SCHEMA, aggregate=AGG),
            EngineSpec(SCHEMA, checkpoint=CheckpointPolicy("x.json", 1.5)),
        ],
    )
    def test_json_round_trip(self, spec):
        doc = json.loads(json.dumps(spec.to_dict()))
        assert EngineSpec.from_dict(doc).to_dict() == spec.to_dict()

    def test_checkpoint_spec_from_before_thread_and_supervise_retired(self):
        # Verbatim ``EngineSpec.to_dict()`` of the commit before the
        # ``thread`` mode and the ``supervise`` switch were removed, as
        # v3 snapshots embed it.
        doc = {
            "schema": {
                "dimensions": ["d0", "d1"],
                "measures": ["m0", "m1"],
                "preferences": {},
            },
            "algorithm": "svec",
            "config": {
                "max_bound_dims": None,
                "max_measure_dims": None,
                "tau": None,
                "top_k": None,
            },
            "score": True,
            "sharding": {
                "workers": 3,
                "mode": "thread",
                "chunk_size": 96,
                "supervise": False,
                "op_timeout": 60.0,
                "max_restarts": 3,
                "remote": None,
            },
            "window": None,
            "aggregate": None,
            "checkpoint": None,
            "sweep_index": "auto",
            "query_cache": None,
            "feeds": None,
        }
        spec = EngineSpec.from_dict(doc)
        assert spec.sharding == ShardingSpec(3, "serial")
        assert "supervise" not in spec.to_dict()["sharding"]
        with pytest.raises(ValueError, match="sharding.mode"):
            ShardingSpec(3, "thread")

    @pytest.mark.parametrize("value", ["auto", "on", "off"])
    def test_checkpoint_from_before_sweep_index_retired(self, value, tmp_path):
        # Verbatim v3 checkpoint of the commit before the store chose
        # its own sweep side: the spec carries a ``sweep_index`` key.
        doc = {
            "format_version": 3,
            "spec": {
                "schema": {
                    "dimensions": ["d0", "d1"],
                    "measures": ["m0", "m1"],
                    "preferences": {},
                },
                "algorithm": "svec",
                "config": {
                    "max_bound_dims": 2,
                    "max_measure_dims": 2,
                    "tau": None,
                    "top_k": None,
                },
                "score": True,
                "sharding": {
                    "workers": 2,
                    "mode": "serial",
                    "chunk_size": 96,
                    "op_timeout": 60.0,
                    "max_restarts": 3,
                    "remote": None,
                },
                "window": None,
                "aggregate": None,
                "checkpoint": None,
                "sweep_index": value,
                "query_cache": None,
                "feeds": None,
            },
            "rows": [
                {"d0": "a0", "d1": "b1", "m0": 3, "m1": 4},
                {"d0": "a0", "d1": "b0", "m0": 4, "m1": 4},
            ],
        }
        want = EngineSpec(
            SCHEMA, "svec", CONFIG, sharding=ShardingSpec(2, "serial")
        )
        assert EngineSpec.from_dict(doc["spec"]) == want
        assert "sweep_index" not in want.to_dict()
        path = tmp_path / "parent.json"
        path.write_text(json.dumps(doc))
        reference = FactDiscoverer(SCHEMA, algorithm="stopdown", config=CONFIG)
        reference.observe_many(doc["rows"])
        with load_engine(str(path)) as restored:
            assert restored.spec == want
            assert len(restored) == 2
            assert run_stream(restored, ROWS[:10]) == run_stream(
                reference, ROWS[:10]
            )

    def test_checkpoint_spec_from_before_fsync_always_retired(self):
        # Verbatim ``EngineSpec.to_dict()`` of the commit before the
        # per-record ``journal_fsync`` value was removed.
        doc = {
            "schema": {
                "dimensions": ["d0", "d1"],
                "measures": ["m0", "m1"],
                "preferences": {},
            },
            "algorithm": "svec",
            "config": {
                "max_bound_dims": None,
                "max_measure_dims": None,
                "tau": None,
                "top_k": None,
            },
            "score": True,
            "sharding": None,
            "window": None,
            "aggregate": None,
            "checkpoint": {
                "path": "ckpt.json",
                "interval": 30.0,
                "journal_dir": "wal",
                "journal_fsync": "always",
                "journal_segment_bytes": 16777216,
            },
            "query_cache": None,
            "feeds": None,
        }
        # Same guarantee — an acknowledged op is on disk — one fsync
        # per batch instead of per record.
        assert EngineSpec.from_dict(doc).checkpoint == CheckpointPolicy(
            "ckpt.json", 30.0, "wal", "batch"
        )
        with pytest.raises(ValueError, match="journal_fsync"):
            CheckpointPolicy("ckpt.json", journal_fsync="always")

    def test_window_and_aggregate_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not supported"):
            EngineSpec(SCHEMA, window=3, aggregate=AGG)

    def test_sharding_requires_svec(self):
        with pytest.raises(ValueError, match="svec"):
            EngineSpec(SCHEMA, "stopdown", sharding=ShardingSpec(2))

    def test_unscored_with_reporting_policy_rejected(self):
        with pytest.raises(ValueError, match="score=False"):
            EngineSpec(SCHEMA, config=DiscoveryConfig(tau=2.0), score=False)

    def test_aggregate_attrs_must_exist_in_base_schema(self):
        with pytest.raises(ValueError, match="missing"):
            EngineSpec(
                SCHEMA,
                aggregate=GroupSpec(("nope",), {"t": ("m0", "sum")}),
            )

    def test_window_and_cache_sizes_must_be_positive(self):
        # The spec is the layers' only validation: they read their
        # section from it.
        with pytest.raises(ValueError, match="window"):
            EngineSpec(SCHEMA, window=0)
        with pytest.raises(ValueError, match="query_cache"):
            EngineSpec(SCHEMA, query_cache=0)

    def test_feeds_segment_the_discovery_relation(self):
        from repro.api import FeedSpec

        spec = EngineSpec(SCHEMA, aggregate=AGG, feeds=FeedSpec(("d0",)))
        assert spec.discovery_schema == AGG.discovery_schema()
        with pytest.raises(ValueError, match="discovery relation"):
            EngineSpec(SCHEMA, aggregate=AGG, feeds=FeedSpec(("d1",)))

    def test_bad_sharding_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ShardingSpec(2, "gpu")

    def test_checkpoint_policy_drives_default_snapshot(self, tmp_path):
        path = str(tmp_path / "auto.json")
        spec = EngineSpec(SCHEMA, checkpoint=CheckpointPolicy(path))
        with open_engine(spec) as engine:
            engine.observe_many(ROWS[:5])
            assert engine.snapshot() == path  # no explicit path needed
        restored = load_engine(path)
        assert len(restored) == 5
        restored.close()


class TestOptionCensus:
    """Every option of the public surface, as literals: a change that
    adds or removes one edits these lists, so the census shows in its
    diff.  The paper's engine has four settings (``DiscoveryConfig``);
    the rest belong to the reproduction."""

    FIELDS = {
        "EngineSpec": [
            "schema", "algorithm", "config", "score", "sharding", "window",
            "aggregate", "checkpoint", "query_cache", "feeds",
        ],
        "ShardingSpec": [
            "workers", "mode", "chunk_size", "op_timeout", "max_restarts",
            "remote",
        ],
        "CheckpointPolicy": [
            "path", "interval", "journal_dir", "journal_fsync",
            "journal_segment_bytes",
        ],
        "FeedSpec": ["group_by", "top_k", "tau", "max_entries"],
        "GroupSpec": ["group_by", "aggregations"],
        "DiscoveryConfig": ["max_bound_dims", "max_measure_dims", "tau", "top_k"],
    }

    PARAMETERS = {
        "open_engine": ["spec"],
        "load_engine": ["path"],
        "save_engine": ["engine", "path", "journal_seq"],
        "StreamServer": [
            "engine", "queue_limit", "batch_max", "dead_letter_path",
            "conn_timeout",
        ],
        "FeedGateway": ["server"],
        "FactDiscoverer": ["schema", "algorithm", "config", "score"],
        "ShardedDiscoverer": ["spec"],
        "WindowMiddleware": ["inner", "spec"],
        "AggregateMiddleware": ["inner", "spec"],
        "QueryCacheMiddleware": ["inner", "spec"],
        "NewsFeed": ["engine"],
    }

    def test_fields_and_parameters_are_exactly_these(self):
        import dataclasses
        import inspect

        from repro.api import (
            AggregateMiddleware,
            FeedSpec,
            QueryCacheMiddleware,
            WindowMiddleware,
        )
        from repro.extensions.snapshot import save_engine
        from repro.reporting.feed import NewsFeed
        from repro.service import FeedGateway, ShardedDiscoverer, StreamServer

        classes = (
            EngineSpec, ShardingSpec, CheckpointPolicy, FeedSpec, GroupSpec,
            DiscoveryConfig,
        )
        callables = (
            open_engine, load_engine, save_engine, StreamServer,
            FeedGateway, FactDiscoverer, ShardedDiscoverer, WindowMiddleware,
            AggregateMiddleware, QueryCacheMiddleware, NewsFeed,
        )
        assert {
            cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in classes
        } == self.FIELDS
        # A ``**kwargs`` passthrough would show up here by its name.
        assert {
            fn.__name__: list(inspect.signature(fn).parameters)
            for fn in callables
        } == self.PARAMETERS


# ----------------------------------------------------------------------
# Serving any composition
# ----------------------------------------------------------------------
class TestServerTakesAnyEngine:
    def _serve(self, spec, rows):
        from repro.service import StreamServer

        async def run():
            engine = open_engine(spec)
            server = StreamServer(engine, batch_max=8)
            await server.start()
            events = []
            for row in rows:
                events.append(await server.ingest_wait(row))
            await server.stop()
            engine.close()
            return engine, events

        return asyncio.run(run())

    def test_windowed_engine_is_servable(self):
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, window=5)
        engine, events = self._serve(spec, ROWS[:12])
        assert len(events) == 12
        assert len(engine) == 5  # eviction kept running under the server

    def test_aggregate_engine_is_servable(self):
        spec = EngineSpec(SCHEMA, "stopdown", CONFIG, aggregate=AGG)
        engine, events = self._serve(spec, ROWS[:12])
        assert len(events) == 12
        # Events carry aggregate-relation records (discovery schema).
        assert set(events[0].record.as_dict(engine.discovery_schema)) == {
            "d0", "total", "games", "best",
        }
        assert engine.group_count() == len({r["d0"] for r in ROWS[:12]})
