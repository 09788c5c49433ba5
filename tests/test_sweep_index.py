"""Incremental sweep index (``repro.storage.sweep_index``).

The index answers per-arrival dominance partitions from sorted measure
orderings + interned-value posting bitsets, valid up to a stable-prefix
watermark, with a dense pass over the un-indexed suffix.  The store arms
it from its own row count (``ARM_ROWS``); below that every sweep is
dense.  Its one correctness obligation is *bit-identity*: every fact,
score and op counter must be the same on either side of that choice, on
any stream — deletions interleaved, ``None`` dimension values, windowed
eviction, sharded.  These tests fuzz that property (armed index vs
never-armed store vs scalar ``stopdown``), pin that no arrival leaves
the walk (None dimension values, schemas past one word per anchor
cell), and pin the tombstone/compaction mechanics the index's
invalidation story rests on.
"""

import random

import numpy as np
import pytest

from repro import Constraint, DiscoveryConfig, FactDiscoverer
from repro.algorithms.s_vectorized import SVectorized
from repro.api import EngineSpec, open_engine
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.query.kernels import ColumnarQueryKernels
from repro.storage import sweep_index as sweep_module
from tests.strategies import sweep_constants

#: The shipped constants; no stream in this file reaches ``ARM_ROWS``.
DEFAULTS = (sweep_module.ARM_ROWS, sweep_module.DEFAULT_FOLD_BATCH)

#: Shrunk constants: arm after 8 rows, fold every 8.
ARM = FOLD = 8


@pytest.fixture(autouse=True)
def _armed_index():
    # Short test streams must still cross the arming constant and the
    # fold batch for the indexed side to run at all.
    with sweep_constants(ARM, FOLD):
        yield


def never_armed():
    """Run a block under the shipped constants (dense side only)."""
    return sweep_constants(*DEFAULTS)


def fact_key(fact):
    return (
        fact.constraint.values,
        fact.subspace,
        fact.context_size,
        fact.skyline_size,
    )


def run_scored_stream(schema, rows, algorithm="svec", delete_every=0, seed=5):
    """Feed ``rows`` through a scored engine, interleaving deletions of
    random live tuples; returns (per-arrival fact keys, counter
    snapshot, final watermark — 0 for a store that never armed)."""
    engine = FactDiscoverer(schema, algorithm=algorithm, score=True)
    rng = random.Random(seed)
    out = []
    live = []
    for i, row in enumerate(rows):
        out.append([fact_key(f) for f in engine.facts_for(row)])
        live.append(engine.table[len(engine.table) - 1].tid)
        if delete_every and i % delete_every == delete_every - 1 and len(live) > 2:
            engine.delete(live.pop(rng.randrange(len(live))))
    store = engine.algorithm.store
    sweep = store.folded_sweep() if algorithm == "svec" else None
    watermark = sweep.watermark if sweep is not None else 0
    return out, engine.counters.snapshot(), watermark


def assert_three_way_identical(schema, rows, **stream):
    """Armed index ≡ never-armed store ≡ scalar ``stopdown``: the same
    facts, scores and counter snapshots."""
    facts, counters, watermark = run_scored_stream(schema, rows, **stream)
    assert watermark > 0, "the shrunk constants never armed the index"
    with never_armed():
        dense = run_scored_stream(schema, rows, **stream)
    assert dense == (facts, counters, 0)
    reference = run_scored_stream(schema, rows, algorithm="stopdown", **stream)
    assert reference == (facts, counters, 0)


# ----------------------------------------------------------------------
# Property: indexed ≡ dense ≡ stopdown, bit for bit
# ----------------------------------------------------------------------
class TestIndexedDenseEquivalence:
    @pytest.mark.parametrize("distribution", ["anticorrelated", "independent"])
    def test_scored_stream_identical(self, distribution):
        schema = synthetic_schema(3, 3)
        rows = synthetic_rows(180, 3, 3, distribution=distribution, seed=11)
        assert_three_way_identical(schema, rows)

    def test_deletion_interleaved_identical(self):
        schema = synthetic_schema(4, 4)
        rows = synthetic_rows(160, 4, 4, distribution="anticorrelated", seed=3)
        assert_three_way_identical(schema, rows, delete_every=4)

    def test_matches_stopdown_reference(self):
        schema = synthetic_schema(3, 2)
        rows = synthetic_rows(120, 3, 2, distribution="anticorrelated", seed=9)
        assert_three_way_identical(schema, rows, delete_every=6)

    def test_none_dimension_values_identical(self):
        # None-carrying arrivals go through the prefix stage like any
        # other; their buckets sit at canonical masks only.
        schema = synthetic_schema(3, 3)
        rows = synthetic_rows(150, 3, 3, distribution="independent", seed=2)
        rng = random.Random(4)
        for row in rows:
            if rng.random() < 0.2:
                row[f"d{rng.randrange(3)}"] = None
        assert_three_way_identical(schema, rows, delete_every=7)

    def test_partition_bitmasks_bit_identical(self):
        """The store-level contract: indexed reconstruction of the
        lt/gt/agree partition columns equals the dense sweep exactly,
        probe by probe, under interleaved deletions."""
        schema = synthetic_schema(4, 4)
        rows = synthetic_rows(300, 4, 4, distribution="anticorrelated", seed=7)
        algo = SVectorized(schema)
        rng = random.Random(13)
        live = []
        checked = 0
        for i, row in enumerate(rows):
            algo.process(row)
            live.append(i)
            if i % 5 == 2 and len(live) > 3:
                algo.retract(live.pop(rng.randrange(len(live))))
            if i % 9 == 0 and i > 40:
                store = algo.store
                probe = algo.table.make_record(rows[(i * 17) % len(rows)])
                assert store.folded_sweep() is not None
                got = store.partition_bitmasks(probe)
                want = store.partition_suffix(
                    np.asarray(probe.values, dtype=np.float64),
                    store.intern_dims(probe.dims),
                    0,
                    store.n_rows,
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), f"mismatch at arrival {i}"
                checked += 1
        assert checked > 10

    def test_windowed_eviction_identical(self):
        schema = synthetic_schema(3, 2)
        rows = synthetic_rows(120, 3, 2, distribution="anticorrelated", seed=21)

        def run(algorithm="svec"):
            spec = EngineSpec(schema, algorithm, DiscoveryConfig(), window=30)
            with open_engine(spec) as engine:
                facts = [
                    [fact_key(f) for f in engine.facts_for(row)]
                    for row in rows
                ]
                return facts, engine.counters.snapshot()

        armed = run()
        with never_armed():
            assert run() == armed
        assert run("stopdown") == armed


# ----------------------------------------------------------------------
# Every arrival takes the walk
# ----------------------------------------------------------------------
class TestWalkPaths:
    @staticmethod
    def _walk_only(algo, rows):
        """Process ``rows`` and check no arrival leaves the walk: each
        one reads the anchor-bit matrix in bulk, once (the scalar
        passes this replaced probed it cell by cell)."""
        reads = []
        anchor_cells = algo.store.anchor_cells

        def spy(keys):
            reads.append(len(algo.table))
            return anchor_cells(keys)

        algo.store.anchor_cells = spy
        for row in rows:
            algo.process(row)
        assert reads == list(range(len(rows)))

    def test_no_none_dimension_arrival_leaves_the_walk(self):
        schema = synthetic_schema(3, 2)
        rows = synthetic_rows(60, 3, 2, distribution="independent", seed=8)
        rng = random.Random(3)
        with_none = set()
        for tid, row in enumerate(rows):
            if rng.random() < 0.25:
                row[f"d{rng.randrange(3)}"] = None
                with_none.add(tid)
        below = {tid for tid in with_none if tid < ARM}
        assert below and with_none - below  # both sides of the constant
        algo = SVectorized(schema)
        self._walk_only(algo, rows)
        assert algo.store.folded_sweep() is not None

    def test_no_arrival_leaves_the_walk_past_one_word_per_cell(self):
        schema = synthetic_schema(7, 2)
        rows = synthetic_rows(3 * ARM, 7, 2, distribution="independent", seed=8)
        algo = SVectorized(schema, DiscoveryConfig(max_bound_dims=2))
        self._walk_only(algo, rows)
        assert algo.store.anchor_cells(algo.maintained_subspaces()).shape[2] == 4
        # The index arms only where its per-mask planes fit.
        assert algo.store.folded_sweep() is None

    def test_every_reader_sees_the_same_folded_index(self, monkeypatch):
        schema = synthetic_schema(3, 2)
        rows = synthetic_rows(5 * ARM, 3, 2, distribution="independent", seed=8)
        algo = SVectorized(schema)
        for row in rows[:-1]:
            algo.process(row)
        store = algo.store
        seen = []
        folded_sweep = store.folded_sweep

        def spy():
            seen.append(folded_sweep())
            return seen[-1]

        monkeypatch.setattr(store, "folded_sweep", spy)
        store.partition_bitmasks(algo.table.make_record(rows[0]))
        ColumnarQueryKernels(store).selection_rows(
            Constraint((rows[0]["d0"], None, None))
        )
        algo.process(rows[-1])  # the walker
        assert len(seen) == 3
        assert seen[0] is not None
        assert all(sweep is seen[0] for sweep in seen)


# ----------------------------------------------------------------------
# Tombstones, grouped unregister, compaction
# ----------------------------------------------------------------------
def _store_with_rows(n, n_dims=2, n_measures=2, seed=1):
    schema = synthetic_schema(n_dims, n_measures)
    algo = SVectorized(schema)
    for row in synthetic_rows(n, n_dims, n_measures,
                              distribution="anticorrelated", seed=seed):
        algo.process(row)
    return algo


class TestTombstonesAndCompaction:
    def test_unregister_tombstones_not_slides(self):
        algo = _store_with_rows(50)
        store = algo.store
        n_before = store.n_rows
        row = store._row_of[10]
        algo.retract(10)
        # The row is neutralised in place: no slide, sentinel columns.
        assert store.n_rows == n_before
        assert store.record_at(row) is None
        assert np.all(np.isnan(store._values[row]))
        assert np.all(store._dims[row] == -1)
        assert 10 not in store._row_of

    def test_unregister_many_single_compaction_check(self):
        algo = _store_with_rows(40)
        store = algo.store
        tids = [5, 7, 11, 13]
        with store.deferred_compaction():
            for tid in tids:
                store.unregister(tid)
        assert store._dead_count == len(tids)
        for tid in tids:
            assert tid not in store._row_of

    def test_deferred_compaction_context(self):
        algo = _store_with_rows(300)
        store = algo.store
        with store.deferred_compaction():
            for tid in range(200):
                algo.retract(tid)
            # Well past the threshold, yet nothing compacted mid-group.
            assert store._dead_count == 200
        # One grouped pass at exit reclaimed every tombstone.
        assert store._dead_count == 0
        assert store.n_rows == 100

    def test_retract_many_equals_retract_loop(self):
        schema = synthetic_schema(3, 3)
        rows = synthetic_rows(90, 3, 3, distribution="anticorrelated", seed=6)
        tail = synthetic_rows(20, 3, 3, distribution="anticorrelated", seed=8)
        doomed = [3, 8, 15, 40, 41, 42, 77]

        def run(algorithm, grouped):
            engine = FactDiscoverer(schema, algorithm=algorithm)
            for row in rows:
                engine.facts_for(row)
            if grouped:
                removed = engine.delete_many(doomed)
            else:
                removed = [engine.delete(tid) for tid in doomed]
            assert [r.tid for r in removed] == doomed
            facts = [
                [fact_key(f) for f in engine.facts_for(row)] for row in tail
            ]
            return facts, engine.counters.snapshot()

        armed_grouped = run("svec", grouped=True)
        with never_armed():
            assert run("svec", grouped=False) == armed_grouped
        assert run("stopdown", grouped=False) == armed_grouped

    def test_compaction_resets_and_rebuilds_sweep(self):
        schema = synthetic_schema(2, 2)
        algo = SVectorized(schema)
        rows = synthetic_rows(400, 2, 2, distribution="anticorrelated", seed=4)
        for row in rows:
            algo.process(row)
        store = algo.store
        assert store.folded_sweep() is not None
        algo.retract_many(list(range(300)))
        # The dead fraction crossed the threshold: rows slid, the index
        # was dropped; it arms again as the stream continues.
        assert store._dead_count == 0
        assert store.n_rows == 100
        assert store._sweep is None
        for row in synthetic_rows(40, 2, 2,
                                  distribution="anticorrelated", seed=12):
            algo.process(row)
        sweep = store.folded_sweep()
        assert sweep is not None
        assert 0 < sweep.watermark <= store.n_rows

    def test_compaction_rearms_by_the_row_count_rule(self, monkeypatch):
        # A compaction that leaves fewer rows than the arming constant
        # puts the store back on the dense side until it refills.
        monkeypatch.setattr(sweep_module, "ARM_ROWS", 64)
        algo = _store_with_rows(100)
        store = algo.store
        assert store.folded_sweep() is not None
        algo.retract_many(list(range(90)))
        assert store.n_rows == 10
        assert store.folded_sweep() is None
        more = synthetic_rows(60, 2, 2, distribution="anticorrelated", seed=2)
        for row in more[:53]:
            algo.process(row)
        assert store.n_rows == 63 and store.folded_sweep() is None
        algo.process(more[53])
        assert store.folded_sweep().watermark == 64


# ----------------------------------------------------------------------
# The arming constants
# ----------------------------------------------------------------------
class TestArmingConstants:
    def test_index_arms_at_the_constant_then_folds_by_batch(self):
        schema = synthetic_schema(2, 2)
        algo = SVectorized(schema)
        store = algo.store
        rows = synthetic_rows(ARM + 2 * FOLD, 2, 2,
                              distribution="anticorrelated", seed=5)
        for row in rows[:ARM]:
            assert store.folded_sweep() is None
            algo.process(row)
        assert store.folded_sweep().watermark == ARM
        for row in rows[ARM:ARM + FOLD - 1]:
            algo.process(row)
        assert store.folded_sweep().watermark == ARM
        algo.process(rows[ARM + FOLD - 1])
        assert store.folded_sweep().watermark == ARM + FOLD

    def test_selecting_a_side_by_hand_is_gone(self):
        schema = synthetic_schema(2, 2)
        with pytest.raises(TypeError):
            SVectorized(schema, sweep_index="on")
        with pytest.raises(TypeError):
            FactDiscoverer(schema, algorithm="svec", sweep_index="off")
        with pytest.raises(TypeError):
            EngineSpec(schema, "svec", sweep_index="auto")
