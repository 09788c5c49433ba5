"""Wall-clock guards that no exact tier-1 spy replaces yet.

The rest of the de-vectorization gate counts work instead of timing it:
tier-1 spies pin one store write per arrival, no per-row ``Constraint``
or anchor-cell probe in the walk, one scoring call per arrival, a feed
fold that builds no objects, one wire frame per shard chunk, the
journal's flush/fsync calls per commit, the skyband kernel, and repeat
query-cache hits (CI's de-vectorization job runs them beside this
file).  Two guards stay here because no tier-1 spy fails on the mutant
each one names:

* ``test_sweep_index_stays_sublinear`` — the indexed dominance
  partition against the dense sweep at 2.5× the arming constant, and
  the only check of armed-index vs dense bit identity at that size;
* ``test_feed_fold_overhead_stays_marginal`` — the feed fold against
  the discovery it follows; per-pair context bookkeeping in the
  silent-satisfier pass builds no object the tier-1 fold spy counts
  (and stays inside this guard's budget too; see its docstring).

Both ratios compare two phases of the same run on the same host, so the
ceilings hold across machines.  Run with
``pytest benchmarks/bench_guard.py -s``; part of the bench suite, not of
tier-1 (timing asserts do not belong in unit CI).
"""

import gc
import random
import time

import numpy as np

from repro.algorithms.s_vectorized import SVectorized
from repro.api import EngineSpec, FeedSpec, open_engine
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.service.feeds import FeedStore
from repro.storage import sweep_index as sweep_module

#: Default scale of the guard workload (matches bench_columnar DEFAULT).
N, D, M = 2000, 4, 4
PROBE = 100

#: The indexed dominance partition may cost at most this fraction of
#: the dense per-arrival sweep at 2.5× the arming constant.  The indexed walker consumes
#: *packed* prefix partitions — rank lookups into the sorted measure
#: orderings, pre-packed suffix bitsets and posting-bitset ANDs, a few
#: hundred uint64 words — plus a dense pass over the short un-folded
#: suffix, while the dense sweep re-compares all n stored rows per
#: probe.  Measured ~0.05-0.2x; an index that silently stops
#: short-circuiting the prefix lands at ~1x.
SWEEP_INDEX_FRACTION = 0.6

#: Folding an arrival's facts into the materialized feeds may cost at
#: most this fraction of discovering them.  The fold is
#: O(|S_t|) dict upserts against shared per-constraint context cells
#: plus an O(2^d̂) silent-satisfier pass — measured ~0.015-0.04x; a fold
#: that re-ranks segments per arrival or loses the constraint interning
#: lands well above 0.05x and grows with segment size.
FEED_FOLD_FRACTION = 0.05


def test_sweep_index_stays_sublinear():
    """The PR-7 sweep index must keep beating the dense dominance sweep
    — and must keep matching it bit for bit.

    One deletion-heavy anticorrelated stream (every 6th arrival
    retracts a random live tuple, so tombstones, anchor invalidation
    and deferred compaction are all in play) warms a single ``svec``
    store to 2.5× the arming constant — clearly on the indexed side,
    and still past re-arming should a compaction reset the watermark.
    Probe records then time the index's packed partitions vs the dense
    sweep over the *same* store's columns, asserting both the latency
    fraction and exact array equality of the lt/gt/agree columns.
    """
    n, probes = 5 * sweep_module.ARM_ROWS // 2, 60
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(
        n + probes, D, M, distribution="anticorrelated", seed=29
    )
    algo = SVectorized(schema)
    rng = random.Random(31)
    live = []
    for i, row in enumerate(rows[:n]):
        algo.process(row)
        live.append(i)
        if i % 6 == 5 and len(live) > 2:
            algo.retract(live.pop(rng.randrange(len(live))))
    store = algo.store
    sweep = store.folded_sweep()
    assert sweep is not None, (
        f"sweep index never armed on a {n}-row stream — the fold "
        "trigger is broken"
    )
    records = [algo.table.make_record(row) for row in rows[n:]]
    probes = [
        (np.asarray(r.values, dtype=np.float64), store.intern_dims(r.dims))
        for r in records
    ]

    def measure():
        # Time the probe work the indexed walker consumes per arrival:
        # packed per-measure partitions, posting-bitset lookups per
        # bound dimension, and the dense pass over the un-folded suffix.
        w, total = sweep.watermark, store.n_rows
        start = time.perf_counter()
        for values, dims in probes:
            sweep.measure_partitions(values)
            for j, vid in enumerate(dims):
                sweep.posting(j, int(vid))
            store.partition_suffix(values, dims, w, total)
        indexed = (time.perf_counter() - start) / len(probes)
        start = time.perf_counter()
        for values, dims in probes:
            store.partition_suffix(values, dims, 0, total)
        dense = (time.perf_counter() - start) / len(probes)
        return indexed, dense

    # Exactness first: the full indexed reconstruction must equal the
    # dense sweep bit for bit on every probe (untimed — reconstruction
    # unpacks to dense columns, which the walker itself never pays for).
    for r, (values, dims) in zip(records, probes):
        got = store.partition_bitmasks(r)
        want = store.partition_suffix(values, dims, 0, store.n_rows)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (
                "indexed partition_bitmasks diverged from the dense "
                "sweep under a deletion-heavy stream — the index is "
                "returning stale or mis-invalidated partitions"
            )

    indexed, dense = measure()
    ratio = indexed / dense
    if ratio > SWEEP_INDEX_FRACTION:  # one retry: scheduler bursts
        retry = measure()
        if retry[0] / retry[1] < ratio:
            indexed, dense = retry
            ratio = indexed / dense
    print(
        f"\nper-probe @ n={n} (deletion-heavy): dense={1e3 * dense:.3f}ms "
        f"indexed={1e3 * indexed:.3f}ms ratio={ratio:.2f}x "
        f"(ceiling {SWEEP_INDEX_FRACTION}x)"
    )
    assert ratio <= SWEEP_INDEX_FRACTION, (
        f"indexed dominance partition costs {ratio:.2f}x the dense sweep "
        f"per probe (ceiling {SWEEP_INDEX_FRACTION}x) — the stable-prefix "
        f"short-circuit has likely regressed; see "
        f"benchmarks/bench_lattice.py::test_sweep_index_marginal_near_flat"
    )


def _feed_fold_marginals(schema, warm, probe):
    """(discover_s, fold_s) over one probe pass, same stream/run.

    The two phases are timed inside a single ingest loop so the ratio
    is immune to the run-to-run wall-clock variance that dominates A/B
    comparisons at this scale; the cyclic GC is paused for the probe so
    collection pauses (whose cost scales with the *whole* live heap,
    feeds or not) don't land in whichever phase happens to allocate the
    triggering object.
    """
    engine = open_engine(EngineSpec(schema=schema, score=True))
    # Cap sized above the workload's tracked-pair working set: eviction
    # churn is a cap-sizing policy cost (measured as data in
    # bench_feeds.py), not part of the fold mechanism this guard pins.
    store = FeedStore(
        schema,
        engine.config,
        FeedSpec(group_by=(schema.dimensions[0],), max_entries=1 << 20),
    )
    for row in warm:
        factset = engine.facts_for(row)
        store.apply_event(factset.record, factset)
    gc.collect()
    gc.disable()
    try:
        discover = fold = 0.0
        for row in probe:
            t0 = time.perf_counter()
            factset = engine.facts_for(row)
            t1 = time.perf_counter()
            store.apply_event(factset.record, factset)
            discover += t1 - t0
            fold += time.perf_counter() - t1
    finally:
        gc.enable()
    return discover, fold


def test_feed_fold_overhead_stays_marginal():
    """Materialized feed maintenance must stay off the ingest hot path.

    The parity tests pin the feed contents to ``query().batch`` but
    cannot see the fold getting expensive.  Per-pair context
    bookkeeping in the silent-satisfier pass (instead of the shared
    per-constraint cells) multiplies that pass by the subspace count;
    it builds no object, so the tier-1 fold spy passes on it.  On a
    2-vCPU host that mutant read 1.7 % here against 1.5 % without it:
    inside the budget, because the discovery it is measured against is
    the spec's default ``stopdown``, not ``svec``.
    """
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(N + PROBE, D, M, distribution="anticorrelated")
    warm, probe = rows[:N], rows[N:]
    best = None
    for _ in range(3):
        pair = _feed_fold_marginals(schema, warm, probe)
        if best is None or pair[1] / pair[0] < best[1] / best[0]:
            best = pair
    discover, fold = best
    overhead = fold / discover
    print(
        f"\nper-tuple @ n={N}: discover={1e3 * discover / PROBE:.3f}ms "
        f"feed-fold={1e3 * fold / PROBE:.3f}ms "
        f"overhead={100 * overhead:.1f}% "
        f"(budget {100 * FEED_FOLD_FRACTION:.0f}%)"
    )
    assert overhead <= FEED_FOLD_FRACTION, (
        f"feed fold costs {100 * overhead:.1f}% of the discovery "
        f"marginal (budget {100 * FEED_FOLD_FRACTION:.0f}%) — per-pair "
        f"context updates, per-arrival re-ranking, or lost interning "
        f"has crept into FeedStore.apply_event"
    )
