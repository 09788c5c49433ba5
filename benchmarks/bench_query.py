"""Read-path bench for the PR-8 query subsystem.

Three asserted cells — the acceptance bars of the cost-ordered query
planner — plus two data-only sections, printed as tables:

* **kernels** — columnar k-skyband vs the scalar double loop at
  ``n=10k d=4 m=4`` anticorrelated, with a latency-vs-``n`` sweep from
  the same incrementally grown engine.  Bar: kernels ≥ 2× (measured
  ~20×), tids identical at every ``n``.
* **planner** — cheapest-first + top-k early termination vs fixed-order
  batch execution on a mixed workload of indexed (maintained) and
  counted (beyond-``m̂``-subspace) queries.  Bar: planner ≥ 2×
  (measured ~30×), results identical, and the skip counter proves the
  win comes from early termination, not noise.
* **cache** — repeat reads through ``EngineSpec(query_cache=N)`` vs the
  first uncached pass.  Bar: ≥ 10× (measured far higher — a hit is a
  dict probe), answers identical, every repeat a counted hit.  A
  mixed read/write section reports cache hit rate vs write interval
  (writes bump the engine version, so each one invalidates wholesale).

Run with ``pytest benchmarks/bench_query.py -s``; ``REPRO_BENCH_SCALE``
enlarges the workloads.  Part of the bench suite, not of tier-1.
"""

import time

from repro import Constraint, DiscoveryConfig, FactDiscoverer, make_algorithm
from repro.api import EngineSpec, open_engine
from repro.core.constraint import UNBOUND
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.query.contextual import ContextualQueryEngine
from repro.query.planner import QueryPlan

D, M = 4, 4
FULL = (1 << M) - 1  # all-measures subspace
TOP = Constraint((UNBOUND,) * D)

#: The kernels acceptance cell: largest skylines (anticorrelated), the
#: history size the ISSUE pins, k=2 skyband over one-bound contexts of
#: ~n/8 rows each (domain cardinality 8).
KERNEL_N = 10_000
SKYBAND_K = 2
PROBE_VALUES = ("v0", "v1", "v2", "v3")

#: Columnar skyband must beat the scalar loop by at least this much at
#: the acceptance cell.  Measured ~20×; the bar is deliberately loose
#: so slow CI hardware cannot flake it.
KERNEL_SPEEDUP = 2.0

#: Cheapest-first must beat fixed-order by at least this much on the
#: mixed workload below.  Measured ~30×: every counted pair's upper
#: bound (its context size) sits far below the threshold the first
#: indexed evaluation establishes, so the planner skips them all while
#: fixed order evaluates each one.
PLANNER_SPEEDUP = 2.0

#: A fully cached repeat pass must beat the uncached first pass by at
#: least this much (the ISSUE bar).  A hit is an LRU probe plus a list
#: copy, so the measured ratio is orders of magnitude higher.
CACHE_SPEEDUP = 10.0

#: Reads between writes for the hit-rate section (0 = read-only).
WRITE_INTERVALS = (0, 16, 4, 1)


def _one_bound(value):
    return Constraint((value,) + (UNBOUND,) * (D - 1))


# ----------------------------------------------------------------------
# Cell 1: columnar skyband kernels vs the scalar double loop
# ----------------------------------------------------------------------
def _skyband_pass(queries, constraints):
    start = time.perf_counter()
    out = [
        sorted(r.tid for r in queries.skyband(c, FULL, SKYBAND_K))
        for c in constraints
    ]
    return time.perf_counter() - start, out


def test_columnar_skyband_speedup(bench_scale):
    """Kernels ≥ 2× scalar skyband at n=10k, identical tids at every n."""
    targets = [int(KERNEL_N * f * bench_scale) for f in (0.25, 0.5, 1.0)]
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(targets[-1], D, M, distribution="anticorrelated")
    constraints = [_one_bound(v) for v in PROBE_VALUES]

    algo = make_algorithm("svec", schema)
    kernel_q = ContextualQueryEngine(algo)
    scalar_q = ContextualQueryEngine(algo, use_kernels=False)

    sweep, done = [], 0
    for n in targets:
        algo.process_many(rows[done:n])
        done = n
        kernel_s, kernel_out = _skyband_pass(kernel_q, constraints)
        scalar_s, scalar_out = _skyband_pass(scalar_q, constraints)
        assert kernel_out == scalar_out, f"kernel/scalar tids diverge at n={n}"
        sweep.append((n, kernel_s, scalar_s))

    print(f"\nk-skyband (k={SKYBAND_K}) over {len(constraints)} one-bound "
          f"contexts, anticorrelated d={D} m={M}")
    print(f"{'n':>8}{'kernels':>12}{'scalar':>12}{'speedup':>10}")
    for n, kernel_s, scalar_s in sweep:
        print(f"{n:>8}{1e3 * kernel_s:>10.1f}ms{1e3 * scalar_s:>10.1f}ms"
              f"{scalar_s / kernel_s:>9.1f}x")

    n, kernel_s, scalar_s = sweep[-1]
    speedup = scalar_s / kernel_s
    assert speedup >= KERNEL_SPEEDUP, (
        f"columnar skyband only {speedup:.1f}x over scalar at n={n} "
        f"(need >= {KERNEL_SPEEDUP}x) — the kernels have likely stopped "
        f"vectorizing; see repro/query/kernels.py"
    )


# ----------------------------------------------------------------------
# Cell 2: cheapest-first + early termination vs fixed-order batches
# ----------------------------------------------------------------------
def _planner_workload():
    """Indexed pairs on the maintained subspace + counted two-bound
    pairs on a beyond-``m̂`` subspace.  The indexed evaluations are free
    and establish a high top-k threshold; every counted pair's context
    (~n/64 rows) then upper-bounds its prominence below that threshold,
    so a sound planner proves all of them irrelevant without running
    one."""
    maintained, beyond = 0b0011, 0b0111
    indexed = [(TOP, maintained)] + [
        (_one_bound(f"v{v}"), maintained) for v in range(8)
    ]
    counted = [
        (Constraint((f"v{a}", f"v{b}", UNBOUND, UNBOUND)), beyond)
        for a in range(8)
        for b in range(8)
    ]
    return indexed + counted


def _best_of(runs, fn):
    best = None
    for _ in range(runs):
        took, value = fn()
        if best is None or took < best[0]:
            best = (took, value)
    return best


def test_planner_beats_fixed_order(bench_scale):
    """Cost order + τ/top-k push-down ≥ 2× fixed order, same answers."""
    n = int(4000 * bench_scale)
    schema = synthetic_schema(D, M)
    engine = FactDiscoverer(
        schema,
        algorithm="svec",
        config=DiscoveryConfig(max_measure_dims=2),
        score=True,
    )
    engine.facts_for_many(
        synthetic_rows(n, D, M, distribution="correlated", seed=7)
    )
    queries = engine.query()
    workload = _planner_workload()

    def run(ordered):
        plan = QueryPlan(queries, workload, top_k=1, ordered=ordered)
        start = time.perf_counter()
        results = plan.execute()
        return time.perf_counter() - start, (plan, results)

    planned_s, (plan, planned) = _best_of(3, lambda: run(True))
    fixed_s, (_, fixed) = _best_of(3, lambda: run(False))

    key = lambda r: (r.constraint, r.subspace, r.prominence)
    assert list(map(key, planned)) == list(map(key, fixed)), \
        "planned and fixed-order batches disagree"
    assert plan.skipped > 0, "planner never early-terminated"

    speedup = fixed_s / planned_s
    print(f"\nmixed top-k batch, n={n}: {len(workload)} queries, "
          f"skipped={plan.skipped} stats_hits={plan.stats_hits} "
          f"evaluated={plan.evaluated_count}")
    print(f"planned={1e3 * planned_s:.2f}ms fixed={1e3 * fixed_s:.2f}ms "
          f"speedup={speedup:.1f}x")
    assert speedup >= PLANNER_SPEEDUP, (
        f"cheapest-first only {speedup:.1f}x over fixed order (need >= "
        f"{PLANNER_SPEEDUP}x) — bound push-down has likely stopped "
        f"skipping; see repro/query/planner.py"
    )


# ----------------------------------------------------------------------
# Cell 3: versioned result cache — repeat reads and hit rate vs writes
# ----------------------------------------------------------------------
def _read_pass(queries, constraints):
    start = time.perf_counter()
    raw = [queries.skyline(TOP, FULL)]
    for c in constraints:
        raw.append(queries.skyband(c, FULL, SKYBAND_K))
    took = time.perf_counter() - start
    return took, [sorted(r.tid for r in records) for records in raw]


def test_cache_repeat_speedup(bench_scale):
    """A fully cached repeat pass ≥ 10× the uncached first pass."""
    n = int(4000 * bench_scale)
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(n, D, M, distribution="anticorrelated")
    constraints = [_one_bound(f"v{v}") for v in range(8)]
    spec = EngineSpec(schema, "svec", DiscoveryConfig(), query_cache=64)
    with open_engine(spec) as engine:
        engine.observe_many(rows)
        queries = engine.query()
        uncached_s, first = _read_pass(queries, constraints)
        cached_s, repeat = _read_pass(queries, constraints)
        counters = engine.stats()["query_cache"]

    assert first == repeat, "cached repeat changed the answers"
    n_reads = len(constraints) + 1
    assert counters["hits"] == n_reads, counters

    speedup = uncached_s / cached_s
    print(f"\n{n_reads} reads @ n={n}: uncached={1e3 * uncached_s:.1f}ms "
          f"cached={1e3 * cached_s:.2f}ms speedup={speedup:.0f}x "
          f"(counters {counters})")
    assert speedup >= CACHE_SPEEDUP, (
        f"cached repeat only {speedup:.1f}x over uncached (need >= "
        f"{CACHE_SPEEDUP}x) — the result cache has likely stopped "
        f"hitting; see repro/query/cache.py"
    )


def test_cache_hit_rate_vs_write_interval(bench_scale):
    """Mixed read/write: hit rate vs writes per read (data section).

    Every write bumps the engine version ``(arrivals, deletions)``, so
    one write wholesale-invalidates the cache; the hit rate should fall
    monotonically as writes become more frequent and reach zero when
    every read is preceded by a write."""
    n = int(1000 * bench_scale)
    reads = 64
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(n + reads, D, M, distribution="anticorrelated")
    constraints = [_one_bound(f"v{v}") for v in range(8)]

    rates = {}
    for interval in WRITE_INTERVALS:
        spec = EngineSpec(schema, "svec", DiscoveryConfig(), query_cache=64)
        with open_engine(spec) as engine:
            engine.observe_many(rows[:n])
            queries = engine.query()
            writes = 0
            for i in range(reads):
                queries.skyband(constraints[i % len(constraints)], FULL,
                                SKYBAND_K)
                if interval and (i + 1) % interval == 0:
                    engine.observe_many([rows[n + writes]])
                    writes += 1
            counters = engine.stats()["query_cache"]
        label = "read_only" if interval == 0 else f"write_every_{interval}"
        rates[label] = round(
            counters["hits"] / (counters["hits"] + counters["misses"]), 3
        )

    print(f"\ncache hit rate over {reads} reads @ n={n}: {rates}")
    assert rates["read_only"] > rates["write_every_1"], rates
    assert rates["write_every_1"] == 0.0, rates
