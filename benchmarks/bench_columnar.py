"""Columnar-engine head-to-head: ``stopdown`` vs ``svec`` vs ``baselinevec``.

Not a paper figure — this repo's tuple-axis vectorization bench.  The
three contenders run the same synthetic stream and we report *marginal*
per-tuple latency (the cost of one more arrival once the history holds
``n`` tuples — the paper's Fig. 7–9 x-axis), across history size ``n``,
dimension count ``d`` and measure count ``m``.

The default workload is the skyline literature's stress case:
anticorrelated measures (largest skylines, so scalar sharing does the
most per-tuple work) at ``n=3000, d=4, m=4``, domain cardinality 8.  The
headline assertion is the acceptance bar of the columnar subsystem:
``svec`` beats scalar ``stopdown`` by ≥ 5× marginal per-tuple latency
there, while being output-equivalent (facts, stores, counters — see
``tests/test_columnar.py``).

Beside the grid, a *shape ladder* (``test_shape_ladder``) records what
one ``svec`` arrival costs across the shapes its single lattice walk
serves: an arrival carrying a None dimension value next to a plain one
(d4 m4, d5 m5), and the paper's d = 4…7 at m = 4, d̂ = 4 (one, one, two
and four words per anchor cell).  It asserts nothing about the clock.

Run with ``pytest benchmarks/bench_columnar.py -s`` to see the tables;
``REPRO_BENCH_SCALE`` enlarges the workload.
"""

import random
import statistics
import time

from repro import DiscoveryConfig, make_algorithm
from repro.datasets.synthetic import synthetic_rows, synthetic_schema

ANTICORRELATED = "anticorrelated"
CHUNK = 100  # arrivals per timed chunk after the warm-up history
CHUNKS = 3  # timed chunks; the median damps scheduler/allocator noise

#: Default head-to-head workload (the acceptance-bar configuration).
DEFAULT = dict(n=3000, d=4, m=4, distribution=ANTICORRELATED)

#: Sweep grid: one axis varies around a lighter pivot, plus the default.
GRID = [
    dict(DEFAULT, n=1000),
    dict(DEFAULT, n=2000),
    dict(DEFAULT),
    dict(DEFAULT, n=1500, d=3),
    dict(DEFAULT, n=1500, d=5),
    dict(DEFAULT, n=1500, m=3),
    dict(DEFAULT, n=1500, m=2),
]

CONTENDERS = ("stopdown", "svec", "baselinevec")


def marginal_latency(name, schema, warm, chunks):
    """Median per-tuple seconds once the history holds ``len(warm)``."""
    algo = make_algorithm(name, schema)
    algo.process_many(warm)
    samples = []
    for chunk in chunks:
        start = time.perf_counter()
        algo.process_many(chunk)
        samples.append((time.perf_counter() - start) / len(chunk))
    return statistics.median(samples)


def run_cell(cfg, scale=1.0):
    n = int(cfg["n"] * scale)
    d, m = cfg["d"], cfg["m"]
    schema = synthetic_schema(d, m)
    rows = synthetic_rows(
        n + CHUNK * CHUNKS, d, m, distribution=cfg["distribution"]
    )
    warm = rows[:n]
    chunks = [
        rows[n + i * CHUNK : n + (i + 1) * CHUNK] for i in range(CHUNKS)
    ]
    return {
        name: marginal_latency(name, schema, warm, chunks)
        for name in CONTENDERS
    }


def _table(results):
    header = f"{'workload':<28}" + "".join(f"{c:>14}" for c in CONTENDERS)
    lines = [header, "-" * len(header)]
    for cfg, cell in results:
        label = f"n={cfg['n']} d={cfg['d']} m={cfg['m']}"
        lines.append(
            f"{label:<28}"
            + "".join(f"{1e3 * cell[c]:>12.3f}ms" for c in CONTENDERS)
        )
    return "\n".join(lines)


#: Shape ladder: independent stream, seed 7, per-arrival p50 over the
#: second half of the stream.
LADDER_N = 1200
LADDER_SEED = 7
#: One arrival in four carries a None value in the None-vs-plain cells.
NONE_EVERY = 4


def ladder_cell(d, m, dhat=None, none_every=0, n=LADDER_N):
    """``(plain p50, None-carrying p50 or None)`` seconds per ``svec``
    arrival over the second half of an ``n``-row independent stream;
    with ``none_every`` every that-many-th row has one dimension value
    (drawn at random) replaced by None."""
    rows = synthetic_rows(n, d, m, distribution="independent", seed=LADDER_SEED)
    rng = random.Random(LADDER_SEED)
    carriers = set()
    if none_every:
        for i in range(none_every - 1, n, none_every):
            rows[i][f"d{rng.randrange(d)}"] = None
            carriers.add(i)
    algo = make_algorithm(
        "svec", synthetic_schema(d, m), DiscoveryConfig(max_bound_dims=dhat)
    )
    plain, with_none = [], []
    for i, row in enumerate(rows):
        start = time.perf_counter()
        algo.process(row)
        elapsed = time.perf_counter() - start
        if i >= n // 2:
            (with_none if i in carriers else plain).append(elapsed)
    return (
        statistics.median(plain),
        statistics.median(with_none) if with_none else None,
    )


def test_shape_ladder(benchmark, bench_scale):
    """Per-arrival p50 across the walk's shapes — a record, not a gate."""
    n = int(LADDER_N * bench_scale)

    def run():
        none_cells = [
            ((d, m), ladder_cell(d, m, none_every=NONE_EVERY, n=n))
            for d, m in ((4, 4), (5, 5))
        ]
        width_cells = [
            (d, ladder_cell(d, 4, dhat=4, n=n)[0]) for d in (4, 5, 6, 7)
        ]
        return none_cells, width_cells

    none_cells, width_cells = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(f"svec per-arrival p50, independent stream, n={n}, seed {LADDER_SEED}")
    print(f"{'shape':<16}{'plain':>12}{'with None':>12}{'ratio':>8}")
    for (d, m), (plain, with_none) in none_cells:
        print(
            f"{f'd={d} m={m}':<16}{1e3 * plain:>10.3f}ms"
            f"{1e3 * with_none:>10.3f}ms{with_none / plain:>8.2f}"
        )
        benchmark.extra_info[f"none_ratio_d{d}m{m}"] = round(with_none / plain, 2)
    print(f"{'shape (d̂=4)':<16}{'plain':>12}")
    for d, plain in width_cells:
        print(f"{f'd={d} m=4':<16}{1e3 * plain:>10.3f}ms")
        benchmark.extra_info[f"d{d}m4_ms"] = round(1e3 * plain, 3)


def test_columnar_head_to_head(benchmark, bench_scale):
    """svec ≥ 5× faster than scalar stopdown at the default workload."""
    results = benchmark.pedantic(
        lambda: [(cfg, run_cell(cfg, bench_scale)) for cfg in GRID],
        iterations=1,
        rounds=1,
    )
    print()
    print("marginal per-tuple latency (anticorrelated, cardinality 8)")
    print(_table(results))
    # The acceptance cell is the unmodified DEFAULT entry of the grid.
    cell = next(c for cfg, c in results if cfg == DEFAULT)
    speedup = cell["stopdown"] / cell["svec"]
    benchmark.extra_info["stopdown_ms"] = round(1e3 * cell["stopdown"], 3)
    benchmark.extra_info["svec_ms"] = round(1e3 * cell["svec"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(f"\nsvec speedup over stopdown at default workload: {speedup:.2f}x")
    assert speedup >= 5.0, (
        f"columnar engine regressed: svec only {speedup:.2f}x faster than "
        f"scalar stopdown (need >= 5x)"
    )
    # Sanity on every cell: vectorizing the sharing engine must never be
    # a pessimisation over the scalar original.
    for cfg, c in results:
        assert c["svec"] < c["stopdown"] * 1.5, cfg
