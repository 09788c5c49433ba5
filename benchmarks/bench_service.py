"""Sharded service throughput: subspace-parallel workers vs one engine.

Not a paper figure — this repo's serving-layer bench (PR 4).  The
``svec`` engine is single-threaded by construction; the service layer
(:class:`repro.service.sharding.ShardedDiscoverer`) partitions the
measure-subspace axis across worker processes, each running the same
``svec`` machinery restricted to its shard, with the router merging
per-arrival facts, scoring contexts once, and applying the reporting
policy — output property-tested identical to the unsharded engine
(``tests/test_sharding.py``; re-asserted on the measured stream below).

The contenders ingest the same scored anticorrelated stream through
``observe_many`` and we report *marginal* per-tuple throughput once the
history holds ``n=3000`` (``d=4, m=4``, the standard grid cell):

* ``single``  — one unsharded scored ``svec`` engine;
* ``sharded`` — ``ShardedDiscoverer`` with 4 process workers.

Headline assertion: 4-worker sharded ingestion is ≥ 2× the single
engine's throughput (asserted at a 1.9× noise floor, like the walker
bench).  The wall-clock claim needs the workers to actually run in
parallel, so the assertion is skipped — after measuring and printing —
on machines with fewer than 4 usable CPUs; the output-equality
assertion runs everywhere.

Run with ``pytest benchmarks/bench_service.py -s`` to see the table;
``REPRO_BENCH_SCALE`` enlarges the workload.
"""

import gc
import os
import time

import pytest

from repro import FactDiscoverer
from repro.api import EngineSpec, ShardingSpec, open_engine
from repro.datasets.synthetic import synthetic_rows, synthetic_schema

N, D, M = 3000, 4, 4
WORKERS = 4
CHUNK = 150
CHUNKS = 4

#: Required sharded-over-single throughput ratio, and the noise floor it
#: is asserted at (scheduler jitter on shared runners).
REQUIRED_SPEEDUP = 2.0
NOISE_FLOOR = 1.9


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def reportable_keys(lists):
    return [
        [(f.constraint.values, f.subspace, f.prominence) for f in facts]
        for facts in lists
    ]


def test_sharded_service_throughput(benchmark, bench_scale):
    """4-process-worker sharded ingestion ≥ 2× one engine, same output."""
    n = int(N * bench_scale)
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(
        n + CHUNK * CHUNKS, D, M, distribution="anticorrelated"
    )
    warm, tail = rows[:n], rows[n:]
    chunks = [tail[i * CHUNK : (i + 1) * CHUNK] for i in range(CHUNKS)]

    def measure():
        single = FactDiscoverer(schema, algorithm="svec")
        sharded = open_engine(EngineSpec(
            schema, "svec", sharding=ShardingSpec(WORKERS, "process")
        ))
        try:
            single.facts_for_many(warm)
            sharded.facts_for_many(warm)
            single_times, sharded_times = [], []
            mismatches = 0
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for chunk in chunks:
                    start = time.perf_counter()
                    expected = single.observe_many(chunk)
                    single_times.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    got = sharded.observe_many(chunk)
                    sharded_times.append(time.perf_counter() - start)
                    if reportable_keys(got) != reportable_keys(expected):
                        mismatches += 1
            finally:
                if gc_was_enabled:
                    gc.enable()
            counters_equal = (
                sharded.counters.snapshot() == single.counters.snapshot()
            )
        finally:
            sharded.close()
        return {
            "single_s": min(single_times) / CHUNK,
            "sharded_s": min(sharded_times) / CHUNK,
            "mismatches": mismatches,
            "counters_equal": counters_equal,
        }

    def run():
        cell = measure()
        if cell["sharded_s"] and (
            cell["single_s"] / cell["sharded_s"] < NOISE_FLOOR
        ):
            # One retry: an OS scheduling burst can depress a whole
            # measurement; a genuine regression fails both attempts.
            retry = measure()
            if (
                retry["single_s"] / retry["sharded_s"]
                > cell["single_s"] / cell["sharded_s"]
            ):
                retry["mismatches"] += cell["mismatches"]
                retry["counters_equal"] &= cell["counters_equal"]
                cell = retry
        return cell

    cpus = usable_cpus()
    cell = benchmark.pedantic(run, iterations=1, rounds=1)
    single_ms = 1e3 * cell["single_s"]
    sharded_ms = 1e3 * cell["sharded_s"]
    speedup = single_ms / sharded_ms if sharded_ms else float("inf")
    print()
    print(
        f"scored observe_many marginal per-tuple latency @ n={n} d={D} "
        f"m={M} (anticorrelated), {cpus} usable CPUs"
    )
    print(f"  single (svec)        {single_ms:>9.3f} ms  "
          f"({1.0 / cell['single_s']:,.0f} tuples/s)")
    print(f"  sharded ({WORKERS} procs)    {sharded_ms:>9.3f} ms  "
          f"({1.0 / cell['sharded_s']:,.0f} tuples/s)")
    print(f"  speedup {speedup:.2f}x")
    benchmark.extra_info["single_ms"] = round(single_ms, 3)
    benchmark.extra_info["sharded_ms"] = round(sharded_ms, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = cpus

    # Exactness on the measured stream (facts, prominence, op counters)
    # holds regardless of hardware.
    assert cell["mismatches"] == 0, (
        "sharded output diverged from the unsharded engine on "
        f"{cell['mismatches']} measured chunk(s)"
    )
    assert cell["counters_equal"], (
        "sharded op-counter totals diverged from the unsharded engine"
    )

    if cpus < WORKERS:
        pytest.skip(
            f"only {cpus} usable CPU(s): the {WORKERS}-worker wall-clock "
            f"speedup assertion needs >= {WORKERS} (measured "
            f"{speedup:.2f}x)"
        )
    assert speedup >= NOISE_FLOOR, (
        f"sharded ingestion is only {speedup:.2f}x the single engine "
        f"(need >= {REQUIRED_SPEEDUP}x, asserted at the {NOISE_FLOOR}x "
        f"noise floor) — check worker parallelism and the pipelined "
        f"merge (repro/service/sharding.py)"
    )
