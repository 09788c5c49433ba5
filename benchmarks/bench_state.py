"""Engine state per live row, by ``tracemalloc``: the deterministic size
instrument behind a memory claim.

Streams rows into a fresh engine under ``tracemalloc`` and prints the
traced bytes the engine still holds afterwards, per live row, split by
the source file that allocated them:

* **rows** — records and their tuples and numbers (``core/record.py``,
  ``core/schema.py``) and the parsed values a record keeps (the
  standard library's ``csv.py``, ``datasets/loader.py``,
  ``datasets/synthetic.py``);
* **columnar store** — ``storage/columnar_store.py`` and
  ``storage/sweep_index.py``: the columns, the anchor-bit matrix, the
  skyline-count index;
* **constraint table** — ``core/prominence.py``: the context counter,
  its keys and its value interner;
* **other** — everything else still traced (``C^t`` constraints,
  query-cache entries, …).

Two cells:

* ``window_rw`` — the e2e workload's engine (d4 m4 anticorrelated,
  window 1 000, query cache 64) fed its 1 100-row stream (seed 7)
  through a CSV, as ``serve`` preloads it;
* ``paper`` — the paper's §VI cell, ``svec`` on d5 m7 with d̂ = 4,
  5 000 independent rows (seed 7), ingested by ``facts_for_many`` in
  blocks of 256.

Allocation sites are deterministic for a given commit, Python and
NumPy, so the numbers repeat exactly; compare them across commits.  The
paper cell takes about two minutes on a 2-vCPU host.  Run with
``PYTHONPATH=src python benchmarks/bench_state.py`` (or through pytest
with ``-s``); it asserts nothing.
"""

import csv
import gc
import os
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from itertools import islice

from repro import DiscoveryConfig
from repro.api import EngineSpec, open_engine
from repro.datasets.loader import load_rows
from repro.datasets.synthetic import generate_synthetic, synthetic_schema

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))
from workloads import WORKLOADS, generate_rows  # noqa: E402

SEED = 7
BLOCK = 256

#: Component of each allocating source file (path suffix).
COMPONENTS = {
    "rows": (
        "core/record.py", "core/schema.py",
        "/csv.py", "datasets/loader.py", "datasets/synthetic.py",
    ),
    "columnar store": ("storage/columnar_store.py", "storage/sweep_index.py"),
    "constraint table": ("core/prominence.py",),
}


def component(filename):
    path = filename.replace(os.sep, "/")
    for name, suffixes in COMPONENTS.items():
        if path.endswith(suffixes):
            return name
    return "other"


def traced_state(build, rows):
    """Bytes by component that ``build()``'s engine holds once ``rows``
    (an iterator, consumed under tracing) went through it; the engine
    and its live row count."""
    gc.collect()
    tracemalloc.start(1)
    try:
        engine = build()
        while True:
            block = list(islice(rows, BLOCK))
            if not block:
                break
            engine.facts_for_many(block)
        del block
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_component = defaultdict(int)
    for stat in snapshot.statistics("filename"):
        by_component[component(stat.traceback[0].filename)] += stat.size
    return engine, dict(by_component)


def window_rw_cell(directory):
    workload = WORKLOADS["window_rw"]
    rows = generate_rows(workload, workload.history + workload.rows_at_10s, SEED)
    schema = workload.schema()
    path = os.path.join(directory, "window_rw.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[*schema.dimensions, *schema.measures])
        writer.writeheader()
        writer.writerows(rows)
    spec = workload.spec()
    return traced_state(lambda: open_engine(spec), load_rows(path, schema))


def paper_cell(n=5000):
    schema = synthetic_schema(5, 7)
    spec = EngineSpec(schema, "svec", DiscoveryConfig(max_bound_dims=4))
    return traced_state(
        lambda: open_engine(spec), generate_synthetic(n, 5, 7, seed=SEED)
    )


def report(name, engine, sizes):
    live = len(engine)
    print(f"\n{name}: {live} live rows of {engine.arrivals} arrivals")
    print(f"  {'component':<18}{'traced bytes':>14}{'bytes / live row':>18}")
    for key in (*COMPONENTS, "other"):
        size = sizes.get(key, 0)
        print(f"  {key:<18}{size:>14,}{size / live:>18.1f}")
    total = sum(sizes.values())
    print(f"  {'total':<18}{total:>14,}{total / live:>18.1f}")
    while not hasattr(engine, "algorithm"):
        engine = engine.inner  # the layers above the discoverer
    print(f"  store.approx_bytes() {engine.algorithm.approx_bytes():>14,}")


def test_state_per_live_row():
    with tempfile.TemporaryDirectory() as directory:
        report("window_rw", *window_rw_cell(directory))
    report("paper (d5 m7 d̂4, 5 000 rows)", *paper_cell())


if __name__ == "__main__":
    test_state_per_live_row()
