"""Workload-shape ablation: how measure correlation moves the trade-offs.

Not a paper figure — the paper evaluates two real datasets only.  The
skyline literature's standard knob is measure correlation: correlated
data has tiny skylines, anti-correlated data huge ones.  That knob
stresses exactly the paper's two design choices:

* Invariant-1 storage (BottomUp) grows with skyline size — the
  bottom-up/top-down storage ratio should widen on anti-correlated data;
* tuple reduction saves more when skylines are small — BottomUp's
  comparison count should look best on correlated data.
"""

import pytest

from repro import DiscoveryConfig, make_algorithm
from repro.datasets import ANTICORRELATED, CORRELATED, INDEPENDENT, synthetic_rows, synthetic_schema

CONFIG = DiscoveryConfig(max_bound_dims=3)
N = 150


def _run(name, dist):
    schema = synthetic_schema(3, 3)
    rows = synthetic_rows(N, 3, 3, dist, cardinalities=[4, 4, 4], seed=5)
    algo = make_algorithm(name, schema, CONFIG)
    algo.process_stream(rows)
    return algo


def test_storage_ratio_widens_with_anticorrelation(benchmark):
    def run():
        out = {}
        for dist in (CORRELATED, INDEPENDENT, ANTICORRELATED):
            bu = _run("bottomup", dist)
            td = _run("topdown", dist)
            out[dist] = (bu.stored_tuple_count(), td.stored_tuple_count())
        return out

    stored = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for dist, (bu, td) in stored.items():
        print(f"{dist:>14}: bottomup={bu:6d} topdown={td:6d} ratio={bu/td:.2f}")
    # Anti-correlated data (big skylines) stores the most, correlated
    # the least, for both families.
    assert stored[ANTICORRELATED][0] > stored[CORRELATED][0]
    assert stored[ANTICORRELATED][1] > stored[CORRELATED][1]


def test_comparisons_grow_with_skyline_size(benchmark):
    def run():
        return {
            dist: _run("sbottomup", dist).counters.comparisons
            for dist in (CORRELATED, INDEPENDENT, ANTICORRELATED)
        }

    comparisons = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for dist, count in comparisons.items():
        print(f"{dist:>14}: comparisons={count:,}")
    assert comparisons[ANTICORRELATED] > comparisons[CORRELATED]


def test_fact_volume_by_distribution(benchmark):
    def run():
        out = {}
        for dist in (CORRELATED, INDEPENDENT, ANTICORRELATED):
            schema = synthetic_schema(3, 3)
            rows = synthetic_rows(N, 3, 3, dist, cardinalities=[4, 4, 4], seed=5)
            algo = make_algorithm("stopdown", schema, CONFIG)
            out[dist] = sum(len(fs) for fs in algo.process_stream(rows))
        return out

    volumes = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for dist, count in volumes.items():
        print(f"{dist:>14}: facts={count:,}")
    # More skyline membership → more facts per arrival.
    assert volumes[ANTICORRELATED] > volumes[CORRELATED]
