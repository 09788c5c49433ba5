"""Shared helpers for the figure-reproduction benches.

Each bench runs one paper figure at a scaled-down workload, prints the
figure's table (visible with ``pytest -s`` and in benchmark output), and
asserts the paper's qualitative claims (who wins, roughly by how much).

Set ``REPRO_BENCH_SCALE`` (float) to enlarge the workloads.
"""

import os

import pytest


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def run_figure(benchmark, figure_fn, scale, **kwargs):
    """Execute one figure function exactly once under pytest-benchmark,
    print its table(s), and return the result object(s)."""
    result = benchmark.pedantic(
        lambda: figure_fn(scale=scale, **kwargs), iterations=1, rounds=1
    )
    figures = result if isinstance(result, tuple) else (result,)
    for fig in figures:
        print()
        print(fig.table())
        for series in fig.series:
            if series.ys:
                benchmark.extra_info[series.label] = series.ys[-1]
    return result


def series_of(fig, label):
    """The ``(x, y)`` points of one labelled series of a figure."""
    (series,) = [s for s in fig.series if s.label == label]
    return list(zip(series.xs, series.ys))
