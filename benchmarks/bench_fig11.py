"""Fig. 11 — work done: tuple comparisons and traversed constraints.

Paper claims: substantial difference between TopDown and STopDown (the
sharing variant skips pruned non-skyline constraints), insignificant-to-
modest difference between BottomUp and SBottomUp (plain BottomUp already
skips most non-skyline constraints).  ``svec`` — not in the paper — is
defined to do STopDown's work in columns: both of its series are
STopDown's, point for point.
"""

from repro.experiments import figure11a, figure11b

from conftest import run_figure, series_of


def test_fig11a_comparisons(benchmark, bench_scale):
    fig = run_figure(benchmark, figure11a, bench_scale)
    final = fig.final_values()
    assert final["stopdown"] < final["topdown"]
    assert final["sbottomup"] <= final["bottomup"] * 1.05
    assert series_of(fig, "svec") == series_of(fig, "stopdown")


def test_fig11b_traversed_constraints(benchmark, bench_scale):
    fig = run_figure(benchmark, figure11b, bench_scale)
    final = fig.final_values()
    assert final["stopdown"] < final["topdown"]
    # TopDown visits every allowed constraint in every subspace, so it
    # traverses the most.
    assert final["topdown"] == max(final.values())
    assert series_of(fig, "svec") == series_of(fig, "stopdown")
