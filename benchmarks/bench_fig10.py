"""Fig. 10 — memory consumption and stored skyline-tuple counts.

Paper claims: BottomUp/SBottomUp store several times more tuple
references than TopDown/STopDown (which anchor each tuple only at its
maximal skyline constraints); the two members of each family store
identically; C-CSC sits near the top-down family.  ``svec`` — not in
the paper — is the serving engine's columnar STopDown: its stored-tuple
series is STopDown's, point for point.
"""

from repro.experiments import figure10a, figure10b

from conftest import run_figure, series_of


def test_fig10a_memory_bytes(benchmark, bench_scale):
    fig = run_figure(benchmark, figure10a, bench_scale)
    final = fig.final_values()
    assert final["bottomup"] > final["topdown"]
    assert final["sbottomup"] > final["stopdown"]


def test_fig10b_stored_tuples(benchmark, bench_scale):
    fig = run_figure(benchmark, figure10b, bench_scale)
    final = fig.final_values()
    # "BottomUp/SBottomUp stored several times more tuples than
    # TopDown/STopDown" — assert at least 2x at our scale.
    assert final["bottomup"] >= 2 * final["topdown"]
    # Same materialisation scheme within each family.
    assert final["bottomup"] == final["sbottomup"]
    assert final["topdown"] == final["stopdown"]
    assert series_of(fig, "svec") == series_of(fig, "stopdown")
