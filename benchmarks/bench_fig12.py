"""Fig. 12 — file-based FSBottomUp vs FSTopDown on NBA.

Paper claim: FSTopDown outperforms FSBottomUp by multiple times because
maximal-constraint storage touches far fewer files (fewer reads *and*
writes); I/O cost dominates in-memory computation.
"""

from repro.experiments import figure12a, figure12b, figure12c

from conftest import run_figure


def test_fig12a_varying_n(benchmark, bench_scale):
    fig = run_figure(benchmark, figure12a, bench_scale)
    # At laptop scale the OS page cache absorbs most steady-state I/O,
    # so wall-clock per window is noisy.  The
    # paper's mechanism — FSTopDown touches far fewer files — is
    # asserted on the I/O counters, which are deterministic.
    from repro import DiscoveryConfig
    from repro.algorithms import FSBottomUp, FSTopDown
    from repro.datasets import nba_rows, nba_schema

    config = DiscoveryConfig(max_bound_dims=4)
    rows = nba_rows(int(60 * bench_scale), d=5, m=4)
    bu = FSBottomUp(nba_schema(5, 4), config)
    td = FSTopDown(nba_schema(5, 4), config)
    bu.process_stream(rows)
    td.process_stream(rows)
    print(
        f"\nfile writes: fsbottomup={bu.counters.file_writes:,} "
        f"fstopdown={td.counters.file_writes:,}"
    )
    # Writes are the dominant asymmetry (every store mutation flushes);
    # reads depend on repair traffic and can go either way at this
    # scale, so only the write ratio is asserted.
    assert td.counters.file_writes * 2 < bu.counters.file_writes
    bu.close()
    td.close()


def test_fig12b_varying_d(benchmark, bench_scale):
    fig = run_figure(benchmark, figure12b, bench_scale)
    final = fig.final_values()
    assert final["fstopdown"] < final["fsbottomup"]


def test_fig12c_varying_m(benchmark, bench_scale):
    fig = run_figure(benchmark, figure12c, bench_scale)
    final = fig.final_values()
    assert final["fstopdown"] < final["fsbottomup"]
