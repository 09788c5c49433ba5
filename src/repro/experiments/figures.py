"""One function per paper figure (§VI–VII), each returning
:class:`~repro.experiments.harness.FigureResult` objects whose text
tables mirror the plotted series.

Default workload sizes are scaled down for pure Python (see the harness
module docstring); pass ``scale > 1`` to enlarge.  The paper's parameter
defaults — ``d=5, m=7, d̂=4, m̂=m`` for §VI and ``d̂=3, m̂=3, τ`` sweeps
for §VII — are kept wherever runtime permits, and noted otherwise at
the figure function that departs from them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.config import DiscoveryConfig
from ..core.engine import FactDiscoverer
from ..core.schema import TableSchema
from ..datasets.nba import nba_rows, nba_schema
from ..datasets.weather import weather_rows, weather_schema
from .harness import (
    FigureResult,
    Series,
    counter_stream,
    sweep_vary_n,
    sweep_vary_param,
)

#: §VI-A: every experiment caps constraints at d̂ = 4 bound attributes.
PAPER_CONFIG = DiscoveryConfig(max_bound_dims=4)

FIG7_ALGOS = ("baselineseq", "baselineidx", "ccsc", "bottomup", "topdown")
#: Figs. 8–11 carry ``svec`` — the engine every service path runs —
#: beside the paper's algorithms: same facts, stores and op counters as
#: ``stopdown`` (its series coincide on Figs. 10b and 11), columnar time
#: and bytes (Figs. 8, 9, 10a), d swept over 4…7.
FIG8_ALGOS = ("ccsc", "bottomup", "topdown", "sbottomup", "stopdown", "svec")
FIG11_ALGOS = ("bottomup", "topdown", "sbottomup", "stopdown", "svec")
FIG12_ALGOS = ("fsbottomup", "fstopdown")


def _checkpoints(n: int, windows: int = 4) -> List[int]:
    step = max(1, n // windows)
    points = list(range(step, n + 1, step))
    if points[-1] != n:
        points.append(n)
    return points


# ----------------------------------------------------------------------
# Fig. 7 — baselines + C-CSC vs BottomUp/TopDown (NBA)
# ----------------------------------------------------------------------
def figure7a(scale: float = 1.0, d: int = 4, m: int = 4) -> FigureResult:
    """Per-tuple time vs n (paper: d=5, m=7, n→50 000; scaled here)."""
    n = int(240 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = sweep_vary_n(
        FIG7_ALGOS, nba_schema(d, m), rows, _checkpoints(n), PAPER_CONFIG
    )
    return FigureResult(
        f"Fig.7a  NBA, varying n (d={d}, m={m})",
        "tuple_id",
        "execution time per tuple, msec",
        series,
    )


def figure7b(scale: float = 1.0, m: int = 4) -> FigureResult:
    """Per-tuple time vs d (paper: n=50 000, m=7)."""
    n = int(100 * scale)

    def build(d: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG7_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.7b  NBA, varying d (n={n}, m={m})",
        "d",
        "execution time per tuple, msec",
        series,
    )


def figure7c(scale: float = 1.0, d: int = 4) -> FigureResult:
    """Per-tuple time vs m (paper: n=50 000, d=5)."""
    n = int(100 * scale)

    def build(m: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG7_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.7c  NBA, varying m (n={n}, d={d})",
        "m",
        "execution time per tuple, msec",
        series,
    )


# ----------------------------------------------------------------------
# Fig. 8 — sharing variants vs BottomUp/TopDown/C-CSC (NBA)
# ----------------------------------------------------------------------
def figure8a(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = sweep_vary_n(
        FIG8_ALGOS, nba_schema(d, m), rows, _checkpoints(n), PAPER_CONFIG
    )
    return FigureResult(
        f"Fig.8a  NBA, varying n (d={d}, m={m})",
        "tuple_id",
        "execution time per tuple, msec",
        series,
    )


def figure8b(scale: float = 1.0, m: int = 4) -> FigureResult:
    n = int(120 * scale)

    def build(d: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG8_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.8b  NBA, varying d (n={n}, m={m})",
        "d",
        "execution time per tuple, msec",
        series,
    )


def figure8c(scale: float = 1.0, d: int = 4) -> FigureResult:
    n = int(120 * scale)

    def build(m: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG8_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.8c  NBA, varying m (n={n}, d={d})",
        "m",
        "execution time per tuple, msec",
        series,
    )


# ----------------------------------------------------------------------
# Fig. 9 — weather dataset, varying n
# ----------------------------------------------------------------------
def figure9(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = weather_rows(n, d=d, m=m)
    series = sweep_vary_n(
        FIG8_ALGOS, weather_schema(d, m), rows, _checkpoints(n), PAPER_CONFIG
    )
    return FigureResult(
        f"Fig.9  Weather, varying n (d={d}, m={m})",
        "tuple_id",
        "execution time per tuple, msec",
        series,
    )


# ----------------------------------------------------------------------
# Fig. 10 — memory consumption and stored skyline tuples (NBA)
# ----------------------------------------------------------------------
def figure10a(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = counter_stream(
        FIG8_ALGOS,
        nba_schema(d, m),
        rows,
        _checkpoints(n),
        metric=lambda algo: algo.approx_bytes(),
        config=PAPER_CONFIG,
    )
    return FigureResult(
        f"Fig.10a  NBA memory, varying n (d={d}, m={m})",
        "tuple_id",
        "approx. store bytes",
        series,
    )


def figure10b(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = counter_stream(
        FIG8_ALGOS,
        nba_schema(d, m),
        rows,
        _checkpoints(n),
        metric=lambda algo: algo.stored_tuple_count(),
        config=PAPER_CONFIG,
    )
    return FigureResult(
        f"Fig.10b  NBA stored skyline tuples, varying n (d={d}, m={m})",
        "tuple_id",
        "number of skyline tuples stored",
        series,
    )


# ----------------------------------------------------------------------
# Fig. 11 — comparisons and traversed constraints (NBA)
# ----------------------------------------------------------------------
def figure11a(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = counter_stream(
        FIG11_ALGOS,
        nba_schema(d, m),
        rows,
        _checkpoints(n),
        metric=lambda algo: algo.counters.comparisons,
        config=PAPER_CONFIG,
    )
    return FigureResult(
        f"Fig.11a  NBA cumulative comparisons (d={d}, m={m})",
        "tuple_id",
        "number of comparisons",
        series,
    )


def figure11b(scale: float = 1.0, d: int = 5, m: int = 5) -> FigureResult:
    n = int(400 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = counter_stream(
        FIG11_ALGOS,
        nba_schema(d, m),
        rows,
        _checkpoints(n),
        metric=lambda algo: algo.counters.traversed_constraints,
        config=PAPER_CONFIG,
    )
    return FigureResult(
        f"Fig.11b  NBA cumulative traversed constraints (d={d}, m={m})",
        "tuple_id",
        "number of traversed constraints",
        series,
    )


# ----------------------------------------------------------------------
# Figs. 12-13 — file-based implementations
# ----------------------------------------------------------------------
def figure12a(scale: float = 1.0, d: int = 5, m: int = 4) -> FigureResult:
    # d=5 as in the paper: at d=4 the scaled-down workload has so few
    # non-empty pairs that the file-I/O asymmetry the figure is about
    # does not dominate.
    n = int(120 * scale)
    rows = nba_rows(n, d=d, m=m)
    series = sweep_vary_n(
        FIG12_ALGOS, nba_schema(d, m), rows, _checkpoints(n), PAPER_CONFIG
    )
    return FigureResult(
        f"Fig.12a  NBA file-based, varying n (d={d}, m={m})",
        "tuple_id",
        "execution time per tuple, msec",
        series,
    )


def figure12b(scale: float = 1.0, m: int = 4) -> FigureResult:
    n = int(50 * scale)

    def build(d: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG12_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.12b  NBA file-based, varying d (n={n}, m={m})",
        "d",
        "execution time per tuple, msec",
        series,
    )


def figure12c(scale: float = 1.0, d: int = 4) -> FigureResult:
    n = int(50 * scale)

    def build(m: int) -> Tuple[TableSchema, Sequence[dict]]:
        return nba_schema(d, m), nba_rows(n, d=d, m=m)

    series = sweep_vary_param(FIG12_ALGOS, (4, 5, 6, 7), build, PAPER_CONFIG)
    return FigureResult(
        f"Fig.12c  NBA file-based, varying m (n={n}, d={d})",
        "m",
        "execution time per tuple, msec",
        series,
    )


def figure13(scale: float = 1.0, d: int = 5, m: int = 4) -> FigureResult:
    n = int(120 * scale)
    rows = weather_rows(n, d=d, m=m)
    series = sweep_vary_n(
        FIG12_ALGOS, weather_schema(d, m), rows, _checkpoints(n), PAPER_CONFIG
    )
    return FigureResult(
        f"Fig.13  Weather file-based, varying n (d={d}, m={m})",
        "tuple_id",
        "execution time per tuple, msec",
        series,
    )


# ----------------------------------------------------------------------
# Figs. 14-15 — prominent-fact statistics (§VII)
# ----------------------------------------------------------------------
def _prominent_stream(
    n: int, d: int, m: int, tau: float
) -> List[Tuple[int, List]]:
    """Run the §VII pipeline: per tuple, the prominent facts (ties at the
    max prominence, if ≥ τ) under d̂=3, m̂=3."""
    config = DiscoveryConfig(max_bound_dims=3, max_measure_dims=3, tau=tau)
    engine = FactDiscoverer(nba_schema(d, m), algorithm="stopdown", config=config)
    out = []
    for i, row in enumerate(nba_rows(n, d=d, m=m)):
        out.append((i, engine.observe(row)))
    return out


def figure14(
    scale: float = 1.0, d: int = 5, m: int = 4, tau: float = 20.0,
    window: int = 250,
) -> FigureResult:
    """Number of prominent facts per window of tuples (paper: per 1 000
    tuples at τ=10³ over 300 K tuples; scaled: smaller windows/τ)."""
    n = int(2000 * scale)
    stream = _prominent_stream(n, d, m, tau)
    s = Series(label=f"tau={int(tau)}")
    count = 0
    for i, facts in stream:
        count += len(facts)
        if (i + 1) % window == 0:
            s.add(i + 1, count)
            count = 0
    return FigureResult(
        f"Fig.14  prominent facts per {window} tuples (d={d}, m={m}, "
        f"d̂=3, m̂=3, τ={int(tau)})",
        "tuple_id",
        "number of prominent facts",
        [s],
    )


def figure15(
    scale: float = 1.0, d: int = 5, m: int = 4,
    taus: Sequence[float] = (5.0, 20.0, 80.0),
) -> Tuple[FigureResult, FigureResult]:
    """Distribution of prominent facts by bound(C) (15a) and by |M|
    (15b), for varying τ (paper: τ ∈ [10², 10⁴])."""
    n = int(2000 * scale)
    by_bound = {tau: {} for tau in taus}
    by_dim = {tau: {} for tau in taus}
    for tau in taus:
        for _i, facts in _prominent_stream(n, d, m, tau):
            for fact in facts:
                b = fact.constraint.bound_count
                k = bin(fact.subspace).count("1")
                by_bound[tau][b] = by_bound[tau].get(b, 0) + 1
                by_dim[tau][k] = by_dim[tau].get(k, 0) + 1
    bounds = list(range(0, 4))
    dims = list(range(1, 4))
    series_a = []
    series_b = []
    for tau in taus:
        sa = Series(label=f"tau={int(tau)}")
        for b in bounds:
            sa.add(b, by_bound[tau].get(b, 0))
        series_a.append(sa)
        sb = Series(label=f"tau={int(tau)}")
        for k in dims:
            sb.add(k, by_dim[tau].get(k, 0))
        series_b.append(sb)
    fig_a = FigureResult(
        f"Fig.15a  prominent facts by bound(C) (n={n}, d={d}, m={m})",
        "bound(C)",
        "number of prominent facts",
        series_a,
    )
    fig_b = FigureResult(
        f"Fig.15b  prominent facts by |M| (n={n}, d={d}, m={m})",
        "|M|",
        "number of prominent facts",
        series_b,
    )
    return fig_a, fig_b


#: Registry used by ``repro-facts figures`` and the benches.
ALL_FIGURES: Dict[str, Callable[..., object]] = {
    "fig7a": figure7a,
    "fig7b": figure7b,
    "fig7c": figure7c,
    "fig8a": figure8a,
    "fig8b": figure8b,
    "fig8c": figure8c,
    "fig9": figure9,
    "fig10a": figure10a,
    "fig10b": figure10b,
    "fig11a": figure11a,
    "fig11b": figure11b,
    "fig12a": figure12a,
    "fig12b": figure12b,
    "fig12c": figure12c,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
}
