"""Which side of the ``svec`` walk wins at which history size.

Not a paper figure — this repo's check of one measured constant.  The
``svec`` lattice walk splits the history at the store's sweep-index
watermark: rows below it are answered from packed bitsets (sorted
measure orderings, posting bitsets, anchor planes — PR 7), rows above it
by the dense elementwise sweep.  The dense side re-scans all ``n``
stored rows per arrival, so its *scored* ``observe_many`` marginal grows
linearly with the relation; the indexed side stays near-flat but pays a
fixed probe cost that loses on short histories.  The store therefore
arms the index from its own row count, at ``ARM_ROWS``
(``repro/storage/sweep_index.py``).

``test_sweep_index_marginal_near_flat`` measures that marginal at one
size on each side of the constant (3k and 30k; 100k on the engine's own
choice only — the dense marginal grows linearly, the 30k point already
shows the trend and the warm-up alone would dominate the runtime).  At
3k and 30k it measures the engine's own choice *and* both forced sides —
forced by patching the module constant in this process, nothing in
``src/`` selects a side by hand — and asserts that the choice is the
faster side at both sizes and that the indexed marginal stays within
1.5× from 3k to 30k.  Results go to ``BENCH_PR7.json`` (``n_sweep``).

Run with ``pytest benchmarks/bench_lattice.py -s``;
``REPRO_BENCH_SCALE`` scales the workload.
"""

import gc
import time

from repro import FactDiscoverer
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.storage import sweep_index as sweep_module

from _results import update_results

D, M = 4, 4
CHUNK = 100
CHUNKS = 4

#: One relation size on each side of ``ARM_ROWS``, and one far beyond it
#: (measured on the engine's own choice only).
N_DENSE_SIDE, N_INDEXED_SIDE, N_FAR = 3_000, 30_000, 100_000

#: ``ARM_ROWS`` values that force a side whatever the size: never arm /
#: arm at the first fold batch.
FORCED = {"dense": 1 << 62, "indexed": sweep_module.DEFAULT_FOLD_BATCH}

#: Required flatness of the indexed scored marginal: the 30k marginal
#: may cost at most this multiple of the 3k one.  The dense sweep sits
#: at ~2.6-3.6× over the same span (O(n·m) re-scan per arrival); the
#: index keeps the prefix work at a few packed words per (plane, mask)
#: cell, measured ~1.3-1.45×.
MARGINAL_GROWTH_CEILING = 1.5

#: The engine's own choice may cost at most this multiple of the other
#: side.  Near the crossover the two sides are within host noise of each
#: other; a constant on the wrong side of either size is off by 1.5× or
#: more (dense at 30k: ~2.7× the indexed marginal).
CHOICE_TOLERANCE = 1.1


def _scored_marginal_at(n, rows, arm_rows=None):
    """Best-of-chunks scored ``facts_for_many`` marginal on a relation
    warmed to ``n`` rows, and the side the store ended up on.

    ``arm_rows`` patches the arming constant for this engine's lifetime
    (``None``: the shipped constant, i.e. the engine's own choice).
    Warm-up runs unscored (``process_many``, which also counts the
    contexts — the exact state transitions of the scored path, minus
    the per-fact annotation, which reads state but never writes it), so
    the 100k point warms in NumPy-batch time; probes then measure the
    real scored marginal.
    """
    shipped = sweep_module.ARM_ROWS
    if arm_rows is not None:
        sweep_module.ARM_ROWS = arm_rows
    gc_was_enabled = gc.isenabled()
    try:
        engine = FactDiscoverer(
            schema=synthetic_schema(D, M), algorithm="svec", score=True
        )
        engine.algorithm.process_many(rows[:n])
        chunks = [
            rows[n + i * CHUNK : n + (i + 1) * CHUNK] for i in range(CHUNKS)
        ]
        samples = []
        gc.disable()
        for chunk in chunks:
            start = time.perf_counter()
            engine.facts_for_many(chunk)
            samples.append((time.perf_counter() - start) / len(chunk))
        side = (
            "indexed"
            if engine.algorithm.store.folded_sweep() is not None
            else "dense"
        )
    finally:
        sweep_module.ARM_ROWS = shipped
        if gc_was_enabled:
            gc.enable()
    return min(samples), side


def test_sweep_index_marginal_near_flat(benchmark, bench_scale):
    sizes = [int(n * bench_scale) for n in (N_DENSE_SIDE, N_INDEXED_SIDE)]
    n_far = int(N_FAR * bench_scale)
    rows = synthetic_rows(
        n_far + CHUNK * CHUNKS, D, M, distribution="anticorrelated"
    )

    def measure(n):
        own, side = _scored_marginal_at(n, rows)
        cell = {"choice": side, "own": own}
        for forced, arm_rows in FORCED.items():
            cell[forced], took = _scored_marginal_at(n, rows, arm_rows)
            assert took == forced
        return cell

    def margin(cell):
        """The choice's marginal over the other side's."""
        other = "dense" if cell["choice"] == "indexed" else "indexed"
        return cell["own"] / cell[other]

    def run():
        # One retry per size: a scheduler burst on one measurement must
        # not flake a bench whose genuine failure modes (a constant on
        # the wrong side, a de-indexed prefix) sit at 1.5× and beyond.
        table = {}
        for n in sizes:
            table[n] = measure(n)
            if margin(table[n]) > CHOICE_TOLERANCE:
                table[n] = min(table[n], measure(n), key=margin)
        far, far_side = _scored_marginal_at(n_far, rows)
        return table, far, far_side

    table, far, far_side = benchmark.pedantic(run, iterations=1, rounds=1)
    growth = table[sizes[1]]["indexed"] / table[sizes[0]]["indexed"]
    dense_growth = table[sizes[1]]["dense"] / table[sizes[0]]["dense"]
    print()
    print(
        f"scored observe_many marginal per-tuple, d={D} m={M} "
        f"(anticorrelated), ARM_ROWS={sweep_module.ARM_ROWS}:"
    )
    print(f"  {'n':>8}  {'own choice':>18}  {'dense':>10}  {'indexed':>10}")
    for n in sizes:
        cell = table[n]
        print(
            f"  {n:>8}  {1e3 * cell['own']:8.3f} ms {cell['choice']:>7}  "
            f"{1e3 * cell['dense']:7.3f} ms  {1e3 * cell['indexed']:7.3f} ms"
        )
    print(f"  {n_far:>8}  {1e3 * far:8.3f} ms {far_side:>7}")
    print(
        f"  growth {sizes[0]}→{sizes[1]}: indexed {growth:.2f}x (ceiling "
        f"{MARGINAL_GROWTH_CEILING}x), dense {dense_growth:.2f}x"
    )
    update_results(
        "n_sweep",
        {
            "d": D,
            "m": M,
            "distribution": "anticorrelated",
            "arm_rows": sweep_module.ARM_ROWS,
            "choice": {str(n): table[n]["choice"] for n in sizes},
            "own_ms": dict(
                {str(n): round(1e3 * table[n]["own"], 4) for n in sizes},
                **{str(n_far): round(1e3 * far, 4)},
            ),
            "dense_ms": {
                str(n): round(1e3 * table[n]["dense"], 4) for n in sizes
            },
            "indexed_ms": {
                str(n): round(1e3 * table[n]["indexed"], 4) for n in sizes
            },
            "indexed_growth_3k_to_30k": round(growth, 3),
            "dense_growth_3k_to_30k": round(dense_growth, 3),
            "growth_ceiling": MARGINAL_GROWTH_CEILING,
            "choice_tolerance": CHOICE_TOLERANCE,
        },
        filename="BENCH_PR7.json",
    )
    benchmark.extra_info["indexed_growth_3k_to_30k"] = round(growth, 2)
    for n in sizes:
        cell = table[n]
        assert margin(cell) <= CHOICE_TOLERANCE, (
            f"at n={n} the store chose the {cell['choice']} side "
            f"({1e3 * cell['own']:.3f} ms) but the other side is faster "
            f"(dense {1e3 * cell['dense']:.3f} ms, indexed "
            f"{1e3 * cell['indexed']:.3f} ms) — re-measure ARM_ROWS in "
            f"repro/storage/sweep_index.py"
        )
    assert growth <= MARGINAL_GROWTH_CEILING, (
        f"indexed scored marginal grew {growth:.2f}x from "
        f"n={sizes[0]} to n={sizes[1]} (ceiling "
        f"{MARGINAL_GROWTH_CEILING}x) — the sweep index has likely "
        f"stopped short-circuiting the stable prefix; see "
        f"benchmarks/bench_guard.py::test_sweep_index_stays_sublinear"
    )
