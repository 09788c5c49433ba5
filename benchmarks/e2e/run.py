"""End-to-end benchmark: four closed-loop workloads against a real
``repro.cli serve`` subprocess.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--repeat K]

Prints every metric by name with its unit, checks every ack, query
reply and frame against an in-process reference, and exits non-zero on
any mismatch.  The last line of stdout is one JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
both without ``--trace``.  See README.md for what a run is made of.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: {SRC}/repro not found: run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

from estimators import rel_diff_pct  # noqa: E402
from harness import OUT, ProcessGuard, run_round  # noqa: E402
from reference import build_reference  # noqa: E402
from report import (  # noqa: E402
    BOUNDS, END_TO_END, PER_LAYER, ROUND_METRICS, UNITS, per_layer, round_values, run_values,
)
from workloads import WORKLOADS, build_stream  # noqa: E402

#: Untraced rounds per run, each with a fresh server.
ROUNDS = 5


def round_plan(trace):
    """Which rounds a run is made of (True = traced).  End-to-end
    numbers never come from the traced round, which only a run that
    prints per-layer metrics needs."""
    return [False] * ROUNDS + [True] * (trace != 0)


async def run_once(names, seed, seconds, trace, guard, run_dir):
    streams, refs = {}, {}
    # Full-stack workloads first, so a reference shared with a bare
    # twin carries the feed fold.
    for name in sorted(names, key=lambda n: not WORKLOADS[n].full_stack):
        workload = WORKLOADS[name]
        streams[name] = stream = build_stream(workload, seed, seconds)
        # live and sharded replay the same stream against the same
        # unsharded reference, so they must emit identical facts.
        twin = next(
            (n for n in refs if streams[n] == stream
             and WORKLOADS[n].windowed == workload.windowed),
            None,
        )
        refs[name] = refs[twin] if twin else build_reference(workload, stream)
    rounds = {name: [] for name in names}
    # Interleaved, so every workload samples the whole span of the run.
    for traced in round_plan(trace):
        for name in names:
            rounds[name].append(
                await run_round(
                    WORKLOADS[name], streams[name], refs[name], guard, traced, run_dir
                )
            )
    return {name: summarise(name, streams[name], refs[name], rounds[name]) for name in names}


def summarise(name, stream, ref, rounds):
    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": [e for r in rounds for e in r.errors],
        "facts_digest": ref.facts_digest,
        "feed_digest": ref.feed_digest,
        "rounds": len(rounds),
        "history": len(stream.history),
        "arrivals": stream.arrivals,
        "foreign": max(r.foreign for r in rounds),
    }
    for r in rounds:
        if r.failed:
            continue
        if r.facts_digest != ref.facts_digest:
            result["errors"].append("facts_digest differs between a round and the reference")
        if r.feed_digest != ref.feed_digest and WORKLOADS[name].full_stack:
            result["errors"].append("feed_digest differs between a round and the reference")
    good = [r for r in rounds if not r.failed]
    untraced = [r for r in good if not r.traced]
    traced = next((r for r in good if r.traced), None)
    result["correct"] = not result["failed"] and not result["errors"] and bool(untraced)
    if untraced:
        per_round = [round_values(stream, r) for r in untraced]
        result["per_round"] = per_round
        run = run_values(stream, untraced, per_round)
        result["run"] = run
        result["end_to_end"] = {name: run[name] for name, *_ in END_TO_END}
        result["per_layer"] = per_layer(stream, ref, untraced, traced, per_round, run)
    return result


def print_workload(name, seed, result, tables):
    print(f"== {name}: seed {seed}, history {result['history']}, "
          f"{result['rounds']} rounds x {result['arrivals']} arrivals ==")
    print(f"  why: {WORKLOADS[name].why}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        values = result.get(key)
        if key not in tables or not values:
            continue
        print(f"  -- {key.replace('_', ' ')} --")
        for metric, unit, *_ in table:
            line = f"  {metric:<40} {values[metric]:>14.4f} {unit}"
            if key == "end_to_end":
                line += "   rounds: " + " ".join(
                    f"{r[metric]:.4g}" for r in result["per_round"]
                )
            print(line)
    print(f"  facts_digest {result['facts_digest']}")
    if result["feed_digest"]:
        print(f"  feed_digest  {result['feed_digest']}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    if result["foreign"]:
        print(f"  WARNING: {result['foreign']} repro.cli serve process(es) this run "
              "did not start were alive; timings are not trustworthy")
    for error in result["errors"]:
        print(f"  ERROR: {error}")


def print_agreement(runs):
    """Per round metric x workload: each run's value, how far the worst
    run is from the best as a share of the best, and the bound (none for
    a metric demoted to the per-layer list)."""
    print("== agreement between runs of the same code ==")
    print(f"  {'workload':<10} {'metric':<16} {'runs':<40} {'diff %':>8} {'bound %':>8}")
    for name in runs[0]:
        for metric, _, better in ROUND_METRICS:
            values = [run[name]["run"][metric] for run in runs]
            best = min(values) if better == "lower" else max(values)
            worst = max(values) if better == "lower" else min(values)
            diff = rel_diff_pct(best, worst, better)
            bound = BOUNDS.get(metric)
            limit = "none" if bound is None else f"{100 * bound:.1f}"
            verdict = "  FAIL" if bound is not None and diff > 100 * bound else ""
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"  {name:<10} {metric:<16} {shown:<40} {diff:>8.2f} {limit:>8}{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four, rounds interleaved)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal measured time per run; scales the arrivals per round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole benchmark K times and print the agreement table")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)

    tables = {0: ["end_to_end"], 1: ["per_layer"]}.get(args.trace, ["end_to_end", "per_layer"])

    guard = ProcessGuard()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = OUT / f"run_{os.getpid()}"
    runs = []
    try:
        for _ in range(args.repeat):
            results = asyncio.run(
                run_once(names, args.seed, args.seconds, args.trace, guard, run_dir)
            )
            runs.append(results)
            for name in names:
                print_workload(name, args.seed, results[name], tables)
    finally:
        guard.kill_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = all(r["correct"] for run in runs for r in run.values())
    if len(runs) > 1 and correct:
        print_agreement(runs)

    last = runs[-1]
    metrics = {}
    for name in names:
        for table in tables:
            for metric, value in last[name].get(table, {}).items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": UNITS[metric]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in last.values()),
        "failed": sum(r["failed"] for r in last.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
