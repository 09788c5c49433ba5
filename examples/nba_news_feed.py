#!/usr/bin/env python3
"""The §VII case study: a streaming NBA news desk.

Streams synthetic box scores (the substitute for the paper's 317 K-row
gamelog) through a prominence-thresholded news feed with the paper's
reporting parameters (d̂=3, m̂=3) and prints the headlines the engine
would hand a sports journalist — the "Damon Stoudamire scored 54 points,
the highest in history by any Trail Blazer"-style facts.

Run:  python examples/nba_news_feed.py [n_tuples] [tau]
"""

import sys

from repro import DiscoveryConfig, EngineSpec, open_engine
from repro.datasets import nba_rows, nba_schema
from repro.reporting import NewsFeed


def main(n: int = 1500, tau: float = 25.0) -> None:
    schema = nba_schema(d=5, m=4)
    # The feed runs over any Engine: this spec opens an in-proc
    # stopdown engine, but sharding=ShardingSpec(4, "process") would
    # serve the same feed from four subspace-parallel workers.
    spec = EngineSpec(
        schema,
        algorithm="stopdown",
        config=DiscoveryConfig(max_bound_dims=3, max_measure_dims=3, tau=tau),
    )
    feed = NewsFeed(open_engine(spec))
    rows = nba_rows(n, d=5, m=4)
    print(f"Streaming {n} box scores (tau={tau}, d̂=3, m̂=3)...\n")
    for i, row in enumerate(rows):
        for headline in feed.push(row):
            print(f"[game {i:5d}] {headline.text}")
    total = len(feed.headlines)
    print(f"\n{total} prominent facts from {n} tuples "
          f"({1000 * total / n:.1f} per 1000 tuples — the paper's Fig. 14 "
          f"band is 5-25 per 1000 at its scale).")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    tau = float(sys.argv[2]) if len(sys.argv) > 2 else 25.0
    main(n, tau)
