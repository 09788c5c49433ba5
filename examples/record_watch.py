#!/usr/bin/env python3
"""Windowed record watching with Elias-style framing.

Combines two extensions: a sliding window (facts hold within the recent
window, not all history) and historical narration — when a windowed fact
fires, the full retained history is searched for the last precedent so
the headline reads like the paper's opening example: *"... the first
Pacers player with a 20/10/5 game against the Bulls since Detlef
Schrempf in December 1992."*

Run:  python examples/record_watch.py [n_tuples] [window]
"""

import sys

from repro import DiscoveryConfig, EngineSpec, TableSchema, open_engine
from repro.core import select_reportable
from repro.datasets import nba_rows
from repro.reporting.history import narrate_with_history

SCHEMA = TableSchema(
    dimensions=("player", "season", "team", "opp_team"),
    measures=("points", "rebounds", "assists"),
)

ENTITY_ATTR = 0  # player
WHEN_ATTR = 1  # season


def main(n: int = 1200, window: int = 300) -> None:
    config = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2, tau=40.0)
    # Windowing is one spec field; the window layer composes over any
    # engine (swap in sharding=ShardingSpec(...) unchanged).
    spec = EngineSpec(SCHEMA, algorithm="stopdown", config=config,
                      window=window)
    full_history = []  # retained beyond the window, for "first since"

    keep = set(SCHEMA.dimensions) | set(SCHEMA.measures)
    rows = [
        {k: v for k, v in row.items() if k in keep}
        for row in nba_rows(n, d=4, m=4)
    ]
    print(f"Watching {n} games, window={window}, tau={config.tau}\n")
    headlines = 0
    with open_engine(spec) as engine:
        for i, row in enumerate(rows):
            arrival = engine.facts_for(row)
            for fact in select_reportable(arrival, engine.config):
                headlines += 1
                text = narrate_with_history(
                    fact,
                    SCHEMA,
                    full_history,
                    entity_attribute=ENTITY_ATTR,
                    when_attribute=WHEN_ATTR,
                )
                print(f"[game {i:5d}] {text}")
            full_history.append(arrival.record)
    print(f"\n{headlines} windowed records spotted.")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    window = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    main(n, window)
