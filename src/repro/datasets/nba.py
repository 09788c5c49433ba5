"""Synthetic NBA box-score generator (substitute for the paper's dataset).

The paper streams 317,371 real box scores (1991–2004 regular seasons)
with 8 dimension attributes and 7 measures.  We cannot ship that data,
so this module generates a deterministic synthetic stream with the same
*shape*: identical attribute sets, realistic dimension cardinalities
(hundreds of players, 30 teams, ~50 colleges, ~35 states, 13 seasons,
7 months, 5 positions) and skewed, position-correlated stat lines.
Skyline/lattice behaviour depends only on these shape properties, so the
substitution preserves the phenomena the experiments measure.

Dimension/measure subsets for the paper's ``d``/``m`` sweeps (Tables V
and VI) are exposed via :func:`dimension_space` and
:func:`measure_space`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

from ..core.schema import MIN, TableSchema

#: Table V — dimension spaces for d = 4..7 (8-attribute full space).
DIMENSION_SPACES: Dict[int, Tuple[str, ...]] = {
    4: ("player", "season", "team", "opp_team"),
    5: ("player", "season", "month", "team", "opp_team"),
    6: ("position", "college", "state", "season", "team", "opp_team"),
    7: ("position", "college", "state", "season", "month", "team", "opp_team"),
    8: (
        "player",
        "position",
        "college",
        "state",
        "season",
        "month",
        "team",
        "opp_team",
    ),
}

#: Table VI — measure spaces for m = 4..7.
MEASURE_SPACES: Dict[int, Tuple[str, ...]] = {
    4: ("points", "rebounds", "assists", "blocks"),
    5: ("points", "rebounds", "assists", "blocks", "steals"),
    6: ("points", "rebounds", "assists", "blocks", "steals", "fouls"),
    7: (
        "points",
        "rebounds",
        "assists",
        "blocks",
        "steals",
        "fouls",
        "turnovers",
    ),
}

#: Smaller is better on these (paper §VI-A).
MIN_PREFERRED = ("fouls", "turnovers")

_POSITIONS = ("PG", "SG", "SF", "PF", "C")
_MONTHS = ("Nov", "Dec", "Jan", "Feb", "Mar", "Apr", "May")
_TEAMS = tuple(f"TEAM{i:02d}" for i in range(30))
_COLLEGES = tuple(f"College{i:02d}" for i in range(50))
_STATES = tuple(f"State{i:02d}" for i in range(35))
_SEASONS = tuple(f"{1991 + i}-{(92 + i) % 100:02d}" for i in range(13))

#: Per-position (mean points, mean rebounds, mean assists, mean blocks,
#: mean steals) — rough league-average archetypes.
_ARCHETYPES = {
    "PG": (11.0, 3.0, 6.5, 0.2, 1.4),
    "SG": (13.0, 3.5, 3.0, 0.3, 1.1),
    "SF": (12.0, 5.0, 2.5, 0.5, 1.0),
    "PF": (10.5, 7.0, 1.8, 0.9, 0.8),
    "C": (9.5, 8.0, 1.2, 1.4, 0.6),
}


def dimension_space(d: int) -> Tuple[str, ...]:
    """Dimension attributes for the paper's ``d`` parameter (Table V)."""
    try:
        return DIMENSION_SPACES[d]
    except KeyError:
        raise ValueError(f"d must be in {sorted(DIMENSION_SPACES)}, got {d}") from None


def measure_space(m: int) -> Tuple[str, ...]:
    """Measure attributes for the paper's ``m`` parameter (Table VI)."""
    try:
        return MEASURE_SPACES[m]
    except KeyError:
        raise ValueError(f"m must be in {sorted(MEASURE_SPACES)}, got {m}") from None


def nba_schema(d: int = 5, m: int = 7) -> TableSchema:
    """Schema matching the paper's experiment configuration ``(d, m)``."""
    measures = measure_space(m)
    prefs = {name: MIN for name in MIN_PREFERRED if name in measures}
    return TableSchema(dimension_space(d), measures, prefs)


class _Player:
    __slots__ = ("name", "position", "college", "state", "team", "skill")

    def __init__(self, rng: random.Random, index: int) -> None:
        self.name = f"Player{index:04d}"
        self.position = rng.choice(_POSITIONS)
        self.college = rng.choice(_COLLEGES)
        self.state = rng.choice(_STATES)
        self.team = rng.choice(_TEAMS)
        # Long-tailed skill multiplier: a few stars, many role players.
        self.skill = 0.4 + rng.paretovariate(3.0) * 0.45


def generate_nba(
    n: int,
    seed: int = 2014,
    n_players: int = 400,
) -> Iterator[Dict[str, object]]:
    """Yield ``n`` synthetic box-score rows in chronological order.

    Rows are grouped by season (like the real gamelog stream), and every
    row carries the full 8-dimension / 7-measure attribute set; callers
    project down via the schema.
    """
    rng = random.Random(seed)
    players = [_Player(rng, i) for i in range(n_players)]
    per_season = max(1, n // len(_SEASONS))
    produced = 0
    for season in _SEASONS:
        if produced >= n:
            break
        # A few rookies join each season: new player dimension values,
        # which is what keeps new contexts forming (paper §VII, Fig. 14).
        for _ in range(max(1, n_players // 40)):
            players.append(_Player(rng, len(players)))
        for _ in range(per_season):
            if produced >= n:
                break
            yield _game_row(rng, players, season)
            produced += 1
    while produced < n:  # round the count out in the last season
        yield _game_row(rng, players, _SEASONS[-1])
        produced += 1


def _game_row(
    rng: random.Random, players: Sequence[_Player], season: str
) -> Dict[str, object]:
    player = rng.choice(players)
    opp = rng.choice([t for t in _TEAMS if t != player.team])
    pts_mu, reb_mu, ast_mu, blk_mu, stl_mu = _ARCHETYPES[player.position]
    skill = player.skill
    hot = rng.gammavariate(2.0, 0.5)  # game-to-game variance, long tail

    def stat(mu: float, spread: float = 1.0) -> int:
        value = rng.gammavariate(1.8, mu * skill * spread / 1.8) * hot
        return max(0, int(round(value)))

    return {
        "player": player.name,
        "position": player.position,
        "college": player.college,
        "state": player.state,
        "season": season,
        "month": rng.choice(_MONTHS),
        "team": player.team,
        "opp_team": opp,
        "points": stat(pts_mu),
        "rebounds": stat(reb_mu),
        "assists": stat(ast_mu),
        "blocks": stat(blk_mu),
        "steals": stat(stl_mu),
        "fouls": min(6, stat(2.2, 0.8)),
        "turnovers": stat(1.6, 0.9),
    }


def nba_rows(n: int, d: int = 5, m: int = 7, seed: int = 2014) -> List[Dict[str, object]]:
    """Materialised list of rows projected to the ``(d, m)`` attribute
    subsets (convenience for benches)."""
    dims = dimension_space(d)
    measures = measure_space(m)
    keep = set(dims) | set(measures)
    return [
        {k: v for k, v in row.items() if k in keep} for row in generate_nba(n, seed)
    ]
