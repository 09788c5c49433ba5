"""Synthetic UK weather-forecast generator (substitute for the Met Office
archive the paper streams).

Shape matches the paper's description: 7 dimension attributes
(location, country, month, time step, day/night wind direction,
visibility range) and 7 measures (day/night wind speed, temperature,
humidity, plus wind gust), with larger-dominates-smaller on every
measure (paper §VI-A).  Measures carry seasonal structure so contexts
such as ``month=Jan ∧ country=Scotland`` have correlated extremes, the
property the case-study-style facts depend on.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Tuple

from ..core.schema import TableSchema

DIMENSIONS: Tuple[str, ...] = (
    "location",
    "country",
    "month",
    "time_step",
    "wind_dir_day",
    "wind_dir_night",
    "visibility_range",
)

MEASURES: Tuple[str, ...] = (
    "wind_speed_day",
    "wind_speed_night",
    "temperature_day",
    "temperature_night",
    "humidity_day",
    "humidity_night",
    "wind_gust",
)

_COUNTRIES = (
    "England",
    "Scotland",
    "Wales",
    "NorthernIreland",
    "Guernsey",
    "Jersey",
)
_MONTHS = ("Dec", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov")
_TIME_STEPS = ("0-6h", "6-12h", "12-18h", "18-24h")
_WIND_DIRS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
_VISIBILITY = ("VeryPoor", "Poor", "Moderate", "Good", "VeryGood", "Excellent")


def weather_schema(d: int = 7, m: int = 7) -> TableSchema:
    """Schema over the first ``d`` dimensions / ``m`` measures.

    The paper's weather runs use ``d=5, m=7``; prefix subsets keep the
    most selective attributes (location, country, month) first.
    """
    if not 1 <= d <= len(DIMENSIONS):
        raise ValueError(f"d must be in 1..{len(DIMENSIONS)}, got {d}")
    if not 1 <= m <= len(MEASURES):
        raise ValueError(f"m must be in 1..{len(MEASURES)}, got {m}")
    return TableSchema(DIMENSIONS[:d], MEASURES[:m])


def generate_weather(
    n: int,
    seed: int = 2012,
    n_locations: int = 500,
) -> Iterator[Dict[str, object]]:
    """Yield ``n`` synthetic daily-forecast rows in chronological order.

    Each location has a fixed country and a climate offset; measures mix
    a seasonal sinusoid, per-location bias, and heavy-tailed gusts.
    """
    rng = random.Random(seed)
    locations = []
    for i in range(n_locations):
        country = rng.choice(_COUNTRIES)
        locations.append(
            (
                f"Loc{i:04d}",
                country,
                rng.uniform(-3.0, 3.0),  # temperature bias
                rng.uniform(0.7, 1.5),  # wind exposure factor
            )
        )
    for produced in range(n):
        month_idx = (produced * len(_MONTHS)) // max(n, 1)
        month = _MONTHS[month_idx % len(_MONTHS)]
        season = math.cos(2 * math.pi * (month_idx % len(_MONTHS)) / len(_MONTHS))
        name, country, temp_bias, wind_factor = rng.choice(locations)
        base_temp = 11.0 - 7.0 * season + temp_bias
        base_wind = (9.0 + 5.0 * season) * wind_factor
        wind_day = max(0.0, rng.gauss(base_wind, 3.0))
        wind_night = max(0.0, rng.gauss(base_wind * 0.85, 3.0))
        yield {
            "location": name,
            "country": country,
            "month": month,
            "time_step": rng.choice(_TIME_STEPS),
            "wind_dir_day": rng.choice(_WIND_DIRS),
            "wind_dir_night": rng.choice(_WIND_DIRS),
            "visibility_range": rng.choice(_VISIBILITY),
            "wind_speed_day": round(wind_day, 1),
            "wind_speed_night": round(wind_night, 1),
            "temperature_day": round(rng.gauss(base_temp, 2.5), 1),
            "temperature_night": round(rng.gauss(base_temp - 4.0, 2.5), 1),
            "humidity_day": round(min(100.0, max(20.0, rng.gauss(72 + 8 * season, 9))), 1),
            "humidity_night": round(min(100.0, max(20.0, rng.gauss(80 + 6 * season, 8))), 1),
            "wind_gust": round(wind_day * (1.3 + rng.paretovariate(4.0) * 0.2), 1),
        }


def weather_rows(n: int, d: int = 5, m: int = 7, seed: int = 2012) -> List[Dict[str, object]]:
    """Materialised rows projected to the ``(d, m)`` prefix subsets."""
    keep = set(DIMENSIONS[:d]) | set(MEASURES[:m])
    return [
        {k: v for k, v in row.items() if k in keep}
        for row in generate_weather(n, seed)
    ]
