"""Pure estimators of the end-to-end benchmark (no I/O, no processes).

Everything the harness derives from raw samples lives here so that it
can be unit-tested without starting a server: percentiles, the
lower-quartile-of-rounds aggregation, span self time, frame→arrival
attribution, the per-op floor over replicas and the canonical forms the digests are taken over.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.latency import LatencyProfile

LOWER, HIGHER = "lower", "higher"


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile — the repo's one percentile type
    (:class:`repro.experiments.latency.LatencyProfile`), not a second
    implementation."""
    return LatencyProfile("e2e", list(samples)).percentile(q)


def lower_quartile_round(values: Sequence[float], better: str) -> float:
    """The run's value of a metric that exists once per round (not per
    op), from its per-round values: the second-best round (second-lowest
    when lower is better, second-highest when higher is).

    Host slowdowns here are one-sided and bursty, so the best round is
    decided by one lucky quiet spell and the median by how many rounds a
    busy neighbour hit; the second-best sits at the lower quartile of
    five rounds (README, "Sizing and noise", for how the candidates
    compared).  With fewer than three rounds there is no quartile to
    speak of and the best round is returned.
    """
    if not values:
        raise ValueError("no rounds")
    ordered = sorted(values, reverse=(better == HIGHER))
    return ordered[1] if len(ordered) >= 3 else ordered[0]


def fastest_replica(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per op, its fastest round trip over the rounds.

    Every round replays the same ops against a fresh server, so op *i*
    has one sample per round, all of the same work.  Host slowdowns only
    ever add time, and they come in spells shorter than a run: the
    fastest of the replicas is the one the host disturbed least.  Unlike
    the best *round*, no single lucky spell decides a percentile taken
    over a hundred ops' floors.
    """
    return [min(samples) for samples in zip(*rounds)]


def spread_pct(values: Sequence[float]) -> float:
    """Worst ÷ best round − 1, in percent (0 for a single round)."""
    lo, hi = min(values), max(values)
    return 100.0 * (hi / lo - 1.0) if lo > 0 else 0.0


def rel_diff_pct(first: float, second: float, better: str) -> float:
    """How much *worse* ``second`` is than ``first``, in percent of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return 100.0 * (change if better == LOWER else -change)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[int, float]:
    """``span id -> self seconds``: the span's duration minus the part
    of its interval that its direct children cover (children may
    overlap each other; the union is subtracted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def attribute_frames(
    frames: Sequence[Tuple[float, str, int]],
    produced_by: Mapping[Tuple[str, int], int],
    sent_at: Mapping[int, float],
) -> Dict[int, float]:
    """``arrival -> seconds from its producer write to its last frame``.

    ``frames`` are ``(received_at, segment, version)``; ``produced_by``
    maps the ``(segment, version)`` an arrival's fold produced (in the
    reference) to that arrival.  A frame that coalesces several versions
    carries only the newest one, so it belongs to the latest arrival it
    covers; the arrivals it swallowed get no sample from it.  Frames of
    versions no measured arrival produced (the initial snapshots) are
    ignored.
    """
    last: Dict[int, float] = {}
    for received_at, segment, version in frames:
        arrival = produced_by.get((segment, version))
        if arrival is None or arrival not in sent_at:
            continue
        last[arrival] = max(last.get(arrival, received_at), received_at)
    return {arrival: at - sent_at[arrival] for arrival, at in last.items()}


# ----------------------------------------------------------------------
# Canonical forms and digests
# ----------------------------------------------------------------------
def canonical_facts(facts: Iterable[Mapping[str, object]]) -> List[list]:
    """Order-free form of one ack's fact list.

    Takes the JSON rendering both sides share
    (``SituationalFact.to_json_dict``) and keeps what the contract is
    about — ``(tid, constraint, measures, prominence)`` — sorted, because
    ties inside the top-k cut keep insertion order and the sharded
    router inserts in a different order than the single engine.
    """
    return sorted(
        [
            fact["tuple_id"],
            sorted(fact["constraint"].items()),
            list(fact["measures"]),
            fact["prominence"],
        ]
        for fact in facts
    )


def canonical_entries(entries: Iterable[Mapping[str, object]]) -> List[list]:
    """A frame's ranked entries, order kept (rank is part of the
    contract), reduced to the fields the feed tier owns."""
    return [
        [
            sorted(entry["constraint"].items()),
            list(entry["measures"]),
            entry["prominence"],
            entry["context_size"],
            entry["skyline_size"],
            entry["tid"],
        ]
        for entry in entries
    ]


def digest(value: object) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def p50_or_zero(samples: Optional[Sequence[float]]) -> float:
    """Per-layer timings of layers a workload never enters read 0."""
    return percentile(samples, 50) if samples else 0.0
