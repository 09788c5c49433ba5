"""Unit tests of the end-to-end benchmark's estimators and tables.

No subprocesses, no sockets: the harness itself is exercised by running
``benchmarks/e2e/run.py``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.latency import LatencyProfile

from estimators import (
    HIGHER,
    LOWER,
    attribute_frames,
    canonical_facts,
    covered,
    digest,
    fastest_replica,
    lower_quartile_round,
    percentile,
    rel_diff_pct,
    self_times,
    spread_pct,
)
from report import END_TO_END, PER_LAYER
from workloads import WORKLOADS, build_stream

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_is_the_repos_latency_profile():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    profile = LatencyProfile("x", samples)
    for q in (0, 50, 90, 99, 100):
        assert percentile(samples, q) == profile.percentile(q)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_lower_quartile_round_is_second_best_in_both_directions():
    times = [7.4, 7.0, 9.9, 7.1, 12.0]
    assert lower_quartile_round(times, LOWER) == 7.1
    rates = [140.0, 101.0, 139.0, 88.0, 120.0]
    assert lower_quartile_round(rates, HIGHER) == 139.0
    # One lucky quiet round decides best-of-5, never the second best.
    assert lower_quartile_round([5.0] + times[1:], LOWER) == 7.0
    # Too few rounds for a quartile: the best one.
    assert lower_quartile_round([3.0, 2.0], LOWER) == 2.0
    assert lower_quartile_round([3.0, 2.0], HIGHER) == 3.0


def test_fastest_replica_is_taken_per_op_not_per_round():
    # Three rounds replay the same four ops; a slow spell hits a
    # different op in each round, so no round is clean but every op has
    # a clean replica.
    rounds = [
        [7.0, 0.8, 19.0, 7.2],
        [7.1, 1.9, 12.0, 7.0],
        [11.5, 0.7, 12.4, 7.3],
    ]
    assert fastest_replica(rounds) == [7.0, 0.7, 12.0, 7.0]


def test_spread_and_regression_direction():
    assert spread_pct([10.0, 12.5, 11.0]) == pytest.approx(25.0)
    assert rel_diff_pct(10.0, 11.0, LOWER) == pytest.approx(10.0)
    assert rel_diff_pct(100.0, 90.0, HIGHER) == pytest.approx(10.0)
    assert rel_diff_pct(100.0, 110.0, HIGHER) == pytest.approx(-10.0)


def test_span_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "server.ingest_wait", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "engine.discover", "start": 2.0, "end": 5.0, "parent": 0},
        # Overlaps its sibling: the shared second is subtracted once.
        {"id": 2, "name": "feeds.fold", "start": 4.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "gateway.rank", "start": 4.5, "end": 5.0, "parent": 2},
        {"id": 4, "name": "server.render", "start": 11.0, "end": 12.0, "parent": None},
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(1.5)
    assert own[4] == pytest.approx(1.0)
    assert covered([(1.0, 3.0), (2.0, 4.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_frames_are_attributed_to_the_arrival_that_produced_them():
    produced_by = {("d0=*", 11): 0, ("d0=v1", 4): 0, ("d0=*", 12): 1, ("d0=*", 13): 2, ("d0=v2", 9): 2}
    sent_at = {0: 100.0, 1: 200.0, 2: 300.0}
    frames = [
        (90.0, "d0=*", 10),    # initial snapshot: produced by no measured arrival
        (100.6, "d0=*", 11),
        (100.9, "d0=v1", 4),   # arrival 0 is delivered when its last frame lands
        # Version 12 was never rendered: the pump was late and sent 13,
        # which covers arrivals 1 and 2 and belongs to the later one.
        (300.7, "d0=*", 13),
        (300.4, "d0=v2", 9),
    ]
    latency = attribute_frames(frames, produced_by, sent_at)
    assert latency == {0: pytest.approx(0.9), 2: pytest.approx(0.7)}


def test_fact_canonicalisation_is_order_free_and_digest_stable():
    def fact(tid, constraint, measures, prominence):
        return {"tuple_id": tid, "tuple": {"ignored": 1}, "constraint": constraint,
                "measures": measures, "context_size": 9, "skyline_size": 3,
                "prominence": prominence}

    single = [fact(7, {"d0": "v1", "d2": "v3"}, ["m0"], 3.0), fact(7, {}, ["m0", "m1"], 3.0)]
    # The sharded router inserts tied facts in another order, and JSON
    # objects carry no key order.
    sharded = [fact(7, {}, ["m0", "m1"], 3.0), fact(7, {"d2": "v3", "d0": "v1"}, ["m0"], 3.0)]
    assert canonical_facts(single) == canonical_facts(sharded)
    assert digest([canonical_facts(single)]) == digest([canonical_facts(sharded)])
    other = [fact(7, {}, ["m0", "m1"], 3.5), single[0]]
    assert digest([canonical_facts(single)]) != digest([canonical_facts(other)])


def test_streams_are_a_function_of_the_seed():
    live, sharded = WORKLOADS["live"], WORKLOADS["sharded"]
    assert build_stream(live, 3, 10.0) == build_stream(live, 3, 10.0)
    assert build_stream(live, 3, 10.0) != build_stream(live, 4, 10.0)
    # One reference pass serves both: same rows, same ops.
    assert build_stream(live, 3, 10.0) == build_stream(sharded, 3, 10.0)
    windowed = build_stream(WORKLOADS["window_rw"], 3, 10.0)
    evicted = [op.evicts for op in windowed.ops if op.kind == "ingest"]
    deleted = [op.tid for op in windowed.ops if op.kind == "delete"]
    assert evicted[0] == 0 and None in evicted[1:]  # a delete frees a slot
    assert not set(deleted) & set(evicted)
    asked = [op for op in windowed.ops if op.kind == "query"]
    assert sum(op.repeat for op in asked) * 2 == len(asked)  # back-to-back pairs


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    assert max(m["bound"] for m in doc["end_to_end"]) == doc["end_to_end"][0]["bound"]
    assert doc["end_to_end"][0]["name"] == "setup_s"
