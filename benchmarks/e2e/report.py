"""Metric tables and how each metric is derived from a run's rounds.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions in ``BENCHMARK.json`` (a unit test keeps the two in
step).  Client-side values come from untraced rounds only; per-layer
timings come from the traced round, per-layer counts from the ``stats``
op of an untraced round.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence

from estimators import (
    HIGHER,
    LOWER,
    covered,
    fastest_replica,
    lower_quartile_round,
    p50_or_zero,
    percentile,
    self_times,
    spread_pct,
)
from harness import Round
from reference import Reference
from workloads import Stream

#: What the client measures in every round of every workload:
#: (name, unit, better).  The ones a regression bound could be held on
#: are end-to-end metrics; the rest are reported as ``client.<name>``.
ROUND_METRICS = [
    ("setup_s", "s", LOWER),
    ("ack_ms_p50", "ms", LOWER),
    ("ack_ms_p90", "ms", LOWER),
    ("query_ms_p50", "ms", LOWER),
    ("rows_per_s", "rows/s", HIGHER),
    ("cpu_ms_per_row", "ms", LOWER),
    ("peak_rss_mb", "MB", LOWER),
]
#: Regression bound, as a share of the parent's median, of each
#: end-to-end metric.  A round metric without one did not repeat to
#: 10 % over ten seeds on the builder's host (README, "Bounds") and was
#: demoted, not given a wider bound.  ``setup_s`` cannot be demoted (the
#: benchmark contract names it) and carries the contract's largest bound.
BOUNDS = {
    "setup_s": 0.25,
    "peak_rss_mb": 0.05,
}
#: (name, unit, better, bound)
END_TO_END = [(*m, BOUNDS[m[0]]) for m in ROUND_METRICS if m[0] in BOUNDS]
DEMOTED = [(f"client.{n}", u, b) for n, u, b in ROUND_METRICS if n not in BOUNDS]

#: (name, unit, better)
PER_LAYER = [
    ("server.handler_ms_p50", "ms", LOWER),
    ("server.queue_wait_ms_p50", "ms", LOWER),
    ("server.batches", "count", LOWER),
    ("server.mean_batch_rows", "rows", HIGHER),
    ("server.queue_depth_max_with_preload", "count", LOWER),
    ("server.spawn_to_listen_s", "s", LOWER),
    ("server.preload_s", "s", LOWER),
    ("server.preload_rows_per_s", "rows/s", HIGHER),
    ("server.shutdown_s", "s", LOWER),
    ("schema.gate_ms_p50", "ms", LOWER),
    ("engine.discover_ms_p50", "ms", LOWER),
    ("engine.discover_ms_p90", "ms", LOWER),
    ("engine.delete_ms_p50", "ms", LOWER),
    ("engine.comparisons_per_row", "count", LOWER),
    ("engine.traversed_constraints_per_row", "count", LOWER),
    ("engine.stored_tuples", "count", LOWER),
    ("engine.facts_per_row", "count", HIGHER),
    ("engine.reported_facts_per_row", "count", HIGHER),
    ("prominence.select_ms_p50", "ms", LOWER),
    ("journal.append_ms_p50", "ms", LOWER),
    ("journal.commit_ms_p50", "ms", LOWER),
    ("journal.bytes_per_row", "bytes", LOWER),
    ("feeds.fold_ms_p50", "ms", LOWER),
    ("feeds.repair_ms_p50", "ms", LOWER),
    ("feeds.changed_segments_per_row", "count", LOWER),
    ("feeds.entries", "count", LOWER),
    ("feeds.evicted", "count", LOWER),
    ("gateway.frame_ms_p50", "ms", LOWER),
    ("gateway.frame_ms_p90", "ms", LOWER),
    ("gateway.rank_ms_p50", "ms", LOWER),
    ("gateway.push_ms_p50", "ms", LOWER),
    ("gateway.frames_per_row", "count", LOWER),
    ("gateway.frames_coalesced", "count", LOWER),
    ("gateway.frame_bytes_p50", "bytes", LOWER),
    ("sharding.router_ms_p50", "ms", LOWER),
    ("sharding.shard_busy_ms_per_row", "ms", LOWER),
    ("sharding.busy_skew", "ratio", LOWER),
    ("sharding.chunks_retried", "count", LOWER),
    ("sharding.worker_restarts", "count", LOWER),
    ("query.parse_ms_p50", "ms", LOWER),
    ("query.skyline_ms_p50", "ms", LOWER),
    ("query.hit_ms_p50", "ms", LOWER),
    ("query.cache_hits", "count", HIGHER),
    ("query.cache_misses", "count", LOWER),
    ("snapshot.save_ms", "ms", LOWER),
    ("snapshot.bytes", "bytes", LOWER),
    *DEMOTED,
    ("client.ack_ms_p99", "ms", LOWER),
    ("client.ack_ms_max", "ms", LOWER),
    ("client.ack_bytes_p50", "bytes", LOWER),
    ("client.query_hit_ms_p50", "ms", LOWER),
    ("client.delete_ms_p50", "ms", LOWER),
    ("client.samples", "count", HIGHER),
    ("trace.overhead_pct", "%", LOWER),
    ("trace.spans", "count", LOWER),
    ("trace.unattributed_pct", "%", LOWER),
    ("noise.spin_spread_pct", "%", LOWER),
    ("noise.foreign_servers", "count", LOWER),
    *((f"noise.{name}_spread_pct", "%", LOWER) for name, *_ in ROUND_METRICS),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def by_kind(stream: Stream, op_ms: Sequence[Optional[float]]) -> Dict[str, List[float]]:
    """Per-op round trips split into acks, cache-miss queries, cache
    hits (the repeat of a back-to-back pair) and deletes; failed ops
    (None) miss every latency metric."""
    out: Dict[str, List[float]] = {"ingest": [], "query": [], "hit": [], "delete": []}
    for op, ms in zip(stream.ops, op_ms):
        if ms is not None:
            out["hit" if op.repeat else op.kind].append(ms)
    return out


def _timings(stream: Stream, op_ms: Sequence[float]) -> Dict[str, float]:
    kinds = by_kind(stream, op_ms)
    return {
        # Producer write -> ack line parsed, ingest ops only.
        "ack_ms_p50": percentile(kinds["ingest"], 50),
        "ack_ms_p90": percentile(kinds["ingest"], 90),
        # Cache-miss queries only: a 50/50 hit/miss mix would put the
        # median on the mode boundary.
        "query_ms_p50": percentile(kinds["query"], 50),
        # Closed loop, one client: arrivals over the round trips of
        # every op (queries and deletes included).  Mean based, so it
        # carries the tail the median hides.
        "rows_per_s": 1e3 * len(kinds["ingest"]) / sum(op_ms),
    }


def round_values(stream: Stream, rnd: Round) -> Dict[str, float]:
    """One round's own value of every round metric."""
    return {
        **_timings(stream, rnd.op_ms),
        # Popen -> CSV preload discovered, rendered and printed.
        "setup_s": rnd.setup_s,
        "cpu_ms_per_row": 1e3 * rnd.cpu_s / stream.arrivals,
        "peak_rss_mb": rnd.peak_rss_mb,
    }


def run_values(
    stream: Stream, rounds: Sequence[Round], per_round: Sequence[Dict[str, float]]
) -> Dict[str, float]:
    """The run's value of every round metric.

    Per-op timings: percentiles over each op's fastest replica.  What
    exists once per round: the median round for ``setup_s`` and
    ``peak_rss_mb``, the lower-quartile round for ``cpu_ms_per_row``.
    """
    def rounds_of(name: str) -> List[float]:
        return [values[name] for values in per_round]

    return {
        **_timings(stream, fastest_replica([rnd.op_ms for rnd in rounds])),
        "setup_s": statistics.median(rounds_of("setup_s")),
        "cpu_ms_per_row": lower_quartile_round(rounds_of("cpu_ms_per_row"), LOWER),
        "peak_rss_mb": statistics.median(rounds_of("peak_rss_mb")),
    }


def _quartile(rounds: Sequence[Round], value: Callable[[Round], float]) -> float:
    """Lower-quartile round of a lower-is-better per-round value."""
    return lower_quartile_round([value(rnd) for rnd in rounds], LOWER)


def per_layer(
    stream: Stream,
    ref: Reference,
    untraced: Sequence[Round],
    traced: Optional[Round],
    per_round: Sequence[Dict[str, float]],
    run: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never enters read 0."""
    out = {name: 0.0 for name, *_ in PER_LAYER}
    arrivals = stream.arrivals
    first = untraced[0]
    before, after = first.stats_before, first.stats_after

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    # Counts: the public stats op, measured phase only where it can be
    # told apart.
    out["server.batches"] = delta("batches")
    out["server.mean_batch_rows"] = delta("processed_rows") / max(1, delta("batches"))
    # A lifetime maximum: the CSV preload queues whole micro-batches, so
    # it reads the preload's depth, not the closed loop's (at most 1).
    out["server.queue_depth_max_with_preload"] = after["queue_depth_max"]
    out["journal.bytes_per_row"] = first.journal_bytes / arrivals
    out["snapshot.bytes"] = first.snapshot_bytes
    out["engine.facts_per_row"] = ref.facts_per_row
    out["engine.reported_facts_per_row"] = first.reported_facts / arrivals
    feeds = after.get("feeds") or {}
    out["feeds.entries"] = feeds.get("entries", 0)
    out["feeds.evicted"] = feeds.get("evicted", 0)
    out["gateway.frames_per_row"] = delta("gateway_frames_sent") / arrivals
    out["gateway.frames_coalesced"] = delta("gateway_frames_coalesced")
    out["query.cache_hits"] = delta("query_cache_hits")
    out["query.cache_misses"] = delta("query_cache_misses")
    out["sharding.chunks_retried"] = after["chunks_retried"]
    out["sharding.worker_restarts"] = after["worker_restarts"]
    busy_after = after.get("shard_busy_seconds") or []
    if busy_after:
        busy_before = before.get("shard_busy_seconds") or [0.0] * len(busy_after)
        busy = [b - a for a, b in zip(busy_before, busy_after)]
        out["sharding.shard_busy_ms_per_row"] = 1e3 * sum(busy) / arrivals
        mean = sum(busy) / len(busy)
        out["sharding.busy_skew"] = max(busy) / mean if mean else 0.0

    # Client-side timings: per op its fastest replica, per round the
    # lower-quartile round.
    floor = by_kind(stream, fastest_replica([rnd.op_ms for rnd in untraced]))
    out["client.ack_ms_p99"] = percentile(floor["ingest"], 99)
    out["client.ack_ms_max"] = max(floor["ingest"])
    out["client.query_hit_ms_p50"] = p50_or_zero(floor["hit"])
    out["client.delete_ms_p50"] = p50_or_zero(floor["delete"])
    out["client.ack_bytes_p50"] = percentile(first.ack_bytes, 50)
    out["client.samples"] = sum(len(rnd.op_ms) for rnd in untraced)
    out["server.spawn_to_listen_s"] = _quartile(untraced, lambda r: r.spawn_to_listen_s)
    out["server.preload_s"] = _quartile(untraced, lambda r: r.preload_s)
    out["server.preload_rows_per_s"] = len(stream.history) / out["server.preload_s"]
    out["server.shutdown_s"] = _quartile(untraced, lambda r: r.shutdown_s)
    with_frames = [rnd for rnd in untraced if rnd.frame_ms]
    if with_frames:
        out["gateway.frame_ms_p50"] = _quartile(with_frames, lambda r: percentile(r.frame_ms, 50))
        out["gateway.frame_ms_p90"] = _quartile(with_frames, lambda r: percentile(r.frame_ms, 90))

    for name, *_ in DEMOTED:
        out[name] = run[name.split(".", 1)[1]]
    # Host noise: what a reader checks before trusting a diff.
    for name, *_ in ROUND_METRICS:
        out[f"noise.{name}_spread_pct"] = spread_pct([v[name] for v in per_round])
    everyone = list(untraced) + ([traced] if traced else [])
    out["noise.spin_spread_pct"] = spread_pct([r.spin_s for r in everyone])
    out["noise.foreign_servers"] = max(r.foreign for r in everyone)

    if traced is not None and traced.spans:
        out.update(trace_layers(stream, ref, traced))
        # Round against round: the run's own value is a floor over
        # replicas, which one traced round cannot be compared with.
        out["trace.overhead_pct"] = 100.0 * (
            round_values(stream, traced)["ack_ms_p50"]
            / statistics.median(v["ack_ms_p50"] for v in per_round)
            - 1.0
        )
    return out


def trace_layers(stream: Stream, ref: Reference, traced: Round) -> Dict[str, float]:
    """Per-layer timings of the traced round's measured phase."""
    meta = traced.spans[0]
    client = {span["op"]: span for span in traced.client_spans}
    begin = min(span["start"] for span in client.values())
    end = max(span["end"] for span in client.values())
    spans = [s for s in traced.spans[1:] if begin <= s["start"] <= end]
    self_s = self_times(spans)
    ms: Dict[str, List[float]] = {}
    for span in spans:
        ms.setdefault(span["name"], []).append(1e3 * (span["end"] - span["start"]))

    out = {
        "schema.gate_ms_p50": p50_or_zero(ms.get("schema.gate")),
        "engine.discover_ms_p50": p50_or_zero(ms.get("engine.discover")),
        "engine.discover_ms_p90": percentile(ms["engine.discover"], 90),
        "engine.delete_ms_p50": p50_or_zero(ms.get("engine.delete")),
        "prominence.select_ms_p50": p50_or_zero(ms.get("prominence.select")),
        "journal.append_ms_p50": p50_or_zero(ms.get("journal.append")),
        "journal.commit_ms_p50": p50_or_zero(ms.get("journal.commit")),
        "feeds.fold_ms_p50": p50_or_zero(ms.get("feeds.fold")),
        "feeds.repair_ms_p50": p50_or_zero(ms.get("feeds.repair")),
        "gateway.rank_ms_p50": p50_or_zero(ms.get("gateway.rank")),
        "query.parse_ms_p50": p50_or_zero(ms.get("query.parse")),
        "trace.spans": len(traced.spans) - 1,
    }
    saves = [s for s in traced.spans[1:] if s["name"] == "snapshot.save"]
    if saves:
        out["snapshot.save_ms"] = 1e3 * (saves[-1]["end"] - saves[-1]["start"])

    discover = [s for s in spans if s["name"] == "engine.discover"]
    before, after = meta.get("counters_before"), meta.get("counters_after")
    if before and after:
        for key in ("comparisons", "traversed_constraints"):
            out[f"engine.{key}_per_row"] = (after[key] - before[key]) / stream.arrivals
        out["engine.stored_tuples"] = after["stored_tuples"]
    if discover and "shard_busy" in discover[0]:
        # Pipe, pickle, merge and scoring: the router's span minus the
        # shard the ack had to wait for.
        out["sharding.router_ms_p50"] = percentile(
            [1e3 * (s["end"] - s["start"] - max(s["shard_busy"])) for s in discover], 50
        )
    folds = [s for s in spans if s["name"] == "feeds.fold"]
    if folds:
        out["feeds.changed_segments_per_row"] = sum(s["changed"] for s in folds) / len(folds)
    renders = [s["bytes"] for s in spans if s["name"] == "gateway.render"]
    if renders:
        out["gateway.frame_bytes_p50"] = percentile(renders, 50)

    # Per request: the client's round trip against the server's spans.
    # One request is in flight at a time, so a server span belongs to
    # the request whose round trip it started in.
    ordinals = sorted(client)
    starts = [client[k]["start"] for k in ordinals]
    by_op: Dict[int, List[dict]] = {}
    for span in spans:
        owner = ordinals[max(0, bisect_right(starts, span["start"]) - 1)]
        if span["start"] <= client[owner]["end"]:
            by_op.setdefault(owner, []).append(span)
    handler, queue_wait, unattributed, hit, miss = [], [], [], [], []
    for ordinal, mine in client.items():
        inside = by_op.get(ordinal, ())
        request = next((s for s in inside if s.get("op") == ordinal and s["parent"] is None), None)
        if request is None:
            continue
        rtt = mine["end"] - mine["start"]
        if request["name"] == "server.ingest_wait":
            handler.append(1e3 * (rtt - (request["end"] - request["start"])))
            queue_wait.append(1e3 * self_s[request["id"]])
            named = covered(
                [(s["start"], s["end"]) for s in inside], mine["start"], mine["end"]
            )
            unattributed.append(100.0 * (rtt - named) / rtt)
        elif request["name"] == "server.query":
            kernel = [s for s in inside if s["name"] == "query.skyline"]
            (hit if mine["repeat"] else miss).extend(
                1e3 * (s["end"] - s["start"]) for s in kernel
            )
    out["server.handler_ms_p50"] = p50_or_zero(handler)
    out["server.queue_wait_ms_p50"] = p50_or_zero(queue_wait)
    out["trace.unattributed_pct"] = p50_or_zero(unattributed)
    out["query.skyline_ms_p50"] = p50_or_zero(miss)
    out["query.hit_ms_p50"] = p50_or_zero(hit)

    # End of the arrival's fold span -> its frame received, per frame.
    fold_end = {s["op"]: s["end"] for s in folds}
    ordinal_of = {op.index: k for k, op in enumerate(stream.ops) if op.kind == "ingest"}
    produced_by = ref.produced_by()
    push = [
        1e3 * (at - fold_end[ordinal_of[produced_by[(segment, version)]]])
        for at, segment, version in traced.frame_log
    ]
    out["gateway.push_ms_p50"] = p50_or_zero(push)
    return out
