"""Feed fan-out throughput: materialized feeds vs subscriber count.

Not a paper figure — this repo's read-tier bench (PR 10).  The
:class:`repro.service.feeds.FeedStore` materializes ranked per-segment
standings off the fact stream, and the :class:`FeedGateway` pushes them
to WebSocket subscribers with per-connection coalescing, so delivery
cost scales with *subscriber count × segments*, never with engine
throughput or replayed history.

The bench runs a real ``StreamServer`` + ``FeedGateway`` on an
ephemeral port, connects 10 / 100 / 1000 concurrent ``FeedClient``
WebSockets, bursts one ingest stream through the engine, and measures
delivered frames per second until every subscriber has converged on the
store's final per-segment versions.  Two claims are asserted:

* **convergence under fan-out** — every one of the 1000 subscribers
  ends on the current materialized state (catch-up is by coalesced
  snapshot, so a slow consumer converges in O(segments) frames, not
  O(arrivals));
* **bounded delivery state** — the per-connection dirty set never
  exceeds ``max_pending_segments`` (structural bound; the drop/resync
  counters recorded here show the mechanism engaging, or not needing
  to).

The ingest-overhead guard (feed fold ≤ 5% of discovery) lives in
``bench_guard.py`` with the other regression tripwires; both write to
``BENCH_PR10.json`` (uploaded as a CI artifact).

Run with ``pytest benchmarks/bench_feeds.py -s``; ``REPRO_BENCH_SCALE``
enlarges the burst.
"""

import asyncio
import time

from repro.api import EngineSpec, FeedSpec, open_engine
from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.service import FeedClient, FeedGateway, StreamServer

from _results import update_results

D, M = 4, 4
#: Arrivals seeding the segments before subscribers connect, and the
#: burst pushed while they listen.
SEED, BURST = 60, 120
SUBSCRIBERS = (10, 100, 1000)
#: Per-frame ranking cut — keeps frame size constant as the store grows.
TOP_K = 10


async def _connect_all(port, count):
    clients = []
    # Batched so 1000 handshakes don't serialize on round-trips.
    for start in range(0, count, 50):
        batch = await asyncio.gather(
            *(
                FeedClient.connect("127.0.0.1", port)
                for _ in range(min(50, count - start))
            )
        )
        clients.extend(batch)
    return clients


async def _drain_initial(clients, n_segments):
    async def initial(client):
        for _ in range(n_segments):
            await client.recv(timeout=10.0)

    await asyncio.gather(*(initial(c) for c in clients))


async def _converge(client, finals):
    """Read frames until this client has seen every segment's final
    version; returns the number of frames it took."""
    seen = {}
    frames = 0
    while any(seen.get(k, -1) < v for k, v in finals.items()):
        frame = await client.recv(timeout=15.0)
        frames += 1
        seen[frame["segment"]] = frame["version"]
    return frames


async def _fanout(rows, count):
    engine = open_engine(
        EngineSpec(
            schema=synthetic_schema(D, M),
            score=True,
            feeds=FeedSpec(group_by=("d0",), top_k=TOP_K),
        )
    )
    server = StreamServer(engine, batch_max=64)
    await server.start()
    gateway = FeedGateway(server, max_pending_segments=4)
    listener = await gateway.start()
    port = listener.sockets[0].getsockname()[1]
    try:
        await server.ingest_many(rows[:SEED])
        await server.drain()
        n_segments = len(server.feeds.segment_keys())

        clients = await _connect_all(port, count)
        await _drain_initial(clients, n_segments)
        assert server.stats.gateway_subscribers == count

        sent_before = server.stats.gateway_frames_sent
        start = time.perf_counter()
        await server.ingest_many(rows[SEED:])
        await server.drain()
        finals = {
            seg["segment"]: seg["version"] for seg in server.feeds.segments()
        }
        frames = await asyncio.gather(*(_converge(c, finals) for c in clients))
        elapsed = time.perf_counter() - start

        # Convergence is by coalesced snapshot: a subscriber needs
        # O(segments) frames to reach the final state, not O(arrivals).
        assert max(frames) <= 4 * len(finals)

        stats = server.stats.snapshot()
        delivered = stats["gateway_frames_sent"] - sent_before
        await asyncio.gather(*(c.close() for c in clients))
        return {
            "subscribers": count,
            "segments": len(finals),
            "burst_arrivals": len(rows) - SEED,
            "frames_delivered": delivered,
            "seconds": round(elapsed, 4),
            "frames_per_sec": round(delivered / elapsed, 1),
            "max_frames_per_subscriber": max(frames),
            "coalesced": stats["gateway_frames_coalesced"],
            "dropped": stats["gateway_frames_dropped"],
        }
    finally:
        await gateway.stop()
        await server.stop()


def test_fanout_throughput_vs_subscribers(benchmark, bench_scale):
    """1000 concurrent WebSocket subscribers all converge on the
    materialized state; delivered frames stay O(subscribers×segments)."""
    rows = synthetic_rows(
        SEED + int(BURST * bench_scale), D, M, distribution="anticorrelated"
    )

    def run():
        return [
            asyncio.run(_fanout(rows, count)) for count in SUBSCRIBERS
        ]

    results = benchmark.pedantic(run, iterations=1, rounds=1)

    print()
    print("subscribers  frames  frames/s  max/conn  coalesced  dropped")
    for row in results:
        print(
            f"{row['subscribers']:>11}  {row['frames_delivered']:>6}  "
            f"{row['frames_per_sec']:>8}  {row['max_frames_per_subscriber']:>8}  "
            f"{row['coalesced']:>9}  {row['dropped']:>7}"
        )
        benchmark.extra_info[f"fps_{row['subscribers']}"] = row[
            "frames_per_sec"
        ]

    big = results[-1]
    assert big["subscribers"] == SUBSCRIBERS[-1]
    # Fan-out delivered every subscriber O(segments) frames — coalescing
    # kept total frames far below subscribers × burst size.
    assert big["frames_delivered"] <= (
        big["subscribers"] * 4 * big["segments"]
    )
    update_results(
        "fanout",
        {"runs": results, "meta": {"d": D, "m": M, "seed": SEED}},
        filename="BENCH_PR10.json",
    )


def test_capped_churn_overhead_recorded():
    """Ingest overhead when the cap binds hard — recorded as data.

    With ``max_entries`` far below the workload's tracked-pair working
    set, nearly every arrival both creates and evicts entries, so the
    fold pays cap-policy churn on top of the mechanism cost that
    ``bench_guard.py`` pins at 5%.  That churn is a sizing decision,
    not a regression, so this bench only tripwires a gross blowup (the
    pre-hysteresis eviction scan sat ~5x above today's number).
    """
    import gc

    from repro.api import EngineSpec, FeedSpec, open_engine
    from repro.service.feeds import FeedStore

    n, probe_n = 2000, 100
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(n + probe_n, D, M, distribution="anticorrelated")
    engine = open_engine(EngineSpec(schema=schema, score=True))
    store = FeedStore(
        schema, engine.config, FeedSpec(group_by=(schema.dimensions[0],))
    )
    for row in rows[:n]:
        factset = engine.facts_for(row)
        store.apply_event(factset.record, factset)
    gc.collect()
    gc.disable()
    try:
        discover = fold = 0.0
        for row in rows[n:]:
            t0 = time.perf_counter()
            factset = engine.facts_for(row)
            t1 = time.perf_counter()
            store.apply_event(factset.record, factset)
            discover += t1 - t0
            fold += time.perf_counter() - t1
    finally:
        gc.enable()
    overhead = fold / discover
    stats = store.stats()
    print(
        f"\ncap-bound churn @ n={n}, cap={store.spec.max_entries}: "
        f"discover={1e3 * discover / probe_n:.3f}ms "
        f"fold={1e3 * fold / probe_n:.3f}ms "
        f"overhead={100 * overhead:.1f}% evicted={stats['evicted']}"
    )
    update_results(
        "capped_churn",
        {
            "cap": store.spec.max_entries,
            "discover_ms": round(1e3 * discover / probe_n, 4),
            "fold_ms": round(1e3 * fold / probe_n, 4),
            "overhead_pct": round(100 * overhead, 2),
            "evicted": stats["evicted"],
        },
        filename="BENCH_PR10.json",
    )
    assert overhead <= 0.30, (
        f"cap-bound fold costs {100 * overhead:.1f}% of discovery — "
        f"the eviction scan has likely lost its hysteresis or its "
        f"float-only victim selection"
    )
