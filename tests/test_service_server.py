"""StreamServer behaviour: micro-batching, backpressure, drain,
subscriptions, checkpoint round-trips, and the NDJSON TCP front-end."""

import asyncio
import inspect
import json
import os
import threading
import weakref
from dataclasses import replace

import pytest

from repro import DiscoveryConfig, FactDiscoverer
from repro.api import (
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    ShardingSpec,
    open_engine,
)
from repro.core.schema import SchemaError
from repro.extensions.snapshot import load_engine
from repro.service import (
    FeedClient,
    FeedGateway,
    ShardedDiscoverer,
    StreamServer,
    faults,
    fetch_json,
)
from tests.strategies import SERVICE_SCHEMA as SCHEMA, make_rows

def fact_key(fact):
    return (fact.constraint.values, fact.subspace, fact.prominence)


class TestMicroBatching:
    def test_output_equals_direct_engine(self):
        rows = make_rows(30)
        direct = FactDiscoverer(SCHEMA, algorithm="svec")
        expected = [[fact_key(f) for f in fs] for fs in direct.observe_many(rows)]

        async def run():
            server = StreamServer(
                FactDiscoverer(SCHEMA, algorithm="svec"),
                batch_max=8,
            )
            await server.start()
            sub = server.subscribe(only_facts=False)
            await server.ingest_many(rows)
            await server.stop()  # drains, then closes the subscription
            events = [event async for event in sub]
            return events, server

        events, server = asyncio.run(run())
        assert len(events) == len(rows)
        assert [e.tid for e in events] == list(range(len(rows)))
        got = [[fact_key(f) for f in e.facts] for e in events]
        assert got == expected
        assert server.stats.processed_rows == len(rows)
        assert server.stats.batches <= len(rows)
        assert server.stats.facts_emitted == sum(len(g) for g in got)

    def test_batches_coalesce_under_load(self):
        rows = make_rows(40)

        async def run():
            server = StreamServer(
                FactDiscoverer(SCHEMA, algorithm="svec"),
                queue_limit=64,
                batch_max=16,
            )
            await server.start()
            # Enqueue everything before the consumer can drain it —
            # batches must coalesce well beyond one row each.
            for row in rows:
                await server.ingest(row)
            await server.stop()
            return server

        server = asyncio.run(run())
        assert server.stats.processed_rows == len(rows)
        assert server.stats.batches < len(rows)
        assert server.stats.batch_rows_max > 1

    def test_concurrent_callers_on_idle_server_share_one_batch(self):
        """No timer: the gathered puts all run before the consumer is
        rescheduled, so it finds the whole burst queued."""
        rows = make_rows(12)

        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            events = await asyncio.gather(
                *(server.ingest_wait(row) for row in rows)
            )
            await server.stop()
            return events, server

        events, server = asyncio.run(run())
        assert [e.tid for e in events] == list(range(len(rows)))
        assert server.stats.batches == 1
        assert server.stats.batch_rows_max == len(rows)

    def test_closed_loop_caller_gets_one_batch_per_row(self):
        """One arrival in flight: each is answered at once, alone."""
        rows = make_rows(9)

        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            for row in rows:
                await server.ingest_wait(row)
            await server.stop()
            return server

        server = asyncio.run(run())
        assert server.stats.batches == len(rows)
        assert server.stats.batch_rows_max == 1

    def test_constructor_options_are_exactly_these(self):
        """Batching has one option (the cap) and durability none — it
        rides in ``engine.spec.checkpoint``; anything else is an
        ordinary unknown-kwarg ``TypeError``."""
        parameters = inspect.signature(StreamServer.__init__).parameters
        assert [
            name
            for name, p in parameters.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ] == [
            "queue_limit", "batch_max", "dead_letter_path", "conn_timeout",
        ]
        with pytest.raises(TypeError):
            StreamServer(
                FactDiscoverer(SCHEMA, algorithm="svec"), journal_dir="wal"
            )

    def test_ingest_wait_returns_event(self):
        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            event = await server.ingest_wait(make_rows(1)[0])
            await server.stop()
            return event

        event = asyncio.run(run())
        assert event.tid == 0
        assert event.facts  # the first arrival is always reportable

    def test_slow_subscriber_buffer_is_bounded(self):
        rows = make_rows(20)

        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            sub = server.subscribe(only_facts=False, max_pending=5)
            await server.ingest_many(rows)
            await server.drain()
            sub.close()
            await server.stop()
            events = [event async for event in sub]
            return sub, events, await server.read_stats()

        sub, events, snap = asyncio.run(run())
        # Oldest events were dropped; the newest max_pending survive.
        assert len(events) == 5
        assert sub.dropped == len(rows) - 5
        assert [e.tid for e in events] == list(range(15, 20))
        # The server's tally outlives the closed subscription.
        assert snap["subscriber_events_dropped"] == len(rows) - 5

    def test_undrained_subscription_holds_only_what_it_reports(self):
        """An event waiting in a subscription buffer keeps its record
        and its reportable facts, not the arrival's whole ``S_t``: 2 000
        d5 m5 arrivals (about 600 facts each) are published to a
        subscription nobody reads, and the ``tracemalloc`` bytes its
        last 200 events release when finally read stay under 2 KB per
        event.  Carrying the fact set, each held 18.5 KB on CPython
        3.11 (0.36 KB without), so the default 65 536-event buffer of
        one stalled subscriber could pin ≈ 1.2 GB."""
        import gc
        import tracemalloc

        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        rows = synthetic_rows(2000, 5, 5, seed=3)
        traced_rows = 200

        async def run():
            server = StreamServer(
                FactDiscoverer(
                    synthetic_schema(5, 5), "svec", DiscoveryConfig(top_k=1)
                )
            )
            await server.start()
            sub = server.subscribe(only_facts=False)
            await server.ingest_many(rows[:-traced_rows])
            await server.drain()
            tracemalloc.start()
            try:
                await server.ingest_many(rows[-traced_rows:])
                await server.drain()
                gc.collect()
                buffered = tracemalloc.get_traced_memory()[0]
                events = [await sub.__anext__() for _ in rows]
                tids = [event.tid for event in events]
                del events
                gc.collect()
                released = buffered - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            await server.stop()
            return tids, released / traced_rows

        tids, per_event = asyncio.run(run())
        assert tids == list(range(len(rows)))
        assert per_event < 2048, per_event

    def test_invalid_row_rejected_at_ingest(self):
        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            with pytest.raises(SchemaError):
                await server.ingest({"bogus": 1})
            await server.stop()
            return server

        server = asyncio.run(run())
        assert server.stats.enqueued == 0


class TestAnswerPerArrival:
    """A micro-batch reaches the engine one slice at a time — one row
    in-process, one ``chunk_size`` chunk on a sharded router — and each
    ``S_t`` is selected, folded into the feeds and dropped before the
    next slice is discovered.  A spy around ``facts_for_many`` counts
    the calls and holds weak references to every column of every fact
    set it handed out (``FactSet`` has ``__slots__`` without
    ``__weakref__``); at each call, none may still be alive."""

    ROWS = 64

    def spied_batch(self, spec, layers=0):
        """Serve one batch on ``spec`` with feeds, spying on the engine
        ``layers`` middleware layers below the outermost."""
        engine = open_engine(replace(spec, feeds=FeedSpec()))
        spied = engine
        for _ in range(layers):
            spied = spied.inner
        calls = []
        handed_out = []
        inner = spied.facts_for_many

        def facts_for_many(rows):
            alive = sum(ref() is not None for ref in handed_out)
            calls.append((len(rows), alive))
            fact_sets = inner(rows)
            for factset in fact_sets:
                _, positions, subspaces = factset.cells()
                columns = (positions, subspaces, *factset.scores())
                # Empty columns may be a shared constant; skip them.
                handed_out.extend(weakref.ref(c) for c in columns if c.size)
            return fact_sets

        spied.facts_for_many = facts_for_many
        rows = make_rows(self.ROWS)

        async def run():
            server = StreamServer(engine)
            await server.start()
            # Every put runs before the consumer is scheduled: one batch.
            events = await asyncio.gather(
                *(server.ingest_wait(row) for row in rows)
            )
            await server.stop()
            return server, events

        server, events = asyncio.run(run())
        engine.close()
        assert server.stats.batches == 1
        assert [event.tid for event in events] == list(range(self.ROWS))
        assert server.feeds.applied_arrivals == self.ROWS
        assert handed_out, "the spy saw no fact set"
        return calls

    def test_in_process_engine_is_called_once_per_row(self):
        calls = self.spied_batch(EngineSpec(SCHEMA, "svec"))
        assert calls == [(1, 0)] * self.ROWS

    def test_sharded_router_keeps_its_chunk(self):
        spec = EngineSpec(SCHEMA, "svec", sharding=ShardingSpec(2, "serial", chunk_size=16))
        assert self.spied_batch(spec) == [(16, 0)] * (self.ROWS // 16)

    def test_query_cache_passes_the_router_its_chunk(self):
        """A layer that leaves writes alone hands the router the whole
        chunk (it used to loop ``facts_for`` and hide ``chunk_size``)."""
        spec = EngineSpec(
            SCHEMA, "svec", sharding=ShardingSpec(2, "serial", chunk_size=16),
            query_cache=8,
        )
        assert self.spied_batch(spec, layers=1) == [(16, 0)] * (self.ROWS // 16)


class TestBackpressureAndDrain:
    def test_queue_stays_bounded_under_fast_producer(self):
        rows = make_rows(60)
        limit = 4

        async def run():
            server = StreamServer(
                FactDiscoverer(SCHEMA, algorithm="svec"),
                queue_limit=limit,
                batch_max=4,
            )
            await server.start()
            for row in rows:
                await server.ingest(row)  # awaits whenever the queue is full
            await server.stop()
            return server

        server = asyncio.run(run())
        assert server.stats.processed_rows == len(rows)
        assert server.stats.queue_depth_max <= limit

    def test_graceful_drain_on_stop(self):
        rows = make_rows(25)

        async def run():
            engine = FactDiscoverer(SCHEMA, algorithm="svec")
            server = StreamServer(engine, queue_limit=64, batch_max=8)
            await server.start()
            for row in rows:
                await server.ingest(row)
            # Stop immediately: drain must still discover every row.
            await server.stop(drain=True)
            return engine, server

        engine, server = asyncio.run(run())
        assert len(engine.table) == len(rows)
        assert server.stats.processed_rows == len(rows)

    def test_deletion_fences_batches(self):
        rows = make_rows(10)

        async def run():
            engine = FactDiscoverer(SCHEMA, algorithm="svec")
            server = StreamServer(engine, batch_max=32)
            await server.start()
            for row in rows[:5]:
                await server.ingest(row)
            await server.delete(2)
            for row in rows[5:]:
                await server.ingest(row)
            await server.stop()
            return engine, server

        engine, server = asyncio.run(run())
        assert server.stats.deletes == 1
        assert len(engine.table) == len(rows) - 1
        assert all(record.tid != 2 for record in engine.table)

    def test_delete_unknown_tid_raises(self):
        async def run():
            server = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
            await server.start()
            with pytest.raises(KeyError):
                await server.delete(99)
            await server.stop()

        asyncio.run(run())


class TestCheckpointing:
    def test_periodic_checkpoint_and_restore(self, tmp_path):
        rows = make_rows(20)
        path = str(tmp_path / "ckpt.json")

        async def run():
            engine = open_engine(
                EngineSpec(
                    SCHEMA,
                    algorithm="svec",
                    config=DiscoveryConfig(max_bound_dims=1),
                    sharding=ShardingSpec(workers=2, mode="serial"),
                    checkpoint=CheckpointPolicy(path, interval=0.02),
                )
            )
            server = StreamServer(engine, batch_max=4)
            await server.start()
            await server.ingest_many(rows)
            await server.drain()
            await asyncio.sleep(0.05)  # let the periodic checkpointer fire
            await server.stop()
            return engine, server

        engine, server = asyncio.run(run())
        assert server.stats.checkpoints >= 1
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == 3
        assert doc["spec"]["sharding"]["workers"] == 2
        assert doc["spec"]["sharding"]["mode"] == "serial"
        assert doc["spec"]["score"] is True
        restored = load_engine(path)
        assert isinstance(restored, ShardedDiscoverer)
        assert len(restored.table) == len(engine.table)
        assert restored.config.max_bound_dims == 1
        # Same future behaviour after restore.
        probe = {"d0": "zz", "d1": "b0", "m0": 4, "m1": 4}
        assert [fact_key(f) for f in restored.observe(probe)] == [
            fact_key(f) for f in engine.observe(probe)
        ]
        restored.close()
        engine.close()

    def test_failed_checkpoints_are_counted(self, tmp_path):
        """``last_error`` keeps only the latest failure; the tally keeps
        how many there were."""
        path = str(tmp_path / "ckpt.json")
        engine = open_engine(
            EngineSpec(SCHEMA, "svec", checkpoint=CheckpointPolicy(path))
        )

        async def run():
            server = StreamServer(engine)
            await server.start()
            await server.ingest_many(make_rows(5))
            faults.install(
                [{"point": "checkpoint.write", "action": "corrupt", "times": 2}]
            )
            try:
                await server._checkpoint()
                await server.stop()  # the final checkpoint fails too
            finally:
                faults.clear()
            return await server.read_stats()

        snap = asyncio.run(run())
        assert snap["checkpoint_failures"] == 2
        assert snap["checkpoints"] == 0
        assert "checkpoint write torn" in snap["last_error"]
        assert not os.path.exists(path)
        engine.close()


class TestSnapshotVersions:
    def test_v1_v2_snapshots_are_refused(self, tmp_path):
        """The pre-``EngineSpec`` formats are no longer read: the file
        is refused by version, never half-interpreted."""
        doc = {
            "algorithm": "svec",
            "meta": {"score": True, "engine": "sharded",
                     "n_workers": 2, "mode": "serial"},
            "schema": {
                "dimensions": list(SCHEMA.dimensions),
                "measures": list(SCHEMA.measures),
                "preferences": {},
            },
            "config": {
                "max_bound_dims": None,
                "max_measure_dims": None,
                "tau": None,
                "top_k": None,
            },
            "rows": make_rows(5),
        }
        path = tmp_path / "old.json"
        for version in (1, 2):
            path.write_text(json.dumps({"format_version": version, **doc}))
            with pytest.raises(
                ValueError, match="unsupported snapshot version"
            ):
                load_engine(str(path))

    def test_v3_score_flag_round_trips(self, tmp_path):
        from repro.extensions.snapshot import save_engine

        engine = FactDiscoverer(SCHEMA, algorithm="svec", score=False)
        engine.observe(make_rows(1)[0])
        path = str(tmp_path / "unscored.json")
        save_engine(engine, path)
        doc = json.loads(open(path).read())
        assert doc["format_version"] == 3
        assert doc["spec"]["score"] is False
        assert doc["spec"]["algorithm"] == "svec"
        loaded = load_engine(path)
        assert loaded.score is False


class TestTcpFrontend:
    def test_ndjson_round_trip(self):
        rows = make_rows(6)

        async def run():
            engine = ShardedDiscoverer(SCHEMA, n_workers=2, mode="serial")
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            replies = [await call({"op": "ingest", "row": row}) for row in rows]
            bare = await call(rows[0])  # bare row == ingest op
            bad = await call({"op": "ingest", "row": {"nope": 1}})
            # Malformed payloads get error replies, not a dead socket.
            bad_type = await call({"op": "ingest", "row": 5})
            bad_tid = await call({"op": "delete", "tid": None})
            assert "error" in bad_type and "error" in bad_tid
            deleted = await call({"op": "delete", "tid": 1})
            stats = await call({"op": "stats"})
            stopping = await call({"op": "shutdown"})
            writer.close()
            await server.wait_stopped()
            engine.close()
            return replies, bare, bad, deleted, stats, stopping, engine

        replies, bare, bad, deleted, stats, stopping, engine = asyncio.run(run())
        assert [r["tid"] for r in replies] == list(range(6))
        assert all("facts" in r for r in replies)
        assert replies[0]["facts"]  # first arrival dominates everything
        assert bare["tid"] == 6
        assert "error" in bad
        assert deleted == {"deleted": 1}
        assert stats["stats"]["processed_rows"] == 7
        assert stats["stats"]["deletes"] == 1
        assert "shard_utilization" in stats["stats"]
        # The server's own memory, read at snapshot time where /proc is.
        if os.path.exists("/proc/self/status"):
            assert 0 < stats["stats"]["rss_mb"] <= stats["stats"]["peak_rss_mb"]
        else:
            assert "rss_mb" not in stats["stats"]
        assert stopping == {"stopping": True}
        assert len(engine.table) == 6  # 7 arrivals − 1 deletion


class TestStatsThroughMiddleware:
    """A window or query-cache layer over a sharded engine: ``stats``
    and ``health`` read the shard and fault surfaces of the layer that
    has them, as ``engine.stats()`` does."""

    @pytest.mark.parametrize("layer", [{"query_cache": 8}, {"window": 20}])
    def test_shard_and_fault_numbers_reach_stats_and_health(self, layer):
        engine = open_engine(
            EngineSpec(
                SCHEMA,
                "svec",
                sharding=ShardingSpec(2, "serial"),
                **layer,
            )
        )
        sharded = engine
        while not isinstance(sharded, ShardedDiscoverer):
            sharded = sharded.inner
        sharded.degraded = True

        async def run():
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await server.ingest_many(make_rows(6))
            await server.drain()
            writer.write(b'{"op": "health"}\n')
            await writer.drain()
            health = json.loads(await reader.readline())
            snap = await server.read_stats()
            writer.close()
            await server.stop()
            return health, snap

        health, snap = asyncio.run(run())
        engine_stats = engine.stats()
        assert health["degraded"] is True
        assert len(snap["shards"]) == len(snap["shard_busy_seconds"]) == 2
        for key in ("worker_restarts", "chunks_retried", "replica_failovers"):
            assert snap[key] == engine_stats[key]
        assert snap["degraded"] == 1
        engine.close()


#: Every key the ``stats`` reply carried before it read ``engine.stats()``,
#: on every composition.  Readers: ``benchmarks/e2e/harness.py``
#: (``processed_rows``), ``benchmarks/e2e/report.py`` (``batches``,
#: ``processed_rows``, ``queue_depth_max``, ``gateway_frames_*``,
#: ``query_cache_*``, ``chunks_retried``, ``worker_restarts``,
#: ``shard_busy_seconds``, ``feeds``) and ``cluster-status --gateway``
#: (``gateway_*``, ``feeds``).
REPLY_KEYS = {
    "batch_rows_max", "batches", "checkpoints", "chunks_retried",
    "dead_letter_failures", "degraded", "deletes", "enqueued",
    "facts_emitted",
    "gateway_frames_coalesced", "gateway_frames_dropped",
    "gateway_frames_sent", "gateway_http_requests", "gateway_subscribers",
    "mean_batch_rows", "ops_replayed", "processed_rows",
    "query_cache_evictions", "query_cache_hits", "query_cache_misses",
    "queue_depth", "queue_depth_max", "replica_failovers",
    "rows_quarantined", "table_rows", "worker_restarts",
}
if os.path.exists("/proc/self/status"):
    REPLY_KEYS |= {"rss_mb", "peak_rss_mb"}
#: ... plus these on a sharded engine, and ``feeds`` with a feed store.
SHARD_KEYS = {"shard_busy_seconds", "shard_utilization", "shards"}


class TestStatsReply:
    """The ``stats`` reply is the server's tallies, the engine's
    ``stats()`` tree, and the flat names derived from it."""

    @pytest.mark.parametrize(
        "layer",
        [
            {},
            {"window": 20, "query_cache": 8},
            {"sharding": ShardingSpec(2, "serial")},
            {"sharding": ShardingSpec(2, "process")},
            {"feeds": FeedSpec(group_by=("d0",))},
        ],
        ids=["svec", "window+query_cache", "serial-2", "process-2",
             "feeds+gateway"],
    )
    def test_reply_contract(self, layer):
        rows = make_rows(8)
        sharding = layer.get("sharding")
        crash = sharding is not None and sharding.mode == "process"
        if crash:
            # One worker crash on its 3rd ingest chunk: closed-loop
            # ingest keeps one chunk in flight, so one chunk is re-sent.
            faults.install([{"point": "worker.op", "action": "crash",
                             "worker": 1, "op": "rows", "after": 3}])
        try:
            engine = open_engine(EngineSpec(SCHEMA, "svec", **layer))
        finally:
            faults.clear()
        threads = {}

        def spy(name, method):
            def wrapper(*args):
                threads.setdefault(name, set()).add(threading.get_ident())
                return method(*args)
            setattr(engine, name, wrapper)

        spy("stats", engine.stats)
        spy("facts_for_many", engine.facts_for_many)

        async def run():
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            gateway = client = None
            if server.feeds is not None:
                gateway = FeedGateway(server)
                gport = (await gateway.start()).sockets[0].getsockname()[1]
                client = await FeedClient.connect("127.0.0.1", gport)
            for row in rows:
                assert "tid" in await call({"op": "ingest", "row": row})
            for _ in range(2):
                assert "tids" in await call({"op": "query", "q": "d0=a1 | m0"})
            received, latest = 0, {}
            if client is not None:
                # Frames until every segment's final version arrived.
                feeds = server.feeds
                final = {key: feeds.version(key) for key in feeds.segment_keys()}
                while latest != final:
                    frame = await client.recv()
                    received += 1
                    latest[frame["segment"]] = frame["version"]
            reply = (await call({"op": "stats"}))["stats"]
            via_http = None
            if gateway is not None:
                via_http = (await fetch_json("127.0.0.1", gport, "/stats"))["stats"]
                await client.close()
                await gateway.stop()
            writer.close()
            await server.stop()
            return reply, via_http, received

        try:
            reply, via_http, frames_received = asyncio.run(run())
        finally:
            engine.close()
        expected = set(REPLY_KEYS)
        if sharding is not None:
            expected |= SHARD_KEYS
        if "feeds" in layer:
            expected.add("feeds")
        assert expected <= set(reply)
        assert reply["engine"]["counters"]["comparisons"] > 0
        # Hand counts: one batch per closed-loop arrival; the repeated
        # query misses once, then hits.
        assert reply["processed_rows"] == reply["batches"] == len(rows)
        cached = "query_cache" in layer
        assert (reply["query_cache_hits"], reply["query_cache_misses"]) == (
            (1, 1) if cached else (0, 0)
        )
        assert (reply["worker_restarts"], reply["chunks_retried"]) == (
            (1, 1) if crash else (0, 0)
        )
        assert len(reply.get("shard_busy_seconds", ())) == (
            2 if sharding is not None else 0
        )
        if sharding is not None:
            # Rounded busy seconds and their shares, derived from the
            # router's utilization (no batch ran after the reply).
            busy = engine.utilization()
            assert reply["shard_busy_seconds"] == [round(b, 4) for b in busy]
            assert reply["shard_utilization"] == [
                round(b / sum(busy), 3) for b in busy
            ]
        assert reply["gateway_frames_sent"] == frames_received
        if via_http is not None:
            assert frames_received > 0
            assert via_http["gateway_frames_sent"] == frames_received
            assert expected <= set(via_http)
        # engine.stats ran on the thread that runs the batches, never on
        # the event loop's.
        assert threads["stats"] == threads["facts_for_many"]
        assert threading.get_ident() not in threads["stats"]

    def test_failed_engine_read_gets_an_error_reply(self):
        """An ``engine.stats()`` that raises (e.g. a shard worker that
        cannot be rebuilt) is answered, not a dropped connection: the
        TCP op replies ``{"error": …}``, ``GET /stats`` a 503."""
        engine = open_engine(
            EngineSpec(SCHEMA, "svec", feeds=FeedSpec(group_by=("d0",)))
        )

        def stats():
            raise RuntimeError("shard 1 gave up")

        engine.stats = stats

        async def run():
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            gateway = FeedGateway(server)
            gport = (await gateway.start()).sockets[0].getsockname()[1]
            tcp = await call({"op": "stats"})
            pong = await call({"op": "ping"})
            with pytest.raises(ValueError) as http:
                await fetch_json("127.0.0.1", gport, "/stats")
            await gateway.stop()
            writer.close()
            await server.stop()
            return tcp, pong, str(http.value)

        try:
            tcp, pong, http = asyncio.run(run())
        finally:
            engine.close()
        assert tcp == {"error": "shard 1 gave up"}
        assert pong == {"ok": True}
        assert http == "HTTP 503 for /stats: shard 1 gave up"

    def test_query_after_stop_is_refused(self):
        """A connection left open across ``stop()`` gets an error for a
        query: the engine thread is shut down, and the query must not
        run on another thread beside whoever closes the engine."""
        engine = FactDiscoverer(SCHEMA, algorithm="svec")

        async def run():
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def call(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            assert "tid" in await call({"op": "ingest", "row": make_rows(1)[0]})
            closed = server.subscribe()
            stopping = asyncio.create_task(server.stop())
            async for _ in closed:  # ends once stop() shut the engine thread
                pass
            query = await call({"op": "query", "q": "d0=a1 | m0"})
            pong = await call({"op": "ping"})
            writer.close()
            await stopping
            return query, pong

        query, pong = asyncio.run(run())
        assert "after shutdown" in query["error"]
        assert pong == {"ok": True}
