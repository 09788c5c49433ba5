"""StreamServer behaviour: micro-batching, backpressure, drain,
subscriptions, checkpoint round-trips, and the NDJSON TCP front-end."""

import asyncio
import inspect
import json
import os

import pytest

from repro import DiscoveryConfig, FactDiscoverer
from repro.api import (
    CheckpointPolicy,
    EngineSpec,
    ShardingSpec,
    open_engine,
)
from repro.core.schema import SchemaError
from repro.extensions.snapshot import load_engine
from repro.service import ShardedDiscoverer, StreamServer
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
            "queue_limit", "batch_max", "dead_letter_path",
            "conn_timeout", "stats", "feeds",
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
            await server.stop()
            events = [event async for event in sub]
            return sub, events

        sub, events = asyncio.run(run())
        # Oldest events were dropped; the newest max_pending survive.
        assert len(events) == 5
        assert sub.dropped == len(rows) - 5
        assert [e.tid for e in events] == list(range(15, 20))

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
        # Explicit override still wins.
        assert load_engine(path, score=True).score is True


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
            snap = server.stats_snapshot()
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
