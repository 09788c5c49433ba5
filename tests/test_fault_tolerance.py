"""Chaos suite: crash-safe serving end to end.

Every scenario compares a *faulted* run against an unfaulted reference
and requires property-identity — same facts (constraint, subspace,
prominence), same op counters, no accepted row lost or double-applied:

* supervised shard workers surviving injected crashes and a real
  ``SIGKILL`` mid-chunk, with deletions interleaved;
* hung workers abandoned at ``op_timeout`` and rebuilt;
* the circuit breaker degrading the pool to in-router execution;
* remote replica sets (socket workers in real subprocesses) promoting
  a surviving replica when the primary crashes or is ``SIGKILL``-ed
  mid-stream, and degrading — not dying — when a whole set is lost;
* server "kill" + write-ahead-journal replay (full replay, checkpoint +
  suffix, torn tail);
* poison rows quarantined to the dead-letter file exactly once while
  batch-mates survive;
* checkpoint writes that stay crash-consistent (an interrupted write
  never damages the previous snapshot).
"""

import asyncio
import json
import os
import signal
from contextlib import contextmanager

import pytest

from repro import DiscoveryConfig, FactDiscoverer
from repro.api import (
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    ShardingSpec,
    open_engine,
)
from repro.extensions.snapshot import load_engine, save_engine
from repro.service import (
    JournalWriter,
    ShardedDiscoverer,
    StreamServer,
    recover_engine,
)
from repro.service import faults
from repro.service.journal import JournalCorruptError, read_ops
from repro.service.remote import run_worker
from tests import feed_oracle
from tests.strategies import SERVICE_SCHEMA as SCHEMA, make_rows
from tests.test_feed_columns import assert_same

def fact_key(fact):
    return (fact.constraint.values, fact.subspace, fact.prominence)


def fact_keys(factsets):
    return [[fact_key(f) for f in fs] for fs in factsets]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def reference_run(rows, deletes=()):
    """Unfaulted single-engine run: facts per arrival + final counters."""
    engine = FactDiscoverer(SCHEMA, algorithm="svec")
    facts = fact_keys(engine.observe_many(rows))
    for tid in deletes:
        engine.delete(tid)
    return facts, engine.counters.snapshot(), engine


# ----------------------------------------------------------------------
# Supervised workers
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_injected_crash_mid_stream_is_invisible(self):
        rows = make_rows(60)
        expected, expected_counters, ref = reference_run(rows)
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": 1,
                    "op": "rows",
                    "after": 2,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=16, op_timeout=15
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            tally = engine.fault_counters()
            assert tally["worker_restarts"] == 1
            assert tally["chunks_retried"] >= 1
            assert not tally["degraded"]
        finally:
            engine.close()
            ref.close()

    def test_sigkill_mid_chunk_recovers_exactly(self):
        rows = make_rows(80)
        first, rest = rows[:40], rows[40:]
        expected, expected_counters, ref = reference_run(rows, deletes=(3, 17))
        engine = ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=16, op_timeout=15
        )
        try:
            got = fact_keys(engine.observe_many(first))
            victim = engine._workers[0].links[0]._process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            # The next chunks land on a dead pipe mid-submit: the
            # supervisor must notice, restart, replay the committed
            # prefix, and re-send the in-flight chunk exactly once.
            got += fact_keys(engine.observe_many(rest))
            engine.delete(3)
            engine.delete(17)
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            assert engine.fault_counters()["worker_restarts"] >= 1
        finally:
            engine.close()
            ref.close()

    def test_crash_during_delete_applies_once(self):
        rows = make_rows(36)
        expected, expected_counters, ref = reference_run(rows, deletes=(5,))
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": 0,
                    "op": "delete",
                    "after": 1,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=12, op_timeout=15
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            engine.delete(5)
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            assert engine.fault_counters()["worker_restarts"] == 1
        finally:
            engine.close()
            ref.close()

    def test_hung_worker_abandoned_at_op_timeout(self):
        rows = make_rows(24)
        expected, expected_counters, ref = reference_run(rows)
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "delay",
                    "worker": 1,
                    "op": "rows",
                    "delay": 30.0,
                    "after": 1,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=12, op_timeout=0.5
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            assert engine.fault_counters()["worker_restarts"] >= 1
        finally:
            engine.close()
            ref.close()

    def test_dropped_reply_is_recovered(self):
        # A dropped reply models a hang (pipes cannot lose a message
        # without dying), so it is injected on a sync op — the router
        # blocks on the missing ack, times out, rebuilds and retries
        # the delete exactly once.
        rows = make_rows(24)
        expected, expected_counters, ref = reference_run(rows, deletes=(9,))
        faults.install(
            [
                {
                    "point": "worker.reply",
                    "action": "drop",
                    "worker": 0,
                    "op": "delete",
                    "after": 1,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=12, op_timeout=0.5
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            engine.delete(9)
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            assert engine.fault_counters()["worker_restarts"] >= 1
        finally:
            engine.close()
            ref.close()


class TestCircuitBreakerDegrade:
    def test_degrades_to_in_router_execution(self):
        rows = make_rows(48)
        expected, expected_counters, ref = reference_run(rows, deletes=(7,))
        # Every restart budget is zero: the first crash trips the
        # breaker and the pool must degrade, not die.
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": 1,
                    "op": "rows",
                    "after": 2,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA,
            n_workers=2,
            mode="process",
            chunk_size=12,
            op_timeout=15,
            max_restarts=0,
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            engine.delete(7)
            assert engine.degraded
            assert engine.fault_counters()["degraded"]
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            # Degraded pool keeps serving new arrivals correctly.
            more = make_rows(12, start=48)
            ref_more = fact_keys(ref.observe_many(more))
            assert fact_keys(engine.observe_many(more)) == ref_more
        finally:
            engine.close()
            ref.close()

    def test_degrade_during_delete(self):
        rows = make_rows(30)
        expected, expected_counters, ref = reference_run(rows, deletes=(2, 11))
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": 0,
                    "op": "delete",
                    "after": 1,
                }
            ]
        )
        engine = ShardedDiscoverer(
            SCHEMA,
            n_workers=2,
            mode="process",
            chunk_size=10,
            op_timeout=15,
            max_restarts=0,
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            engine.delete(2)
            engine.delete(11)
            assert engine.degraded
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
        finally:
            engine.close()
            ref.close()


# ----------------------------------------------------------------------
# Remote replica sets (socket workers in real subprocesses)
# ----------------------------------------------------------------------
@contextmanager
def socket_workers(count):
    """Spawn ``count`` socket shard-workers, each in its own OS process
    (crash faults use ``os._exit`` and SIGKILL needs a real pid, so
    in-process servers would take the test runner down with them).
    Yields ``(addresses, processes)`` index-aligned."""
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    processes, addresses = [], []
    try:
        for _ in range(count):
            ready = ctx.Queue()
            process = ctx.Process(
                target=run_worker,
                args=("127.0.0.1", 0, ready, False),
                daemon=True,
            )
            process.start()
            port = ready.get(timeout=30)
            processes.append(process)
            addresses.append(f"127.0.0.1:{port}")
        yield addresses, processes
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


class TestRemoteReplicaFailover:
    def test_injected_crash_promotes_surviving_replica(self):
        # Kill shard 0's primary mid-stream via fault injection.  The
        # router forwards armed faults to the primary replica only, so
        # the crash exercises promotion: the surviving replica — byte
        # -identical by determinism — takes over with no recovery work,
        # and the merged stream must not lose or duplicate a fact.
        rows = make_rows(64)
        expected, expected_counters, ref = reference_run(rows)
        with socket_workers(3) as (addresses, _processes):
            faults.install(
                [
                    {
                        "point": "worker.op",
                        "action": "crash",
                        "worker": 0,
                        "op": "rows",
                        "after": 2,
                    }
                ]
            )
            engine = ShardedDiscoverer(
                SCHEMA,
                remote={"0": addresses[:2], "1": addresses[2:]},
                chunk_size=16,
                op_timeout=15,
            )
            try:
                got = fact_keys(engine.observe_many(rows))
                assert got == expected
                assert engine.counters.snapshot() == expected_counters
                tally = engine.fault_counters()
                assert tally["replica_failovers"] >= 1
                assert not tally["degraded"]
                assert len(engine._workers[0].replicas) == 1
            finally:
                engine.close()
                ref.close()

    def test_sigkill_replica_mid_stream_loses_nothing(self):
        rows = make_rows(80)
        first, rest = rows[:40], rows[40:]
        expected, expected_counters, ref = reference_run(rows, deletes=(3, 17))
        with socket_workers(4) as (addresses, processes):
            engine = ShardedDiscoverer(
                SCHEMA,
                remote={"0": addresses[:2], "1": addresses[2:]},
                chunk_size=16,
                op_timeout=15,
            )
            try:
                got = fact_keys(engine.observe_many(first))
                # A real kill of shard 0's primary: connections reset,
                # the replica set drops it and promotes, no router
                # restart, no re-ingestion.
                victim = processes[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                assert not victim.is_alive()
                got += fact_keys(engine.observe_many(rest))
                engine.delete(3)
                engine.delete(17)
                assert got == expected
                assert engine.counters.snapshot() == expected_counters
                tally = engine.fault_counters()
                assert tally["replica_failovers"] >= 1
                assert not tally["degraded"]
            finally:
                engine.close()
                ref.close()

    def test_whole_replica_set_lost_degrades_not_dies(self):
        # Shard 1 has a single replica; its crash exhausts the set, so
        # the router must degrade to in-router execution (rebuilt from
        # the committed op log) and keep serving correctly.
        rows = make_rows(48)
        expected, expected_counters, ref = reference_run(rows, deletes=(7,))
        with socket_workers(2) as (addresses, _processes):
            faults.install(
                [
                    {
                        "point": "worker.op",
                        "action": "crash",
                        "worker": 1,
                        "op": "rows",
                        "after": 2,
                    }
                ]
            )
            engine = ShardedDiscoverer(
                SCHEMA,
                remote={"0": addresses[:1], "1": addresses[1:]},
                chunk_size=12,
                op_timeout=15,
            )
            try:
                got = fact_keys(engine.observe_many(rows))
                engine.delete(7)
                assert engine.degraded
                assert engine.fault_counters()["degraded"]
                assert got == expected
                assert engine.counters.snapshot() == expected_counters
                more = make_rows(12, start=48)
                ref_more = fact_keys(ref.observe_many(more))
                assert fact_keys(engine.observe_many(more)) == ref_more
            finally:
                engine.close()
                ref.close()


# ----------------------------------------------------------------------
# Journal replay
# ----------------------------------------------------------------------
def service_spec(tmp_path, name="ckpt.snap"):
    return EngineSpec(
        SCHEMA,
        algorithm="svec",
        checkpoint=CheckpointPolicy(
            path=str(tmp_path / name),
            journal_dir=str(tmp_path / "wal"),
        ),
    )


class TestJournalRecovery:
    def test_journal_round_trip(self, tmp_path):
        rows = make_rows(40)
        spec = service_spec(tmp_path)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            for row in rows:
                journal.append_ingest(row)
            journal.append_delete(4)
            journal.commit()
        engine, report = recover_engine(spec)
        expected, expected_counters, ref = reference_run(rows, deletes=(4,))
        try:
            assert report.source == "journal"
            assert report.ops_replayed == len(rows) + 1
            assert not report.torn_tail
            probe = make_rows(1, start=99)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    def test_server_kill_then_replay(self, tmp_path):
        rows = make_rows(50)
        spec = service_spec(tmp_path)
        expected, expected_counters, ref = reference_run(rows, deletes=(6,))

        async def faulted_session():
            server = StreamServer(open_engine(spec), batch_max=8)
            await server.start()
            await server.ingest_many(rows)
            await server.delete(6)
            await server.drain()
            # Simulated kill: no final checkpoint is ever written.
            await server.stop(drain=False)
            server.engine.close()

        asyncio.run(faulted_session())
        assert not os.path.exists(spec.checkpoint.path)
        engine, report = recover_engine(spec)
        try:
            assert report.source == "journal"
            assert report.ops_replayed == len(rows) + 1
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(3, start=77)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    def test_checkpoint_plus_journal_suffix(self, tmp_path):
        rows1, rows2 = make_rows(30), make_rows(20, start=30)
        spec = service_spec(tmp_path)
        expected, expected_counters, ref = reference_run(rows1 + rows2)

        async def session_one():
            server = StreamServer(open_engine(spec), batch_max=8)
            await server.start()
            await server.ingest_many(rows1)
            await server.stop()  # graceful: checkpoint + journal prune
            server.engine.close()

        async def session_two():
            engine, report = recover_engine(spec)
            assert report.source == "checkpoint"
            server = StreamServer(engine, batch_max=8)
            await server.start()
            await server.ingest_many(rows2)
            await server.drain()
            await server.stop(drain=False)  # killed before checkpointing
            engine.close()

        asyncio.run(session_one())
        asyncio.run(session_two())
        engine, report = recover_engine(spec)
        try:
            assert report.source == "checkpoint+journal"
            assert report.checkpoint_seq == len(rows1)
            assert report.ops_replayed == len(rows2)
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(2, start=88)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    def test_recovered_engine_carries_the_callers_policy(self, tmp_path):
        """The server reads ``engine.spec.checkpoint`` and nothing else,
        so a restart that changes the policy (here: the interval) must
        not get the one embedded in the snapshot back."""
        spec = service_spec(tmp_path)
        with open_engine(spec) as engine:
            engine.observe_many(make_rows(4))
            engine.snapshot()
        policy = CheckpointPolicy(
            spec.checkpoint.path, interval=30.0, journal_dir=str(tmp_path / "wal")
        )
        engine, report = recover_engine(
            EngineSpec(SCHEMA, algorithm="svec", checkpoint=policy)
        )
        with engine:
            assert report.source == "checkpoint" and len(engine) == 4
            assert engine.spec.checkpoint == policy
            assert StreamServer(engine).checkpoint_policy == policy

    def test_torn_tail_is_dropped_and_reported(self, tmp_path):
        rows = make_rows(25)
        spec = service_spec(tmp_path)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            for row in rows:
                journal.append_ingest(row)
        segments = sorted((tmp_path / "wal").iterdir())
        with open(segments[-1], "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\x99")  # crash mid-append
        engine, report = recover_engine(spec)
        expected, expected_counters, ref = reference_run(rows)
        try:
            assert report.torn_tail
            assert report.ops_replayed == len(rows)
            assert engine.counters.snapshot() == expected_counters
        finally:
            engine.close()
            ref.close()
        # The resumed writer truncates the torn tail and appends after
        # the last intact record.
        with JournalWriter(str(tmp_path / "wal")) as journal:
            assert journal.last_seq == len(rows)
            journal.append_ingest(make_rows(1, start=99)[0])
        ops, torn = read_ops(str(tmp_path / "wal"))
        assert not torn
        assert len(ops) == len(rows) + 1

    def test_journal_write_failure_stops_writes_not_the_server(self, tmp_path):
        """A torn journal append used to kill the consumer task with
        the ``OSError`` stored where nobody read it: ``last_error``
        stayed ``None`` and every later caller (and ``stop()``) hung.
        Now the failed batch's callers, everything queued behind it and
        every later write get the error, ``health`` says so, and
        ``drain()``/``stop()`` return; recovery sees a torn tail and
        exactly the acknowledged prefix."""
        rows = make_rows(12)
        k = 5
        spec = service_spec(tmp_path)
        expected, expected_counters, ref = reference_run(rows[:k])

        def bounded(awaitable):
            return asyncio.wait_for(awaitable, 2)

        async def session():
            server = StreamServer(open_engine(spec), batch_max=1)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            for row in rows[:k]:
                await bounded(server.ingest_wait(row))
            # Fires once: the writes behind it would journal fine, so
            # their refusal is fail-stop, not a second injected fault.
            faults.install([{"point": "journal.append", "action": "corrupt"}])
            failed, queued_behind = await bounded(
                asyncio.gather(
                    server.ingest_wait(rows[k]),
                    server.ingest_wait(rows[k + 1]),
                    return_exceptions=True,
                )
            )
            assert isinstance(failed, RuntimeError)
            assert "torn mid-record" in str(failed)
            assert isinstance(failed.__cause__, OSError)
            assert isinstance(queued_behind, RuntimeError)
            for write in (
                server.ingest_wait(rows[k + 2]),
                server.ingest(rows[k + 3]),
                server.delete(0),
            ):
                with pytest.raises(RuntimeError, match="no further writes"):
                    await bounded(write)
            reader, writer = await bounded(
                asyncio.open_connection("127.0.0.1", port)
            )
            writer.write(b'{"op": "health"}\n')
            health = json.loads(await bounded(reader.readline()))
            writer.close()
            assert health["ok"] is False and health["running"] is True
            assert "torn mid-record" in health["last_error"]
            stats = await bounded(server.read_stats())
            assert "torn mid-record" in stats["last_error"]
            await bounded(server.drain())
            # A draining stop returns too — and writes no final
            # checkpoint: the engine holds the refused row.
            await bounded(server.stop())
            server.engine.close()

        asyncio.run(session())
        assert not os.path.exists(spec.checkpoint.path)
        engine, report = recover_engine(spec)
        try:
            assert report.torn_tail
            assert report.ops_replayed == k
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(2, start=66)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()


# ----------------------------------------------------------------------
# Poison rows / dead-letter quarantine
# ----------------------------------------------------------------------
def poison_engine(spec):
    """``open_engine(spec)`` with ``facts_for_many`` wrapped to apply
    rows one at a time; rows marked ``d0 == "POISON"`` raise before
    touching the table, so a poison row costs itself only."""
    engine = open_engine(spec)
    inner = engine.facts_for_many

    def facts_for_many(rows):
        out = []
        for row in rows:
            if row.get("d0") == "POISON":
                raise ValueError(f"poison row rejected: {row!r}")
            out.extend(inner([row]))
        return out

    engine.facts_for_many = facts_for_many
    return engine


class TestPoisonRows:
    def test_quarantined_exactly_once_others_survive(self, tmp_path):
        healthy = make_rows(30)
        poison = [
            {"d0": "POISON", "d1": "b0", "m0": 1, "m1": 1},
            {"d0": "POISON", "d1": "b1", "m0": 2, "m1": 2},
        ]
        rows = healthy[:10] + poison[:1] + healthy[10:20] + poison[1:] + healthy[20:]
        spec = service_spec(tmp_path)
        dead = tmp_path / "dead.ndjson"
        expected, expected_counters, ref = reference_run(healthy, deletes=(3,))

        async def run():
            server = StreamServer(
                poison_engine(spec),
                dead_letter_path=str(dead),
                batch_max=8,
            )
            await server.start()
            for row in rows:
                await server.ingest(row)
            await server.delete(3)
            await server.drain()
            stats = server.stats
            live_counters = server.engine.counters.snapshot()
            await server.stop(drain=False)
            server.engine.close()
            return stats, live_counters

        stats, live_counters = asyncio.run(run())
        assert stats.rows_quarantined == len(poison)
        assert stats.processed_rows == len(healthy)
        # Each poison row lands in the dead-letter file exactly once,
        # with enough context to retry it by hand.
        entries = [json.loads(line) for line in dead.read_text().splitlines()]
        assert [e["row"] for e in entries] == poison
        assert all(e["error_type"] == "ValueError" for e in entries)
        # Accepted rows were neither lost nor double-applied: the live
        # state and the journal-recovered state both equal the
        # poison-free reference.
        assert live_counters == expected_counters
        engine, report = recover_engine(spec)
        try:
            assert report.ops_replayed == len(healthy) + 1
            assert not report.replay_errors
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(2, start=55)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    @pytest.mark.parametrize(
        "sharding, applies, calls, lost",
        [
            # Row 13 fails alone, then is retried alone.
            (None, 0, [1] * 13 + [1, 1] + [1] * 18, ()),
            # Its slice (rows 8-15) fails, then is retried row by row.
            (
                ShardingSpec(workers=2, mode="serial", chunk_size=8),
                0,
                [8, 8] + [1] * 8 + [8, 8],
                (),
            ),
            # Rows 8-12 are applied before the slice fails: their facts
            # are lost, and only rows 13-15 are retried.
            (
                ShardingSpec(workers=2, mode="serial", chunk_size=8),
                5,
                [8, 8] + [1] * 3 + [8, 8],
                range(8, 13),
            ),
        ],
        ids=["in-process", "sharded", "sharded-partly-applied"],
    )
    def test_salvage_touches_only_the_failing_slice(
        self, sharding, applies, calls, lost
    ):
        """The batch reaches the engine in slices (one row in-process,
        8-row chunks on the router); a poison row mid-batch fails its
        own slice only.  The stand-in applies the first ``applies``
        rows of a slice holding it (never the poison row), then raises.
        Every healthy row it did not apply — its slice-mates included —
        keeps its facts; the applied ones are acked with none.  Either
        way each row is folded into the feeds exactly once (a lost row
        through the refresh), and the feeds equal the oracle's fold."""
        healthy = make_rows(31)
        poison = {"d0": "POISON", "d1": "b0", "m0": 1, "m1": 1}
        rows = healthy[:13] + [poison] + healthy[13:]
        feed_spec = FeedSpec(group_by=("d0",))
        spec = EngineSpec(
            SCHEMA, algorithm="svec", sharding=sharding, feeds=feed_spec
        )
        engine = open_engine(spec)
        inner = engine.facts_for_many
        seen = []

        def facts_for_many(part):
            seen.append(len(part))
            poisoned = [
                i for i, row in enumerate(part) if row["d0"] == "POISON"
            ]
            if poisoned:
                inner(part[: min(applies, poisoned[0])])
                raise ValueError("poison row rejected")
            return inner(part)

        engine.facts_for_many = facts_for_many

        async def run():
            server = StreamServer(engine)
            await server.start()
            results = await asyncio.gather(
                *(server.ingest_wait(row) for row in rows),
                return_exceptions=True,
            )
            await server.stop()
            return server, results

        server, results = asyncio.run(run())
        live_counters = engine.counters.snapshot()
        engine.close()
        assert server.stats.batches == 1
        assert seen == calls

        ref = FactDiscoverer(SCHEMA, algorithm="svec")
        oracle = feed_oracle.FeedStore.for_engine(ref, feed_spec)
        expected = []
        for tid, row in enumerate(healthy):
            factset = ref.facts_for(row)
            if tid in lost:
                # Applied, facts lost: refreshed from the engine instead.
                oracle.apply_event(factset.record, None)
                expected.append([])
            else:
                oracle.apply_event(factset.record, factset)
                expected.append([fact_key(f) for f in factset.ranked()])
        oracle.repair(ref)
        assert isinstance(results[13], ValueError)
        assert server.stats.rows_quarantined == 1
        events = results[:13] + results[14:]
        assert [event.tid for event in events] == list(range(len(healthy)))
        assert [[fact_key(f) for f in e.facts] for e in events] == expected
        assert server.feeds.applied_arrivals == len(healthy)
        assert_same(server.feeds, oracle)
        assert live_counters == ref.counters.snapshot()

    def test_failed_selection_loses_only_that_rows_facts(self, monkeypatch):
        """A row whose reportable-fact selection raises was applied: it
        is acked with no facts and refreshed in the feeds, like a row
        whose ``S_t`` was lost in discovery.  Its batch-mates keep their
        facts and the server keeps taking writes."""
        from repro.service import server as server_module

        select = server_module.select_reportable

        def failing_select(factset, config):
            if factset.record.tid == 5:
                raise RuntimeError("selection failed")
            return select(factset, config)

        monkeypatch.setattr(server_module, "select_reportable", failing_select)
        rows = make_rows(13)
        feed_spec = FeedSpec(group_by=("d0",))
        engine = open_engine(
            EngineSpec(SCHEMA, algorithm="svec", feeds=feed_spec)
        )

        async def run():
            server = StreamServer(engine)
            await server.start()
            events = await asyncio.gather(
                *(server.ingest_wait(row) for row in rows[:12])
            )
            events.append(await server.ingest_wait(rows[12]))
            await server.stop()
            return server, events

        server, events = asyncio.run(run())
        engine.close()
        assert server.stats.batches == 2
        assert isinstance(server.last_error, RuntimeError)

        ref = FactDiscoverer(SCHEMA, algorithm="svec")
        oracle = feed_oracle.FeedStore.for_engine(ref, feed_spec)
        expected = []
        for tid, row in enumerate(rows):
            factset = ref.facts_for(row)
            if tid == 5:
                oracle.apply_event(factset.record, None)
                expected.append([])
            else:
                oracle.apply_event(factset.record, factset)
                expected.append([fact_key(f) for f in factset.ranked()])
            if tid in (11, 12):
                oracle.repair(ref)
        assert [event.tid for event in events] == list(range(len(rows)))
        assert [[fact_key(f) for f in e.facts] for e in events] == expected
        assert_same(server.feeds, oracle)

    def test_poison_rows_never_reach_the_journal(self, tmp_path):
        rows = make_rows(6) + [{"d0": "POISON", "d1": "b0", "m0": 0, "m1": 0}]

        async def run():
            server = StreamServer(
                poison_engine(service_spec(tmp_path)), batch_max=4
            )
            await server.start()
            for row in rows:
                await server.ingest(row)
            await server.drain()
            await server.stop(drain=False)
            server.engine.close()

        asyncio.run(run())
        ops, _ = read_ops(str(tmp_path / "wal"))
        assert len(ops) == 6
        assert all(op["row"]["d0"] != "POISON" for op in ops)

    def test_failed_dead_letter_write_is_counted(self, tmp_path):
        """The dead-letter file is a quarantined row's one record: when
        it cannot be written, the loss shows in the stats reply."""
        rows = make_rows(3) + [{"d0": "POISON", "d1": "b0", "m0": 0, "m1": 0}]
        missing = tmp_path / "no-such-dir" / "dead.ndjson"

        async def run():
            server = StreamServer(
                poison_engine(EngineSpec(SCHEMA, algorithm="svec")),
                dead_letter_path=str(missing),
            )
            await server.start()
            await server.ingest_many(rows)
            await server.stop()
            server.engine.close()
            return await server.read_stats()

        snap = asyncio.run(run())
        assert snap["rows_quarantined"] == 1
        assert snap["dead_letter_failures"] == 1
        assert "no-such-dir" in snap["last_error"]
        assert snap["processed_rows"] == 3
        assert not missing.parent.exists()


# ----------------------------------------------------------------------
# Crash-consistent checkpoints
# ----------------------------------------------------------------------
class TestCheckpointCrashConsistency:
    def test_interrupted_write_keeps_previous_snapshot(self, tmp_path):
        path = str(tmp_path / "engine.snap")
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        engine.observe_many(make_rows(12))
        save_engine(engine, path)
        golden = engine.counters.snapshot()

        engine.observe_many(make_rows(12, start=12))
        faults.install(
            [{"point": "checkpoint.write", "action": "corrupt", "after": 1}]
        )
        with pytest.raises(OSError):
            save_engine(engine, path)
        # The torn temp file is cleaned up and the previous snapshot
        # still loads, bit-for-bit usable.
        assert [p for p in tmp_path.iterdir() if ".tmp." in p.name] == []
        restored = load_engine(path)
        assert restored.counters.snapshot() == golden
        restored.close()

        # With the fault spent, the very next save succeeds.
        save_engine(engine, path)
        restored = load_engine(path)
        assert restored.counters.snapshot() == engine.counters.snapshot()
        restored.close()
        engine.close()

    def test_truncated_snapshot_never_loads_partially(self, tmp_path):
        path = tmp_path / "engine.snap"
        engine = FactDiscoverer(SCHEMA, algorithm="svec")
        engine.observe_many(make_rows(10))
        save_engine(engine, str(path))
        engine.close()
        data = path.read_bytes()
        # An interruption at *any* byte boundary must yield a loud
        # ValueError, never a silently partial restore.
        for cut in (1, len(data) // 4, len(data) // 2, len(data) - 2):
            torn = tmp_path / f"torn-{cut}.snap"
            torn.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_engine(str(torn))


# ----------------------------------------------------------------------
# Fault registry plumbing
# ----------------------------------------------------------------------
class TestFaultRegistry:
    def test_after_and_times_arming(self):
        faults.install(
            [{"point": "worker.op", "action": "drop", "after": 2, "times": 1}]
        )
        assert faults.fire("worker.op") is None  # seen 1 < after 2
        fault = faults.fire("worker.op")
        assert fault is not None and fault.action == "drop"
        assert faults.fire("worker.op") is None  # times budget spent

    def test_scoping_by_worker_and_op(self):
        faults.install(
            [{"point": "worker.op", "action": "drop", "worker": 1, "op": "rows"}]
        )
        assert faults.fire("worker.op", worker=0, op="rows") is None
        assert faults.fire("worker.op", worker=1, op="delete") is None
        assert faults.fire("worker.op", worker=1, op="rows") is not None

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR,
            json.dumps({"point": "journal.append", "action": "corrupt"}),
        )
        faults.install_from_env()
        active = faults.active_dicts()
        assert len(active) == 1
        assert active[0]["point"] == "journal.append"
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        with pytest.raises(ValueError):
            faults.install_from_env()

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            faults.install([{"point": "bogus.place"}])
