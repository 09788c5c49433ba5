"""Chaos suite: crash-safe serving end to end.

Every scenario compares a *faulted* run against an unfaulted reference
and requires property-identity — same facts (constraint, subspace,
prominence), same op counters, no accepted row lost or double-applied:

* supervised shard workers surviving injected crashes and a real
  ``SIGKILL`` mid-chunk, with deletions interleaved;
* hung workers abandoned at ``op_timeout`` and rebuilt;
* the circuit breaker moving the one shard that spent its restart
  budget into the router, while the other shards keep their workers;
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
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro import DiscoveryConfig, FactDiscoverer
from repro.api import (
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    GroupSpec,
    ShardingSpec,
    open_engine,
)
from repro.core.schema import SchemaError
from repro.extensions.snapshot import load_engine, read_snapshot, save_engine
from repro.service import JournalWriter, StreamServer
from repro.service import faults, remote
from repro.service.journal import JournalCorruptError, list_segments, read_ops
from repro.service.remote import run_worker
from repro.service.supervisor import InlineLink, ShardWorker
from tests import feed_oracle
from tests.strategies import SERVICE_SCHEMA as SCHEMA, make_rows, open_router
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=16, op_timeout=15
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=16, op_timeout=15
        )
        try:
            got = fact_keys(engine.observe_many(first))
            victim = engine._workers[0].links[0]._process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            # The next chunks land on a dead socket mid-submit: the
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=15
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=0.5
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
        # A dropped reply models a hang (a socketpair cannot lose a
        # message without dying), so it is injected on a sync op — the
        # router blocks on the missing ack, times out, rebuilds and
        # retries the delete exactly once.
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=0.5
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

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs /proc"
    )
    def test_workers_exit_when_the_router_is_killed(self):
        # SIGKILL runs no cleanup: a worker learns of its router's death
        # only as EOF, which needs the worker not to hold the router's
        # end of its own socketpair open.
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys, time\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "from tests.strategies import SERVICE_SCHEMA, make_rows, open_router\n"
            "engine = open_router(SERVICE_SCHEMA, 2, 'process')\n"
            "engine.observe_many(make_rows(8))\n"
            "print(*[w.links[0]._process.pid for w in engine._workers], flush=True)\n"
            "time.sleep(120)\n"
        )
        router = subprocess.Popen(
            [sys.executable, "-c", code, os.path.join(repo, "src"), repo],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            workers = [int(pid) for pid in router.stdout.readline().split()]
        finally:
            router.kill()
            router.wait()
        assert len(workers) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [pid for pid in workers if running(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert alive == []

    def test_crash_reason_keeps_the_exit_code(self):
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": 1,
                    "op": "rows",
                    "exit_code": 41,
                }
            ]
        )
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=15, max_restarts=0
        )
        try:
            engine.observe_many(make_rows(24))
            fell_back = [w.degraded for w in engine._workers]
            assert fell_back[0] is None
            assert "exitcode=41" in fell_back[1]
        finally:
            engine.close()

    def test_corrupted_reply_frame_restarts_the_worker(self, monkeypatch):
        # Process workers reply over the CRC-framed wire: a reply whose
        # bytes changed in flight is a FrameError at the router, which
        # the handle treats as a crash — one restart, an exact stream.
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("the patched sender reaches the workers by fork")
        rows = make_rows(60)
        expected, expected_counters, ref = reference_run(rows)
        router = os.getpid()
        rows_replies = mp.get_context("fork").Value("i", 0)
        send_msg = remote.send_msg

        def send_third_rows_reply_corrupted(sock, status, payload):
            # An ingest reply is the only 5-tuple a worker sends.
            if os.getpid() != router and isinstance(payload, tuple) and (
                len(payload) == 5
            ):
                with rows_replies.get_lock():
                    rows_replies.value += 1
                    third = rows_replies.value == 3
                if third:
                    body = bytearray(pickle.dumps((status, payload)))
                    crc = zlib.crc32(body)
                    body[-1] ^= 0xFF
                    sock.sendall(remote._FRAME.pack(len(body), crc) + body)
                    return
            send_msg(sock, status, payload)

        reasons = []
        restart = ShardWorker._restart

        def spy(self, link, crash):
            reasons.append(crash.reason)
            return restart(self, link, crash)

        monkeypatch.setattr(remote, "send_msg", send_third_rows_reply_corrupted)
        monkeypatch.setattr(ShardWorker, "_restart", spy)
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=16, op_timeout=15
        )
        try:
            got = fact_keys(engine.observe_many(rows))
            assert got == expected
            assert engine.counters.snapshot() == expected_counters
            assert engine.fault_counters()["worker_restarts"] == 1
            assert len(reasons) == 1
            assert "FrameError: frame CRC mismatch" in reasons[0]
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=15, max_restarts=0
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
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=10, op_timeout=15, max_restarts=0
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

    def test_only_the_crashed_shard_leaves_its_process(self):
        rows = make_rows(48)
        ref = FactDiscoverer(SCHEMA, algorithm="svec")
        expected = fact_keys(ref.observe_many(rows[:24]))
        ref.delete(4)
        expected += fact_keys(ref.observe_many(rows[24:]))
        ref.delete(30)
        # Shard 1's third chunk crashes it; with no restart budget the
        # handle rebuilds that one shard in the router, after a delete
        # it must replay and before one it must apply.
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
        engine = open_router(
            SCHEMA, 3, "process", chunk_size=12, op_timeout=15, max_restarts=0
        )
        try:
            processes = [w.links[0]._process for w in engine._workers]
            got = fact_keys(engine.observe_many(rows[:24]))
            engine.delete(4)
            got += fact_keys(engine.observe_many(rows[24:]))
            engine.delete(30)
            assert got == expected
            assert engine.counters.snapshot() == ref.counters.snapshot()
            crashed = engine._workers[1]
            assert [type(link) for link in crashed.links] == [InlineLink]
            assert not processes[1].is_alive()
            for w in (0, 2):
                assert engine._workers[w].links[0]._process is processes[w]
                assert processes[w].is_alive()
            tally = engine.fault_counters()
            assert tally["degraded"] == 1
            assert tally["worker_restarts"] == 0
            # A shard left out of process can still be lost: the log
            # of committed ops keeps growing for it.
            assert len(engine._oplog) == 6
        finally:
            engine.close()
            ref.close()

    def test_op_log_is_dropped_once_every_shard_is_in_router(self):
        rows = make_rows(48)
        expected, expected_counters, ref = reference_run(rows)
        faults.install(
            [
                {
                    "point": "worker.op",
                    "action": "crash",
                    "worker": w,
                    "op": "rows",
                    "after": after,
                }
                for w, after in ((0, 1), (1, 2))
            ]
        )
        engine = open_router(
            SCHEMA, 2, "process", chunk_size=12, op_timeout=15, max_restarts=0
        )
        try:
            oplog = engine._oplog
            assert fact_keys(engine.observe_many(rows)) == expected
            assert engine.counters.snapshot() == expected_counters
            assert all(w.degraded for w in engine._workers)
            # Cleared in place: every handle holds this very list.
            assert engine._oplog is oplog and oplog == []
            engine.delete(7)
            ref.delete(7)
            more = make_rows(12, start=48)
            assert fact_keys(engine.observe_many(more)) == fact_keys(
                ref.observe_many(more)
            )
            assert oplog == []
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
            engine = open_router(
                SCHEMA, 2, "remote", chunk_size=16, op_timeout=15,
                remote={"0": addresses[:2], "1": addresses[2:]},
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
            engine = open_router(
                SCHEMA, 2, "remote", chunk_size=16, op_timeout=15,
                remote={"0": addresses[:2], "1": addresses[2:]},
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
            engine = open_router(
                SCHEMA, 2, "remote", chunk_size=12, op_timeout=15,
                remote={"0": addresses[:1], "1": addresses[1:]},
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


def restart(engine):
    """Start a server on ``engine`` (``start()`` restores it from its
    spec's checkpoint and journal) and stop it without a checkpoint.
    Returns the engine, still open, and the server's stats."""

    async def run():
        server = StreamServer(engine)
        await server.start()
        await server.stop(drain=False)
        return server.stats.snapshot()

    return engine, asyncio.run(run())


def recover(spec):
    """:func:`restart` on a fresh engine over ``spec``."""
    return restart(open_engine(spec))


def checkpoint_seq(spec):
    """The journal sequence ``spec``'s checkpoint covers."""
    return read_snapshot(spec.checkpoint.path)["journal_seq"]


class TestJournalRecovery:
    def test_journal_round_trip(self, tmp_path):
        rows = make_rows(40)
        spec = service_spec(tmp_path)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            for row in rows:
                journal.append_ingest(row)
            journal.append_delete(4)
            journal.commit()
        engine, stats = recover(spec)
        expected, expected_counters, ref = reference_run(rows, deletes=(4,))
        try:
            assert stats["recovered_from"] == "journal"
            assert stats["ops_replayed"] == len(rows) + 1
            assert not stats["torn_tail"]
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
        engine, stats = recover(spec)
        try:
            assert stats["recovered_from"] == "journal"
            assert stats["ops_replayed"] == len(rows) + 1
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(3, start=77)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    @pytest.mark.parametrize(
        "deletes", [((), ()), ((0,), (5, 33))], ids=["appends", "deletes"]
    )
    @pytest.mark.parametrize(
        "composition",
        [
            {"algorithm": "svec"},
            {"algorithm": "stopdown"},
            {"algorithm": "svec", "window": 45},
            {"algorithm": "svec", "sharding": ShardingSpec(2, "serial")},
        ],
        ids=["svec", "stopdown", "window", "router"],
    )
    def test_checkpoint_plus_journal_suffix(self, tmp_path, composition, deletes):
        """Deletions on both sides of the checkpoint: a restore keeps
        every live row's tid and the arrival count, so the journal
        suffix (and every tid a client was acknowledged) names the
        same tuples as before the restart."""
        rows1, rows2 = make_rows(30), make_rows(20, start=30)
        before, after = deletes
        spec = EngineSpec(
            SCHEMA,
            checkpoint=CheckpointPolicy(
                path=str(tmp_path / "ckpt.snap"),
                journal_dir=str(tmp_path / "wal"),
            ),
            **composition,
        )
        ref = open_engine(EngineSpec(SCHEMA, **composition))
        ref.observe_many(rows1)
        for tid in before:
            ref.delete(tid)
        ref.observe_many(rows2)
        for tid in after:
            ref.delete(tid)

        async def session_one():
            server = StreamServer(open_engine(spec), batch_max=8)
            await server.start()
            await server.ingest_many(rows1)
            for tid in before:
                await server.delete(tid)
            await server.stop()  # graceful: checkpoint + journal prune
            server.engine.close()

        async def session_two():
            engine = open_engine(spec)
            server = StreamServer(engine, batch_max=8)
            await server.start()
            assert server.stats.recovered_from == "checkpoint"
            await server.ingest_many(rows2)
            for tid in after:
                await server.delete(tid)
            await server.drain()
            await server.stop(drain=False)  # killed before checkpointing
            engine.close()

        def state(engine):
            rows = [(r.tid, r.as_dict(engine.schema)) for r in engine.table]
            return rows, engine.arrivals

        asyncio.run(session_one())
        asyncio.run(session_two())
        engine, stats = recover(spec)
        try:
            assert stats["recovered_from"] == "checkpoint+journal"
            assert checkpoint_seq(spec) == len(rows1) + len(before)
            assert stats["ops_replayed"] == len(rows2) + len(after)
            assert state(engine) == state(ref)
            if not before and "window" not in composition:
                # The same op sequence reached both engines.
                assert engine.counters.snapshot() == ref.counters.snapshot()
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
        engine, stats = recover(
            EngineSpec(SCHEMA, algorithm="svec", checkpoint=policy)
        )
        with engine:
            assert stats["recovered_from"] == "checkpoint" and len(engine) == 4
            assert engine.spec.checkpoint == policy
            assert StreamServer(engine).checkpoint_policy == policy

    def test_fresh_engine_resumes_the_durable_state(self, tmp_path):
        """A server started on a fresh engine over an existing
        checkpoint and journal continues that history: the next row
        gets the next tid, and the final checkpoint keeps every row
        (it used to start empty, number the row 0 and overwrite the
        checkpoint with it)."""
        spec = service_spec(tmp_path)
        rows = make_rows(4)

        async def serve(rows):
            server = StreamServer(open_engine(spec))
            await server.start()
            events = [await server.ingest_wait(row) for row in rows]
            await server.stop()
            server.engine.close()
            return [event.tid for event in events], server.stats

        assert asyncio.run(serve(rows[:3]))[0] == [0, 1, 2]
        tids, stats = asyncio.run(serve(rows[3:]))
        assert tids == [3]
        assert stats.recovered_from == "checkpoint"
        assert stats.last_error is None
        with load_engine(spec.checkpoint.path) as engine:
            assert [record.tid for record in engine.table] == [0, 1, 2, 3]
            assert engine.arrivals == 4

    def test_unreadable_checkpoint_is_counted_and_replayed(self, tmp_path):
        """A torn checkpoint beside a journal that still starts at
        sequence 1: a full replay restores every row, and the torn file
        is a ``checkpoint_failures`` naming it, not a silent fallback."""
        rows = make_rows(5)
        spec = service_spec(tmp_path)
        with JournalWriter(spec.checkpoint.journal_dir) as journal:
            for row in rows:
                journal.append_ingest(row)
        with open(spec.checkpoint.path, "w") as fh:
            fh.write("{torn")
        expected, expected_counters, ref = reference_run(rows)
        engine, stats = recover(spec)
        try:
            assert len(engine) == len(rows)
            assert engine.counters.snapshot() == expected_counters
            assert stats["recovered_from"] == "journal"
            assert stats["ops_replayed"] == len(rows)
            assert stats["checkpoint_failures"] == 1
            cause = stats["failure_causes"]["checkpoint_failures"]
            assert "ckpt.snap" in cause
            assert stats["last_error"] == cause
        finally:
            engine.close()
            ref.close()

    def test_unreadable_checkpoint_over_a_pruned_journal_is_refused(
        self, tmp_path, capsys
    ):
        """A graceful stop prunes every journal segment its checkpoint
        covers; tear that checkpoint and no full replay is left, so
        ``start()`` (and ``serve``, with exit 2) refuses rather than
        serve an empty table."""
        from repro.cli import main

        spec = service_spec(tmp_path)

        async def serve():
            server = StreamServer(open_engine(spec))
            await server.start()
            await server.ingest_many(make_rows(6))
            await server.stop()
            server.engine.close()

        asyncio.run(serve())
        segments = list_segments(spec.checkpoint.journal_dir)
        assert [seq for seq, _ in segments] == [7]
        with open(spec.checkpoint.path, "w") as fh:
            fh.write("{torn")
        with open_engine(spec) as engine:
            server = StreamServer(engine)
            with pytest.raises(ValueError, match="ckpt.snap.*unreadable"):
                asyncio.run(server.start())
            assert len(engine) == 0
        rc = main(
            ["serve", "-d", "d0,d1", "-m", "m0,m1", "--algorithm", "svec",
             "--checkpoint", spec.checkpoint.path,
             "--journal-dir", spec.checkpoint.journal_dir]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: checkpoint" in err and "ckpt.snap" in err
        assert "# service stats" not in err

    @pytest.mark.parametrize(
        "checkpointed", [True, False], ids=["checkpoint", "journal"]
    )
    def test_non_empty_engine_over_durable_state_is_refused(
        self, tmp_path, checkpointed
    ):
        """Replaying the durable state into an engine that already
        holds rows would apply them twice: ``start()`` refuses, naming
        the path, and applies nothing."""
        spec = service_spec(tmp_path)
        rows = make_rows(4)

        async def serve():
            server = StreamServer(open_engine(spec))
            await server.start()
            await server.ingest_many(rows[:3])
            await server.drain()
            await server.stop(drain=checkpointed)
            server.engine.close()

        asyncio.run(serve())
        assert os.path.exists(spec.checkpoint.path) == checkpointed
        where = "ckpt.snap" if checkpointed else "wal"
        with open_engine(spec) as engine:
            engine.observe_many(rows[3:])
            with pytest.raises(ValueError, match=f"{where}.*already holds 1"):
                asyncio.run(StreamServer(engine).start())
            assert [record.tid for record in engine.table] == [0]

    def test_checkpoint_row_the_engine_refuses_aborts_start(self, tmp_path):
        """The checkpoint is restored whole or not at all: a row the
        engine refuses aborts ``start()`` with that row's error."""
        spec = service_spec(tmp_path)
        with open_engine(spec) as engine:
            engine.observe_many(make_rows(3))
            engine.snapshot()
        with open(spec.checkpoint.path) as fh:
            doc = json.load(fh)
        doc["rows"][1]["m0"] = "oops"
        with open(spec.checkpoint.path, "w") as fh:
            json.dump(doc, fh)
        with open_engine(spec) as engine:
            server = StreamServer(engine)
            with pytest.raises(SchemaError, match="oops"):
                asyncio.run(server.start())
            assert server.journal is None

    @pytest.mark.parametrize("delete", [True, False], ids=["delete", "tail"])
    def test_replay_keeps_every_healthy_op(self, tmp_path, delete):
        """A row that no longer applies costs itself only: the rows
        after it and a later delete still apply, and it keeps its tid,
        so the delete names the tuple it named when it was written."""
        a, c = make_rows(2)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            journal.append_ingest(a)
            journal.append_ingest({"m0": "oops"})
            journal.append_ingest(c)
            if delete:
                journal.append_delete(0)
            journal.commit()
        ref = FactDiscoverer(SCHEMA, algorithm="svec")
        ref.observe(a)
        ref.resume_at(2)
        ref.observe(c)
        if delete:
            ref.delete(0)
        engine, stats = recover(service_spec(tmp_path))
        try:
            assert [record.tid for record in engine.table] == (
                [2] if delete else [0, 2]
            )
            assert engine.arrivals == 3
            assert stats["replay_errors"] == 1
            cause = stats["failure_causes"]["replay_errors"]
            assert cause.startswith("seq 2: SchemaError")
            assert stats["ops_replayed"] == (3 if delete else 2)
            assert engine.counters.snapshot() == ref.counters.snapshot()
            probe = make_rows(3, start=5)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()

    def test_replay_counts_an_applied_row_whose_facts_were_lost(self, tmp_path):
        """The block stops just short of row 2 and raises; retried
        alone, row 2 applies and then raises.  It is in the table, so
        it counts as replayed, not as a failure."""
        rows = make_rows(4)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            for row in rows:
                journal.append_ingest(row)
            journal.commit()
        engine = open_engine(service_spec(tmp_path))
        inner = engine.facts_for_many
        seen = []

        def facts_for_many(part):
            seen.append(len(part))
            if rows[2] not in part:
                return inner(part)
            inner(part if len(part) == 1 else part[: part.index(rows[2])])
            raise ValueError("facts lost")

        engine.facts_for_many = facts_for_many
        engine, stats = restart(engine)
        assert seen == [4, 1, 1]
        assert stats["replay_errors"] == 0
        assert stats["ops_replayed"] == len(rows)
        assert [record.tid for record in engine.table] == [0, 1, 2, 3]
        ref = FactDiscoverer(SCHEMA, algorithm="svec")
        ref.observe_many(rows)
        assert engine.counters.snapshot() == ref.counters.snapshot()

    def test_torn_tail_is_dropped_and_reported(self, tmp_path):
        rows = make_rows(25)
        spec = service_spec(tmp_path)
        with JournalWriter(str(tmp_path / "wal")) as journal:
            for row in rows:
                journal.append_ingest(row)
        segments = sorted((tmp_path / "wal").iterdir())
        with open(segments[-1], "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\x99")  # crash mid-append
        engine, stats = recover(spec)
        expected, expected_counters, ref = reference_run(rows)
        try:
            assert stats["torn_tail"]
            assert stats["ops_replayed"] == len(rows)
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
        engine, stats = recover(spec)
        try:
            assert stats["torn_tail"]
            assert stats["ops_replayed"] == k
            assert engine.counters.snapshot() == expected_counters
            probe = make_rows(2, start=66)
            assert fact_keys(engine.observe_many(probe)) == fact_keys(
                ref.observe_many(probe)
            )
        finally:
            engine.close()
            ref.close()


class TestJournalOrigin:
    """Where a journal begins.  Its first segment records the engine
    state its writer opened on, so a journal begun after a checkpoint
    is never replayed as the whole history: 3 rows served without a
    journal and checkpointed, then 2 more with a journal and no
    checkpoint.  And its numbering goes on past the checkpoint's
    ``journal_seq``, so replay never skips a new op."""

    def three_then_two(self, tmp_path):
        path = str(tmp_path / "ck.json")
        rows = make_rows(5)

        async def serve(spec, rows, drain):
            server = StreamServer(open_engine(spec))
            await server.start()
            for row in rows:
                await server.ingest_wait(row)
            await server.stop(drain=drain)
            server.engine.close()

        spec = EngineSpec(SCHEMA, algorithm="svec")
        first = replace(spec, checkpoint=CheckpointPolicy(path))
        asyncio.run(serve(first, rows[:3], True))
        spec = replace(
            spec,
            checkpoint=CheckpointPolicy(path, journal_dir=str(tmp_path / "wal")),
        )
        asyncio.run(serve(spec, rows[3:], False))
        return spec, rows

    def test_intact_checkpoint_over_a_later_journal_restores_every_row(
        self, tmp_path
    ):
        spec, rows = self.three_then_two(tmp_path)
        engine, stats = recover(spec)
        with engine:
            assert stats["recovered_from"] == "checkpoint+journal"
            assert stats["ops_replayed"] == 2
            assert [record.tid for record in engine.table] == [0, 1, 2, 3, 4]
            assert engine.arrivals == 5

    @pytest.mark.parametrize("damage", ["unreadable", "missing"])
    def test_lost_checkpoint_over_a_later_journal_is_refused(
        self, tmp_path, capsys, damage
    ):
        """It used to replay the 2 journaled rows as the whole table,
        numbered from tid 0 again."""
        from repro.cli import main

        spec, rows = self.three_then_two(tmp_path)
        path, wal = spec.checkpoint.path, spec.checkpoint.journal_dir
        if damage == "unreadable":
            with open(path, "w") as fh:
                fh.write("{torn")
        else:
            os.remove(path)
        with open_engine(spec) as engine:
            with pytest.raises(ValueError, match=f"ck.json' is {damage}"):
                asyncio.run(StreamServer(engine).start())
            assert len(engine) == 0
        rc = main(
            ["serve", "-d", "d0,d1", "-m", "m0,m1", "--algorithm", "svec",
             "--checkpoint", path, "--journal-dir", wal]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: checkpoint" in err and "begun after a checkpoint" in err

    def test_an_emptied_journal_numbers_past_the_checkpoint(self, tmp_path):
        """5 rows served and checkpointed (``journal_seq`` 5), the
        journal directory removed, 3 more rows acknowledged and the
        server killed.  A fresh journal used to number them 1 to 3,
        which replay skips as covered: the restart served 5 rows and
        counted no failure."""
        import shutil

        spec = service_spec(tmp_path)
        rows = make_rows(8)

        async def serve(rows, drain):
            server = StreamServer(open_engine(spec))
            await server.start()
            for row in rows:
                await server.ingest_wait(row)
            await server.stop(drain=drain)
            server.engine.close()

        asyncio.run(serve(rows[:5], True))
        assert checkpoint_seq(spec) == 5
        shutil.rmtree(spec.checkpoint.journal_dir)
        asyncio.run(serve(rows[5:], False))
        engine, stats = recover(spec)
        with engine:
            assert stats["recovered_from"] == "checkpoint+journal"
            assert stats["ops_replayed"] == 3
            assert [record.tid for record in engine.table] == list(range(8))

    def test_torn_checkpoint_over_a_journal_from_an_empty_engine_replays(
        self, tmp_path
    ):
        """A journal a server began on an empty engine holds the whole
        history: a torn checkpoint beside it is counted, and replayed
        around."""
        spec = service_spec(tmp_path)
        rows = make_rows(4)

        async def killed():
            server = StreamServer(open_engine(spec))
            await server.start()
            for row in rows:
                await server.ingest_wait(row)
            await server.stop(drain=False)
            server.engine.close()

        asyncio.run(killed())
        with open(spec.checkpoint.path, "w") as fh:
            fh.write("{torn")
        engine, stats = recover(spec)
        with engine:
            assert stats["recovered_from"] == "journal"
            assert stats["checkpoint_failures"] == 1
            assert [record.tid for record in engine.table] == [0, 1, 2, 3]


class _CountingFile:
    """A journal segment handle that tallies its ``flush`` calls."""

    def __init__(self, inner, tally):
        self._inner, self._tally = inner, tally

    def flush(self):
        self._tally["flush"] += 1
        return self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestJournalSyscalls:
    """The journal's cost on the ingest path is its syscalls, counted
    exactly: ``append`` only buffers (no flush, no fsync) off the
    rotation path, and one ``commit`` is one flush plus one ``fsync``
    under ``fsync="batch"`` and none under ``"never"``."""

    @pytest.mark.parametrize("policy, fsyncs", [("never", 0), ("batch", 1)])
    def test_journal_syscalls_per_commit(
        self, tmp_path, monkeypatch, policy, fsyncs
    ):
        tally = {"flush": 0, "fsync": 0}
        fsync = os.fsync

        def counted_fsync(fd):
            tally["fsync"] += 1
            return fsync(fd)

        with JournalWriter(str(tmp_path / "wal"), fsync=policy) as journal:
            monkeypatch.setattr(os, "fsync", counted_fsync)
            journal._fh = _CountingFile(journal._fh, tally)
            for row in make_rows(64):
                journal.append_ingest(row)
            journal.append_delete(3)
            assert tally == {"flush": 0, "fsync": 0}
            journal.commit()
            assert tally == {"flush": 1, "fsync": fsyncs}
            journal.commit()  # nothing uncommitted: no syscall at all
            assert tally == {"flush": 1, "fsync": fsyncs}
        ops, torn = read_ops(str(tmp_path / "wal"))
        assert len(ops) == 65 and not torn


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
            stats = await server.read_stats()
            live_counters = server.engine.counters.snapshot()
            await server.stop(drain=False)
            server.engine.close()
            return stats, live_counters

        stats, live_counters = asyncio.run(run())
        assert stats["rows_quarantined"] == len(poison)
        assert stats["processed_rows"] == len(healthy)
        # Each poison row lands in the dead-letter file exactly once,
        # with enough context to retry it by hand.
        entries = [json.loads(line) for line in dead.read_text().splitlines()]
        assert [e["row"] for e in entries] == poison
        assert all(e["error_type"] == "ValueError" for e in entries)
        # Accepted rows were neither lost nor double-applied: the live
        # state and the journal-recovered state both equal the
        # poison-free reference.
        assert live_counters == expected_counters
        engine, stats = recover(spec)
        try:
            assert stats["ops_replayed"] == len(healthy) + 1
            assert not stats["replay_errors"]
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
        snap = server.stats.snapshot()
        assert snap["rows_quarantined"] == 1
        assert snap["rows_lost"] == len(lost)
        events = results[:13] + results[14:]
        assert [event.tid for event in events] == list(range(len(healthy)))
        assert [[fact_key(f) for f in e.facts] for e in events] == expected
        assert server.feeds.applied_arrivals == len(healthy)
        assert_same(server.feeds, oracle)
        assert live_counters == ref.counters.snapshot()

    def test_lost_row_under_an_aggregate_engine_is_acked(self):
        """A row that applies and then raises under an aggregate engine
        loses its facts only: it is acked with its tid (its record is
        the live aggregate tuple, not one rebuilt from the base row),
        the next row is accepted, and the server stays healthy."""
        group = GroupSpec(("d0",), {"total": ("m0", "sum")})
        spec = EngineSpec(SCHEMA, algorithm="svec", aggregate=group)
        rows = make_rows(3)
        engine = open_engine(spec)
        inner = engine.facts_for_many

        def facts_for_many(part):
            fact_sets = inner(part)
            if rows[1] in part:
                raise ValueError("facts lost after the row applied")
            return fact_sets

        engine.facts_for_many = facts_for_many

        async def run():
            server = StreamServer(engine)
            await server.start()
            events = [await server.ingest_wait(row) for row in rows]
            health = server.health()
            await server.stop()
            return server, events, health

        server, events, health = asyncio.run(run())
        engine.close()
        ref = open_engine(spec)
        expected = [fact_key(f) for f in ref.facts_for_many(rows)[2].ranked()]
        lost = events[1].record.as_dict(ref.discovery_schema)
        ref.close()
        assert [event.tid for event in events] == [0, 1, 2]
        assert events[1].facts == []
        assert lost == {"d0": rows[1]["d0"], "total": rows[1]["m0"]}
        assert [fact_key(f) for f in events[2].facts] == expected
        assert health["ok"], health
        snap = server.stats.snapshot()
        assert snap["last_error"] == "facts lost after the row applied"
        assert (snap["rows_lost"], snap["rows_quarantined"]) == (1, 0)

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
        snap = server.stats.snapshot()
        assert snap["last_error"] == "selection failed"
        assert snap["failure_causes"]["rows_lost"] == "selection failed"
        assert snap["rows_lost"] == 1

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

    @pytest.mark.parametrize(
        "point, action",
        [
            ("worker.reply", "corrupt"),
            ("worker.op", "corrupt"),
            ("journal.append", "crash"),
            ("checkpoint.write", "drop"),
        ],
    )
    def test_action_its_hook_ignores_is_rejected(self, point, action):
        # Such a fault would fire and change nothing: a chaos test
        # built on it would pass without testing anything.
        with pytest.raises(ValueError, match="not honoured") as info:
            faults.install([{"point": point, "action": action}])
        for allowed in faults.FAULT_ACTIONS[point]:
            assert repr(allowed) in str(info.value)
        assert faults.active() is None
