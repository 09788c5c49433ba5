"""Remote shard cluster: wire protocol, replica sets, operator surface.

The contract under test mirrors ``tests/test_sharding.py``: a
``mode="remote"`` :class:`ShardedDiscoverer` driving socket workers
must be *property-identical* to the unsharded ``svec`` engine — same
facts, same scores, same emission order, same op-counter totals —
including deletion-interleaved and None-dimension streams, across
replica failover and whole-set degrade.  Workers run
in-process on ephemeral loopback ports (real sockets, real frames; the
subprocess/SIGKILL variants live in ``tests/test_fault_tolerance.py``).
"""

from __future__ import annotations

import asyncio
import pickle
import random
import socket
import struct
import sys
import threading
import zlib
from contextlib import contextmanager

import pytest

from repro import FactDiscoverer, TableSchema
from repro.api import EngineSpec, ShardingSpec, open_engine
from repro.core.config import DiscoveryConfig
from repro.core.constraint import Constraint
from repro.service import StreamServer
from repro.service.remote import (
    PROTOCOL_VERSION,
    FrameError,
    SocketLink,
    SocketWorkerServer,
    _FRAME,
    cluster_status,
    connect_replicas,
    parse_address,
    probe_worker,
    recv_msg,
    send_msg,
    shard_sort_key,
)
from repro.service.sharding import (
    canonical_subspace_keys,
    partition_subspaces,
)
from repro.service.supervisor import WorkerCrashed, WorkerGaveUp
from tests.strategies import open_router, seeded_rows

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def fact_key(fact):
    return (fact.constraint.values, fact.subspace, fact.prominence)


def emitted(fact_sets):
    return [[fact_key(f) for f in fs] for fs in fact_sets]


def remote_router(remote, config=None, **sharding):
    """A router over the placement map ``remote``, one worker per shard."""
    return open_router(
        SCHEMA, len(remote), "remote", config, remote=remote, **sharding
    )


@contextmanager
def local_cluster(replicas_per_shard):
    """Spin up in-process socket workers; yields (placement_map, servers
    keyed like the map)."""
    servers = {}
    try:
        remote = {}
        for shard, n_replicas in enumerate(replicas_per_shard):
            pool = [SocketWorkerServer().start() for _ in range(n_replicas)]
            servers[str(shard)] = pool
            remote[str(shard)] = [s.address for s in pool]
        yield remote, servers
    finally:
        for pool in servers.values():
            for server in pool:
                server.stop()


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestFrames:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = [{"d0": "x", "m0": 1, "d1": None}, ("t", 2.5)]
            send_msg(a, "rows", payload)
            assert recv_msg(b) == ("rows", payload)
        finally:
            a.close()
            b.close()

    def test_crc_mismatch_rejected(self):
        a, b = socket.socketpair()
        try:
            body = pickle.dumps(("op", 1))
            a.sendall(_FRAME.pack(len(body), zlib.crc32(body) ^ 0xFF) + body)
            with pytest.raises(FrameError, match="CRC"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            body = pickle.dumps(("op", 1))
            a.sendall(
                _FRAME.pack(len(body) + 7, zlib.crc32(body) & 0xFFFFFFFF)
                + body
            )
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_implausible_length_rejected_before_allocating(self):
        a, b = socket.socketpair()
        try:
            a.sendall(_FRAME.pack(2**31, 0))
            with pytest.raises(FrameError, match="exceeds"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7711") == ("10.0.0.5", 7711)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(":123")


class TestHandshake:
    def test_version_mismatch_is_refused(self):
        server = SocketWorkerServer().start()
        try:
            sock = socket.create_connection(
                parse_address(server.address), timeout=5
            )
            try:
                send_msg(sock, "hello", {"version": PROTOCOL_VERSION + 1})
                op, payload = recv_msg(sock)
                assert op == "error"
                assert "version" in payload
            finally:
                sock.close()
        finally:
            server.stop()

    def test_handshake_reports_version_and_pid(self):
        server = SocketWorkerServer().start()
        try:
            sock = socket.create_connection(
                parse_address(server.address), timeout=5
            )
            try:
                send_msg(sock, "hello", {"version": PROTOCOL_VERSION})
                op, payload = recv_msg(sock)
                assert op == "hello"
                assert payload["version"] == PROTOCOL_VERSION
                assert payload["configured"] is False
            finally:
                sock.close()
        finally:
            server.stop()

    def test_op_before_configure_is_an_error_reply(self):
        server = SocketWorkerServer().start()
        try:
            link = SocketLink(0, server.address, 5)
            with pytest.raises(WorkerCrashed, match="not configured"):
                link.request("counters")
            link.close()
        finally:
            server.stop()

    def test_unreachable_address_raises_worker_crashed(self):
        # Grab a port that is then closed again.
        probe = socket.create_server(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        with pytest.raises(WorkerCrashed, match="cannot connect"):
            SocketLink(0, address, 1, connect_timeout=1)

    def test_op_counts_survive_concurrent_connections(self):
        # Every connection thread tallies into one dict; a tally made
        # outside the engine lock loses updates under contention.
        clients, probes = 8, 150
        server = SocketWorkerServer().start()
        links = [SocketLink(i, server.address, 10) for i in range(clients)]

        def hammer(link):
            for _ in range(probes):
                link.request("stats")

        threads = [
            threading.Thread(target=hammer, args=(link,)) for link in links
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert server.op_counts["stats"] == clients * probes
        finally:
            sys.setswitchinterval(interval)
            for link in links:
                link.close()
            server.stop()

    def test_probe_worker_stats(self):
        server = SocketWorkerServer().start()
        try:
            stats = probe_worker(server.address, timeout=5)
            assert stats["version"] == PROTOCOL_VERSION
            assert stats["configured"] is False
            assert stats["rows"] == 0
            assert stats["rtt_seconds"] >= 0
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
class TestRemoteSpec:
    def test_remote_requires_remote_mode(self):
        with pytest.raises(ValueError, match="mode='remote'"):
            ShardingSpec(workers=1, mode="process", remote={"0": ["h:1"]})

    def test_remote_mode_requires_map(self):
        with pytest.raises(ValueError, match="placement map"):
            ShardingSpec(workers=2, mode="remote")

    def test_worker_count_must_match_shards(self):
        with pytest.raises(ValueError, match="must equal"):
            ShardingSpec(workers=3, mode="remote", remote={"0": ["h:1"]})

    def test_addresses_validated(self):
        with pytest.raises(ValueError, match="not 'host:port'"):
            ShardingSpec(workers=1, mode="remote", remote={"0": ["nope"]})
        with pytest.raises(ValueError, match="at least one"):
            ShardingSpec(workers=1, mode="remote", remote={"0": []})

    def test_ports_outside_the_range_rejected(self):
        with pytest.raises(ValueError, match="1-65535"):
            ShardingSpec(workers=1, mode="remote", remote={"0": ["h:70000"]})
        with pytest.raises(ValueError, match="1-65535"):
            parse_address("h:0")

    def test_spec_json_roundtrip(self):
        spec = EngineSpec(
            SCHEMA,
            algorithm="svec",
            sharding=ShardingSpec(
                workers=2,
                mode="remote",
                remote={"0": ["127.0.0.1:7711"], "1": ["127.0.0.1:7712"]},
            ),
        )
        doc = spec.to_dict()
        assert doc["sharding"]["remote"] == {
            "0": ["127.0.0.1:7711"],
            "1": ["127.0.0.1:7712"],
        }
        assert EngineSpec.from_dict(doc).to_dict() == doc

    def test_engine_requires_map_in_remote_mode(self):
        with pytest.raises(ValueError, match="placement map"):
            open_router(SCHEMA, 2, "remote")

    def test_shard_sort_key_orders_numerically(self):
        assert sorted(["10", "2", "b", "a"], key=shard_sort_key) == [
            "2",
            "10",
            "a",
            "b",
        ]


class TestOneFramePerChunk:
    """The wire's cost is its frames, counted exactly: a ``rows`` chunk
    reaches each shard as one ``send_msg`` over one ``pickle.dumps`` —
    not a frame per row, and not a payload pickled twice."""

    def test_one_frame_per_chunk(self, monkeypatch):
        from repro.service import remote

        rows = seeded_rows(48, 1, (3, 2))
        router = threading.get_ident()
        sends, dumps = [], []
        send, pickle_dumps = remote.send_msg, pickle.dumps

        def counted_send(sock, op, payload):
            if threading.get_ident() == router:
                sends.append((sock.fileno(), op))
            return send(sock, op, payload)

        def counted_dumps(obj, *args, **kwargs):
            if threading.get_ident() == router:
                dumps.append(obj)
            return pickle_dumps(obj, *args, **kwargs)

        with local_cluster([1, 1]) as (placement, _servers):
            engine = remote_router(placement, chunk_size=len(rows))
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(remote, "send_msg", counted_send)
                    patch.setattr(pickle, "dumps", counted_dumps)
                    engine.observe_many(rows)
            finally:
                engine.close()
        assert [op for _, op in sends] == ["rows", "rows"]
        assert len({fd for fd, _ in sends}) == 2  # one frame per shard
        assert len(dumps) == 2


# ----------------------------------------------------------------------
# Conformance: property-identical to unsharded svec
# ----------------------------------------------------------------------
class TestRemoteParity:
    def _assert_parity(self, rows, config=None, delete_seed=None):
        reference = FactDiscoverer(SCHEMA, algorithm="svec", config=config)
        with local_cluster([1, 1]) as (remote, _servers):
            engine = remote_router(remote, config, chunk_size=16)
            try:
                if delete_seed is None:
                    expected = emitted(reference.observe_many(rows))
                    got = emitted(engine.observe_many(rows))
                else:
                    rng = random.Random(delete_seed)
                    expected, got, live = [], [], []
                    for i, row in enumerate(rows):
                        expected.append([fact_key(f) for f in reference.observe(row)])
                        got.append([fact_key(f) for f in engine.observe(row)])
                        live.append(i)
                        if len(live) > 1 and rng.random() < 0.35:
                            victim = live.pop(rng.randrange(len(live)))
                            reference.delete(victim)
                            engine.delete(victim)
                assert got == expected
                assert (
                    engine.counters.snapshot()
                    == reference.counters.snapshot()
                )
                assert engine.fault_counters()["degraded"] == 0
            finally:
                engine.close()
                reference.close()

    def test_shared_stream_parity(self):
        self._assert_parity(seeded_rows(90, 1, (3, 2)))

    def test_none_dimension_parity(self):
        self._assert_parity(seeded_rows(70, 2, (3, 2), none_frac=0.3))

    def test_deletion_interleaved_parity(self):
        self._assert_parity(seeded_rows(40, 3, (3, 2)), delete_seed=7)

    @pytest.mark.parametrize(
        "config",
        [
            DiscoveryConfig(max_bound_dims=1),
            DiscoveryConfig(tau=2.0),
            DiscoveryConfig(top_k=2),
        ],
        ids=["dhat", "tau", "topk"],
    )
    def test_config_knob_parity(self, config):
        self._assert_parity(seeded_rows(50, 4, (3, 2)), config=config)

    def test_open_engine_builds_remote_composition(self):
        rows = seeded_rows(40, 5, (3, 2))
        reference = FactDiscoverer(SCHEMA, algorithm="svec")
        expected = emitted(reference.observe_many(rows))
        with local_cluster([1, 1]) as (remote, _servers):
            spec = EngineSpec(
                SCHEMA,
                algorithm="svec",
                sharding=ShardingSpec(
                    workers=2, mode="remote", remote=remote
                ),
            )
            with open_engine(spec) as engine:
                assert engine.mode == "remote"
                assert emitted(engine.observe_many(rows)) == expected
                derived = engine.spec
                assert derived.sharding.mode == "remote"
                assert derived.sharding.remote == remote
        reference.close()

    def test_query_pushdown_parity(self):
        rows = seeded_rows(60, 6, (3, 2))
        reference = FactDiscoverer(SCHEMA, algorithm="svec")
        reference.facts_for_many(rows)
        with local_cluster([1, 2]) as (remote, _servers):
            engine = remote_router(remote, chunk_size=16)
            try:
                engine.facts_for_many(rows)
                ref_q = reference.query()
                eng_q = engine.query()
                for constraint in (
                    Constraint(("a0", None)),
                    Constraint((None, "b1")),
                    Constraint(("a1", "b0")),
                ):
                    for subspace in (1, 2, 3):
                        assert sorted(
                            r.tid for r in eng_q.skyline(constraint, subspace)
                        ) == sorted(
                            r.tid for r in ref_q.skyline(constraint, subspace)
                        )
                        assert sorted(
                            r.tid
                            for r in eng_q.skyband(constraint, subspace, 2)
                        ) == sorted(
                            r.tid
                            for r in ref_q.skyband(constraint, subspace, 2)
                        )
                        assert eng_q.prominence(
                            constraint, subspace
                        ) == ref_q.prominence(constraint, subspace)
                    assert eng_q.context_size(constraint) == ref_q.context_size(
                        constraint
                    )
            finally:
                engine.close()
                reference.close()


# ----------------------------------------------------------------------
# Replica sets: write-all / read-any, failover, degrade
# ----------------------------------------------------------------------
class TestReplicaSets:
    def test_writes_reach_every_replica(self):
        rows = seeded_rows(48, 8, (3, 2))
        with local_cluster([2, 2]) as (remote, servers):
            engine = remote_router(remote, chunk_size=12)
            try:
                engine.observe_many(rows)
                for pool in servers.values():
                    applied = {server.rows_applied for server in pool}
                    assert applied == {len(rows)}
            finally:
                engine.close()

    def test_reads_round_robin_across_replicas(self):
        rows = seeded_rows(30, 9, (3, 2))
        with local_cluster([2]) as (remote, servers):
            engine = remote_router(remote)
            try:
                engine.facts_for_many(rows)
                for _ in range(4):
                    engine.counters  # noqa: B018 - round-robins reads
                counts = [
                    server.op_counts.get("counters", 0)
                    for server in servers["0"]
                ]
                assert all(count >= 1 for count in counts)
            finally:
                engine.close()

    def test_primary_loss_promotes_replica_mid_stream(self):
        rows = seeded_rows(80, 10, (3, 2))
        reference = FactDiscoverer(SCHEMA, algorithm="svec")
        expected = emitted(reference.observe_many(rows))
        with local_cluster([2, 1]) as (remote, _servers):
            engine = remote_router(remote, chunk_size=16)
            try:
                got = emitted(engine.observe_many(rows[:40]))
                # Sever the router's connection to shard 0's primary:
                # the next chunk fails over to the surviving replica,
                # which already holds identical state.
                engine._workers[0].links[0].abandon()
                got += emitted(engine.observe_many(rows[40:]))
                assert got == expected
                assert (
                    engine.counters.snapshot()
                    == reference.counters.snapshot()
                )
                tallies = engine.fault_counters()
                assert tallies["replica_failovers"] >= 1
                assert tallies["degraded"] == 0
                assert len(engine._workers[0].replicas) == 1
            finally:
                engine.close()
                reference.close()

    def test_whole_set_loss_degrades_without_losing_facts(self):
        rows = seeded_rows(60, 11, (3, 2))
        reference = FactDiscoverer(SCHEMA, algorithm="svec")
        expected = emitted(reference.observe_many(rows))
        reference.delete(5)
        with local_cluster([1, 1]) as (remote, _servers):
            engine = remote_router(remote, chunk_size=16)
            try:
                got = emitted(engine.observe_many(rows[:32]))
                # Kill the only replica of shard 1: the set is lost and
                # the router must degrade to in-router execution.
                engine._workers[1].links[0].abandon()
                got += emitted(engine.observe_many(rows[32:]))
                engine.delete(5)
                assert got == expected
                assert (
                    engine.counters.snapshot()
                    == reference.counters.snapshot()
                )
                assert engine.fault_counters()["degraded"] == 1
            finally:
                engine.close()
                reference.close()

    def test_lost_replica_leaves_membership_and_stats(self):
        rows = seeded_rows(30, 18, (3, 2))
        with local_cluster([2]) as (remote, _servers):
            engine = remote_router(remote)
            try:
                engine.facts_for_many(rows[:15])
                replica_set = engine._workers[0]
                assert replica_set.replicas == remote["0"]
                replica_set.links[0].abandon()
                engine.facts_for_many(rows[15:])
                # The survivor was promoted; the set only ever shrinks.
                assert replica_set.replicas == remote["0"][1:]
                entry = engine.shard_stats()[0]
                assert entry["replicas"] == remote["0"][1:]
                assert entry["failovers"] == 1
                # A set fails over instead of restarting or re-sending.
                assert entry["restarts"] == 0
                assert entry["chunks_retried"] == 0
                assert engine.fault_counters() == {
                    "worker_restarts": 0,
                    "chunks_retried": 0,
                    "replica_failovers": 1,
                    "degraded": 0,
                }
            finally:
                engine.close()

    def test_connect_replicas_needs_one_reachable(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        spec = {
            "dimensions": ("d0", "d1"),
            "measures": ("m0", "m1"),
            "preferences": {},
            "config": {},
            "shard": [3],
            "score": True,
            "worker_index": 0,
        }
        with pytest.raises(WorkerGaveUp, match="no replica reachable"):
            connect_replicas(0, [dead], spec, timeout=1)


# ----------------------------------------------------------------------
# Shard assignment: the static partition, fixed at construction
# ----------------------------------------------------------------------
class TestShardAssignment:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_assignment_is_the_partition_and_stays_fixed(self, n_workers):
        rows = seeded_rows(24, 19, (3, 2))
        keys = canonical_subspace_keys(SCHEMA)
        reference = FactDiscoverer(SCHEMA, algorithm="svec")
        engine = open_router(SCHEMA, n_workers)
        try:
            shards = partition_subspaces(keys, n_workers)
            assert engine.shards == shards
            assert engine._shard_of == {
                key: w for w, shard in enumerate(shards) for key in shard
            }
            details = engine.shard_stats()
            assert [entry["keys"] for entry in details] == [
                len(shard) for shard in shards
            ]
            assert [entry["root"] for entry in details] == [True] + [
                False
            ] * (len(shards) - 1)
            # The root key weighs two node keys.
            assert sum(entry["weight"] for entry in details) == len(keys) + 1
            expected = emitted(reference.observe_many(rows))
            assert emitted(engine.observe_many(rows)) == expected
            engine.delete(3)
            reference.delete(3)
            assert engine.shards == shards
            assert engine.counters.snapshot() == reference.counters.snapshot()
        finally:
            engine.close()
            reference.close()


# ----------------------------------------------------------------------
# Operator surface: shard stats + cluster status
# ----------------------------------------------------------------------
class TestOperatorSurface:
    def test_shard_stats_breakdown(self):
        rows = seeded_rows(40, 16, (3, 2))
        with local_cluster([2, 1]) as (remote, _servers):
            engine = remote_router(remote, chunk_size=16)
            try:
                engine.facts_for_many(rows)
                details = engine.shard_stats()
                for entry in details:
                    assert set(entry) == {
                        "shard",
                        "keys",
                        "root",
                        "weight",
                        "busy_seconds",
                        "queue_depth",
                        "restarts",
                        "chunks_retried",
                        "replicas",
                        "failovers",
                    }
                assert [entry["shard"] for entry in details] == [0, 1]
                assert sum(entry["keys"] for entry in details) == 3
                assert [entry["root"] for entry in details] == [True, False]
                assert len(details[0]["replicas"]) == 2
                # The merge recorded every shard's work.
                assert all(entry["busy_seconds"] > 0 for entry in details)
                assert engine.stats()["shards"] == details
            finally:
                engine.close()
        serial = open_router(SCHEMA)
        try:
            serial.facts_for_many(rows)
            assert set(serial.stats()) == {
                "kind",
                "rows",
                "score",
                "counters",
                "workers",
                "mode",
                "utilization",
                "shards",
                "worker_restarts",
                "chunks_retried",
                "replica_failovers",
                "degraded",
            }
        finally:
            serial.close()

    def test_service_stats_surfaces_shard_details(self):
        """The server's stats reply carries the router's per-shard
        breakdown, read from ``engine.stats()``, and derives the
        rounded busy seconds and their shares from its utilization."""
        rows = seeded_rows(20, 16, (3, 2))
        engine = open_router(SCHEMA)
        server = StreamServer(engine)
        try:
            engine.facts_for_many(rows)
            snap = asyncio.run(server.read_stats())
            assert snap["shards"] == engine.shard_stats()
            assert snap["engine"]["shards"] == snap["shards"]
            assert snap["replica_failovers"] == 0
            busy = engine.utilization()
            assert snap["shard_busy_seconds"] == [round(b, 4) for b in busy]
            assert snap["shard_utilization"] == [
                round(b / sum(busy), 3) for b in busy
            ]
            for fake, rounded, shares in (
                ([1.0, 3.0], [1.0, 3.0], [0.25, 0.75]),
                ([0.123456, 0.0], [0.1235, 0.0], [1.0, 0.0]),
                ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
            ):
                engine.utilization = lambda fake=fake: fake
                snap = asyncio.run(server.read_stats())
                assert snap["shard_busy_seconds"] == rounded
                assert snap["shard_utilization"] == shares
        finally:
            engine.close()
        # Unsharded services keep the key out entirely.
        unsharded = StreamServer(FactDiscoverer(SCHEMA, algorithm="svec"))
        assert "shards" not in asyncio.run(unsharded.read_stats())

    def test_cluster_status_reports_lag_and_health(self):
        rows = seeded_rows(30, 17, (3, 2))
        with local_cluster([2]) as (remote, servers):
            engine = remote_router(remote)
            engine.facts_for_many(rows)
            engine.close()  # workers keep their state
            straggler = SocketWorkerServer().start()
            probed = dict(remote)
            probed["0"] = probed["0"] + [straggler.address]
            report = cluster_status(probed, timeout=2)
            try:
                assert len(report) == 3
                by_replica = {row["replica"]: row for row in report}
                for address in remote["0"]:
                    assert by_replica[address]["alive"]
                    assert by_replica[address]["configured"]
                    assert by_replica[address]["rows"] == len(rows)
                    assert by_replica[address]["lag"] == 0
                # The empty recruit lags the pool by the full stream.
                assert by_replica[straggler.address]["lag"] == len(rows)
            finally:
                straggler.stop()

    def test_cluster_status_marks_dead_replicas(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        report = cluster_status({"0": [dead]}, timeout=1)
        assert len(report) == 1
        assert report[0]["alive"] is False
        assert report[0]["error"]
        assert report[0]["lag"] is None
