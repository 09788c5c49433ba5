"""HTTP/WebSocket feed gateway: REST reads, push frames, backpressure.

Everything runs against a real :class:`StreamServer` + ephemeral-port
:class:`FeedGateway`; the WebSocket side uses the hand-rolled
:class:`FeedClient` (which doubles as the protocol's self-test — both
ends implement RFC 6455 independently of each other's buffers).
"""

import asyncio
import json

import pytest

from repro.api import CheckpointPolicy, EngineSpec, FeedSpec, open_engine
from repro.service import (
    FeedClient,
    FeedGateway,
    StreamServer,
    faults,
    fetch_json,
)
from repro.service.gateway import (
    SubscriptionFilter,
    _Subscriber,
    ws_accept_key,
)
from tests.strategies import SERVICE_SCHEMA as SCHEMA, make_rows

def make_spec(**feed_kwargs) -> EngineSpec:
    feed_kwargs.setdefault("group_by", ("d0",))
    return EngineSpec(
        schema=SCHEMA, score=True, feeds=FeedSpec(**feed_kwargs)
    )


async def start_stack(spec=None, **gateway_kwargs):
    engine = open_engine(spec or make_spec())
    server = StreamServer(engine, batch_max=8)
    await server.start()
    gateway = FeedGateway(server, **gateway_kwargs)
    listener = await gateway.start()
    port = listener.sockets[0].getsockname()[1]
    return server, gateway, port


async def stop_stack(server, gateway):
    await gateway.stop()
    await server.stop()


class TestHandshake:
    def test_rfc6455_accept_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            ws_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )


async def http_get(port, path):
    """One ``GET``: ``(status, decoded JSON body)``, whatever the status
    (:func:`fetch_json` raises on ``>= 400``)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
    raw = await asyncio.wait_for(reader.read(), 5)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHealth:
    def test_healthz_is_the_tcp_health_reply_and_sees_the_fail_stop(
        self, tmp_path
    ):
        spec = EngineSpec(
            schema=SCHEMA,
            score=True,
            feeds=FeedSpec(group_by=("d0",)),
            checkpoint=CheckpointPolicy(
                path=str(tmp_path / "ckpt.snap"),
                journal_dir=str(tmp_path / "wal"),
            ),
        )
        rows = make_rows(3)

        async def tcp_health(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "health"}\n')
            health = json.loads(await asyncio.wait_for(reader.readline(), 5))
            writer.close()
            return health

        async def run():
            server, gateway, port = await start_stack(spec)
            listener = await server.serve_tcp("127.0.0.1", 0)
            tcp_port = listener.sockets[0].getsockname()[1]
            try:
                await server.ingest_wait(rows[0])
                status, health = await http_get(port, "/healthz")
                assert status == 200
                assert health["ok"] is True
                assert health == await tcp_health(tcp_port)
                # A torn journal append stops every later write.
                faults.install(
                    [{"point": "journal.append", "action": "corrupt"}]
                )
                with pytest.raises(RuntimeError, match="torn mid-record"):
                    await server.ingest_wait(rows[1])
                status, health = await http_get(port, "/healthz")
                assert status == 503
                assert health["ok"] is False and health["running"] is True
                assert "torn mid-record" in health["last_error"]
                assert health == await tcp_health(tcp_port)
            finally:
                faults.clear()
                await stop_stack(server, gateway)

        asyncio.run(run())


class TestRestReads:
    def test_endpoints(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(12))
                await server.drain()

                health = await fetch_json("127.0.0.1", port, "/healthz")
                assert health["ok"] is True

                listing = await fetch_json("127.0.0.1", port, "/feeds")
                keys = [seg["segment"] for seg in listing["segments"]]
                assert keys == server.feeds.segment_keys()

                stats = await fetch_json("127.0.0.1", port, "/stats")
                assert stats["stats"]["gateway_http_requests"] >= 2
                assert stats["stats"]["feeds"]["segments"] == len(keys)

                with pytest.raises(ValueError):
                    await fetch_json("127.0.0.1", port, "/feeds/nope")
                with pytest.raises(ValueError):
                    await fetch_json("127.0.0.1", port, "/nothing-here")
                with pytest.raises(ValueError):
                    await fetch_json(
                        "127.0.0.1", port,
                        f"/feeds/{keys[0]}?cursor=garbage",
                    )
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())

    def test_cursor_pagination_matches_store(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(15))
                await server.drain()
                key = server.feeds.segment_keys()[0]
                expected = [
                    entry.to_json_dict(server.feeds.schema)
                    for entry in server.feeds.entries_ranked(key)
                ]
                got, cursor = [], None
                while True:
                    path = f"/feeds/{key}?limit=4"
                    if cursor:
                        path += f"&cursor={cursor}"
                    page = await fetch_json("127.0.0.1", port, path)
                    got.extend(page["entries"])
                    cursor = page["next_cursor"]
                    if cursor is None:
                        break
                assert got == expected
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())

    def test_read_filters_pass_through(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(15))
                await server.drain()
                key = server.feeds.segment_keys()[0]
                page = await fetch_json(
                    "127.0.0.1", port, f"/feeds/{key}?top_k=2&tau=1.0"
                )
                expected = server.feeds.entries_ranked(key, top_k=2, tau=1.0)
                assert page["total"] == len(expected)
                assert all(
                    entry["prominence"] >= 1.0 for entry in page["entries"]
                )
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())


class TestWebSocketPush:
    def test_snapshot_then_updates(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(6))
                await server.drain()
                n_segments = len(server.feeds.segment_keys())

                client = await FeedClient.connect("127.0.0.1", port)
                frames = [await client.recv() for _ in range(n_segments)]
                assert {f["type"] for f in frames} == {"snapshot"}
                assert sorted(f["segment"] for f in frames) == (
                    server.feeds.segment_keys()
                )

                await server.ingest({"d0": "a0", "d1": "b0", "m0": 4, "m1": 4})
                await server.drain()
                update = await client.recv()
                assert update["type"] in ("update", "snapshot")
                # Frame content is the store's current ranked state.
                live = server.feeds.read(update["segment"])
                assert update["version"] == live["version"]
                await client.close()
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())

    def test_subscription_filters(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(9))
                await server.drain()
                client = await FeedClient.connect(
                    "127.0.0.1", port, "/subscribe?entity=a1&tau=1.0"
                )
                frame = await client.recv()
                assert frame["segment"] == "d0=a1"
                assert all(
                    entry["prominence"] >= 1.0 for entry in frame["entries"]
                )
                # No other segment is ever delivered.
                with pytest.raises(asyncio.TimeoutError):
                    await client.recv(timeout=0.3)
                await client.close()
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())

    def test_subscriber_count_tracks_connections(self):
        async def run():
            server, gateway, port = await start_stack()
            try:
                await server.ingest_many(make_rows(4))
                await server.drain()
                clients = [
                    await FeedClient.connect("127.0.0.1", port)
                    for _ in range(5)
                ]
                assert server.stats.gateway_subscribers == 5
                for client in clients:
                    await client.close()
                for _ in range(50):
                    if server.stats.gateway_subscribers == 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.stats.gateway_subscribers == 0
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())


class TestBackpressure:
    def test_dirty_set_is_bounded_and_coalesces(self):
        """The per-connection delivery state never exceeds
        ``max_pending_segments`` no matter how many changes arrive; the
        overflow collapses into one resync and repeats coalesce."""

        async def run():
            server, gateway, port = await start_stack(
                max_pending_segments=3
            )
            try:
                conn = _Subscriber(SubscriptionFilter(), writer=None)
                gateway._subscribers.add(conn)

                # Same segment dirtied twice: second mark coalesces.
                gateway._on_feed_change({"d0=a0"})
                gateway._on_feed_change({"d0=a0"})
                assert len(conn.dirty) == 1
                assert server.stats.gateway_frames_coalesced == 1

                # Distinct segments beyond the cap: bounded + resync.
                gateway._on_feed_change(
                    {f"d0=z{i}" for i in range(10)}
                )
                assert len(conn.dirty) <= 3
                assert conn.resync is True
                assert server.stats.gateway_frames_dropped > 0

                # While resyncing, further marks never grow the set.
                gateway._on_feed_change({"d0=more"})
                assert len(conn.dirty) == 0
                gateway._subscribers.discard(conn)
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())

    def test_slow_consumer_catches_up_to_current_state(self):
        """A consumer that reads nothing during a burst still converges:
        the frames it eventually reads carry the store's *final* state
        (coalesced), not a replay of every intermediate version."""

        async def run():
            server, gateway, port = await start_stack(
                max_pending_segments=2
            )
            try:
                client = await FeedClient.connect("127.0.0.1", port)
                # Burst of arrivals across many segments while the
                # client sits idle.
                for i in range(30):
                    await server.ingest(
                        {
                            "d0": f"a{i % 6}",
                            "d1": f"b{i % 2}",
                            "m0": i % 5,
                            "m1": (11 - i) % 5,
                        }
                    )
                await server.drain()
                final = {}
                while True:
                    try:
                        frame = await client.recv(timeout=0.5)
                    except asyncio.TimeoutError:
                        break
                    final[frame["segment"]] = frame
                # Every delivered segment's last frame equals current
                # materialized state — catch-up is by snapshot.
                assert final
                for key, frame in final.items():
                    live = server.feeds.read(key)
                    assert frame["version"] == live["version"], key
                    assert len(frame["entries"]) == live["total"], key
                sent = server.stats.gateway_frames_sent
                versions = sum(
                    seg["version"] for seg in server.feeds.segments()
                )
                # Far fewer frames than content versions — the burst
                # coalesced instead of replaying.
                assert sent < versions
                await client.close()
            finally:
                await stop_stack(server, gateway)

        asyncio.run(run())
