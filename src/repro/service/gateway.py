"""HTTP + WebSocket read gateway over the materialized feed tier.

:class:`FeedGateway` fronts a :class:`~repro.service.server.StreamServer`
whose engine carries a ``feeds`` spec: REST reads page the materialized
:class:`~repro.service.feeds.FeedStore` with cursors, and WebSocket
subscribers receive per-segment snapshot/update frames as feed versions
advance — no feed read ever touches the engine, so fan-out scales with
subscriber count instead of ingest throughput.

Both protocols are hand-rolled over asyncio streams (HTTP/1.1 request
parsing, RFC 6455 frames) — the container policy is stdlib-only.

Endpoints
---------
``GET /healthz``
    Liveness: the TCP ``health`` op's reply, from the same
    :meth:`~repro.service.server.StreamServer.answer`; ``503`` with
    the same body when ``ok`` is false (stopped, or writes refused
    after a failed journal append).
``GET /stats``
    The TCP ``stats`` op's reply, from the same ``answer`` (gateway
    counters and the engine's stats tree included).  It reads the
    engine, so it waits for the running batch and, on a sharded
    engine, for the workers' counters; ``503`` with the op's
    ``{"error": …}`` when that read fails.
``GET /feeds``
    Segment directory: key, version, entry count, staleness, evictions.
``GET /feeds/<segment>?cursor=&limit=&top_k=&tau=``
    One cursor page of a segment's ranked feed (percent-encode the
    segment key).  Cursors are ``v<version>:<offset>``; a cursor minted
    against an older version restarts at offset 0 with
    ``"restarted": true``.
``GET /subscribe?segment=&entity=&measures=&tau=`` (WebSocket upgrade)
    Push stream.  On connect, one ``snapshot`` frame per matching
    segment; afterwards an ``update`` frame per segment version change.

Backpressure
------------
Each subscriber connection holds a bounded *dirty-segment* set, not a
frame queue: frames are rendered from current store state at send time,
so a slow consumer automatically coalesces every missed version of a
segment into the next frame (``gateway_frames_coalesced``).  If even the
dirty set overflows (:data:`MAX_PENDING_SEGMENTS`), it is cleared
(``gateway_frames_dropped``) and the connection is scheduled for one
full resync — memory per connection stays bounded no matter how slow
the consumer, and the catch-up is a snapshot, never a replay.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..core.config import check_reporting_policy
from .server import cancel_tasks

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes.
OP_TEXT, OP_CLOSE, OP_PING, OP_PONG = 0x1, 0x8, 0x9, 0xA

#: Largest frame a subscriber may send: the gateway reads only control
#: frames from clients, and RFC 6455 §5.5 caps those at 125 bytes.
MAX_CLIENT_PAYLOAD = 125

#: Header lines read per request before the connection is dropped.
MAX_REQUEST_HEADERS = 100

#: Per-connection dirty-segment bound before a slow consumer is switched
#: to one full resync.
MAX_PENDING_SEGMENTS = 256


class FrameTooLarge(ConnectionError):
    """A peer declared a frame longer than the reader accepts."""


def ws_accept_key(key: str) -> str:
    """RFC 6455 §4.2.2 Sec-WebSocket-Accept derivation."""
    digest = hashlib.sha1((key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def ws_encode_frame(payload: bytes, opcode: int = OP_TEXT, mask: bool = False) -> bytes:
    """One FIN-flagged frame; clients must set ``mask`` (RFC 6455 §5.3)."""
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


async def ws_read_frame(
    reader, max_payload: Optional[int] = None
) -> Tuple[int, bytes]:
    """Read one frame, unmasking if needed; raises
    :class:`asyncio.IncompleteReadError` on a closed peer, and
    :class:`FrameTooLarge` before reading a payload longer than
    ``max_payload`` bytes."""
    b1, b2 = await reader.readexactly(2)
    opcode = b1 & 0x0F
    masked = bool(b2 & 0x80)
    length = b2 & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if max_payload is not None and length > max_payload:
        raise FrameTooLarge(
            f"{length}-byte frame exceeds the {max_payload}-byte cap"
        )
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


class SubscriptionFilter:
    """Per-connection filter: segment key, entity binding, measure
    subspace, and a prominence floor.

    * ``segment`` — exact segment-key match;
    * ``entity`` — ``dim=value`` (must appear among the key's bindings)
      or a bare value (matches any binding's value);
    * ``measures`` — entry's measure set must be a subset;
    * ``tau`` — entry prominence floor (on top of the spec's).
    """

    __slots__ = ("segment", "entity", "measures", "tau")

    def __init__(
        self,
        segment: Optional[str] = None,
        entity: Optional[str] = None,
        measures: Optional[Iterable[str]] = None,
        tau: Optional[float] = None,
    ) -> None:
        self.segment = segment
        self.entity = entity
        self.measures = frozenset(measures) if measures is not None else None
        self.tau = tau

    def match_segment(self, key: str) -> bool:
        if self.segment is not None and key != self.segment:
            return False
        if self.entity:
            parts = key.split(",")
            if "=" in self.entity:
                if self.entity not in parts:
                    return False
            elif not any(
                part.split("=", 1)[1] == self.entity
                for part in parts
                if "=" in part
            ):
                return False
        return True

    def match_entry(self, entry: dict) -> bool:
        if self.tau is not None and (entry["prominence"] or 0.0) < self.tau:
            return False
        if self.measures is not None and not (
            set(entry["measures"]) <= self.measures
        ):
            return False
        return True


class _Subscriber:
    """One WebSocket connection's delivery state (bounded)."""

    __slots__ = ("filters", "dirty", "resync", "wake", "known", "writer")

    def __init__(self, filters: SubscriptionFilter, writer) -> None:
        self.filters = filters
        #: Segments with undelivered changes, in first-dirtied order.
        #: Values are irrelevant — an OrderedDict for ordered pops.
        self.dirty: "OrderedDict[str, None]" = OrderedDict()
        #: Set when the dirty set overflowed: deliver one full snapshot
        #: sweep instead of per-segment updates.
        self.resync = False
        self.wake = asyncio.Event()
        #: Segments already delivered at least once (frame typing).
        self.known: Set[str] = set()
        self.writer = writer


class FeedGateway:
    """Asyncio HTTP/WebSocket front-end over a server's feed store."""

    def __init__(self, server) -> None:
        if server.feeds is None:
            raise ValueError(
                "FeedGateway needs a StreamServer with a feed store "
                "(EngineSpec.feeds)"
            )
        self.server = server
        self.feeds = server.feeds
        self.stats = server.stats
        self._listener: Optional[asyncio.AbstractServer] = None
        self._subscribers: Set[_Subscriber] = set()
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for HTTP/WebSocket clients; returns the asyncio
        server (ephemeral port via ``sockets[0].getsockname()``)."""
        if self._listener is not None:
            raise RuntimeError("FeedGateway already started")
        self._listener = await asyncio.start_server(self._handle, host, port)
        self.server.add_feed_listener(self._on_feed_change)
        return self._listener

    async def stop(self) -> None:
        if self._listener is None:
            return
        self._listener.close()
        # Handlers first: from Python 3.12.1 wait_closed() also waits
        # for every connection to close.
        await cancel_tasks(self._conn_tasks)
        await self._listener.wait_closed()
        self._listener = None
        self._subscribers.clear()
        self.stats.gateway_subscribers = 0

    # ------------------------------------------------------------------
    # Change fan-out
    # ------------------------------------------------------------------
    def _on_feed_change(self, changed: Set[str]) -> None:
        for conn in self._subscribers:
            hit = False
            for key in changed:
                if not conn.filters.match_segment(key):
                    continue
                hit = True
                if key in conn.dirty:
                    # Already pending: the eventual frame reads current
                    # state, so this version is coalesced into it.
                    self.stats.gateway_frames_coalesced += 1
                elif conn.resync:
                    self.stats.gateway_frames_coalesced += 1
                elif len(conn.dirty) >= MAX_PENDING_SEGMENTS:
                    # Bounded memory: collapse the backlog into one
                    # resync snapshot instead of queueing further.
                    self.stats.fail(
                        "gateway_frames_dropped", n=len(conn.dirty) + 1
                    )
                    conn.dirty.clear()
                    conn.resync = True
                else:
                    conn.dirty[key] = None
            if hit:
                conn.wake.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            try:
                request = await self._read_request(reader)
            except ValueError:
                # StreamReader's refusal of a line past its limit.
                await self._respond(
                    writer, 431, {"error": "request line or header too long"}
                )
                return
            if request is None:
                return
            method, path, query, headers = request
            if method != "GET":
                await self._respond(
                    writer, 405, {"error": "only GET is supported"}
                )
                return
            if headers.get("upgrade", "").lower() == "websocket":
                await self._serve_ws(reader, writer, path, query, headers)
            else:
                self.stats.gateway_http_requests += 1
                await self._serve_http(writer, path, query)
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            # CancelledError: gateway stop() tears connections down;
            # swallowing here keeps the streams callback quiet.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader):
        """``(method, path, query, headers)``, or ``None`` for a
        malformed or unterminated head; a line past the stream's limit
        raises ``ValueError`` (``StreamReader.readline``)."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for _ in range(MAX_REQUEST_HEADERS + 1):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None  # no end of headers within the cap
        try:
            parts = urlsplit(target)
        except ValueError:
            return None  # e.g. an unbalanced "[" in the host
        query = {
            name: values[-1] for name, values in parse_qs(parts.query).items()
        }
        return method, parts.path, query, headers

    async def _respond(self, writer, status: int, payload: dict) -> None:
        if 400 <= status < 500:
            # A refused request; a 503 is answer()'s reply, counted there.
            self.stats.fail("request_errors", payload["error"])
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  431: "Request Header Fields Too Large",
                  503: "Service Unavailable"}.get(status, "OK")
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # REST reads (materialized state only)
    # ------------------------------------------------------------------
    async def _serve_http(self, writer, path: str, query: dict) -> None:
        op = {"/healthz": "health", "/stats": "stats"}.get(path)
        if op is not None:
            # The TCP op's reply, byte for byte; 503 when it failed or
            # the server is not healthy.
            reply = await self.server.answer({"op": op})
            ok = "error" not in reply and reply.get("ok", True)
            await self._respond(writer, 200 if ok else 503, reply)
            return
        if path == "/feeds":
            await self._respond(
                writer, 200, {"segments": self.feeds.segments()}
            )
            return
        if path.startswith("/feeds/"):
            key = unquote(path[len("/feeds/"):])
            try:
                page = self.feeds.read(
                    key,
                    top_k=(
                        int(query["top_k"]) if "top_k" in query else None
                    ),
                    tau=float(query["tau"]) if "tau" in query else None,
                    cursor=query.get("cursor"),
                    limit=int(query.get("limit", 50)),
                )
            except ValueError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            if page is None:
                await self._respond(
                    writer, 404, {"error": f"unknown segment {key!r}"}
                )
                return
            await self._respond(writer, 200, page)
            return
        await self._respond(writer, 404, {"error": f"no route {path!r}"})

    # ------------------------------------------------------------------
    # WebSocket subscriptions
    # ------------------------------------------------------------------
    def _parse_filters(self, query: dict) -> SubscriptionFilter:
        """The subscription's filter; ``ValueError`` on a bad ``tau``."""
        tau = float(query["tau"]) if "tau" in query else None
        check_reporting_policy(tau, None, "feeds.")
        measures = None
        if "measures" in query:
            measures = [
                m.strip() for m in query["measures"].split(",") if m.strip()
            ]
        return SubscriptionFilter(
            segment=query.get("segment"),
            entity=query.get("entity"),
            measures=measures,
            tau=tau,
        )

    async def _serve_ws(self, reader, writer, path, query, headers) -> None:
        if path not in ("/subscribe", "/ws"):
            await self._respond(writer, 404, {"error": f"no route {path!r}"})
            return
        key = headers.get("sec-websocket-key")
        if not key:
            await self._respond(
                writer, 400, {"error": "missing Sec-WebSocket-Key"}
            )
            return
        try:
            filters = self._parse_filters(query)
        except ValueError as exc:
            # Refused before the upgrade: the client reads a plain 400.
            await self._respond(writer, 400, {"error": str(exc)})
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        conn = _Subscriber(filters, writer)
        self._subscribers.add(conn)
        self.stats.gateway_subscribers += 1
        # Initial state: every matching segment is delivered as a
        # snapshot (through the same bounded dirty set as updates).
        for seg_key in self.feeds.segment_keys():
            if conn.filters.match_segment(seg_key):
                if len(conn.dirty) >= MAX_PENDING_SEGMENTS:
                    conn.dirty.clear()
                    conn.resync = True
                    break
                conn.dirty[seg_key] = None
        conn.wake.set()
        pump = asyncio.ensure_future(self._pump(conn))
        self._conn_tasks.add(pump)
        try:
            while True:
                opcode, payload = await ws_read_frame(
                    reader, MAX_CLIENT_PAYLOAD
                )
                if opcode == OP_CLOSE:
                    break
                if opcode == OP_PING:
                    conn.writer.write(ws_encode_frame(payload, OP_PONG))
                    await conn.writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            await cancel_tasks({pump})
            self._conn_tasks.discard(pump)
            self._subscribers.discard(conn)
            self.stats.gateway_subscribers -= 1

    def _render(self, conn: _Subscriber, key: str, resync: bool) -> bytes:
        """One frame for ``key`` from *current* store state (renders at
        send time — every version missed by a slow consumer is folded
        into this one frame)."""
        feeds = self.feeds
        with feeds._lock:
            # One hold across both: the frame carries the version its
            # entries came from, whatever the engine thread folds next.
            version = feeds.version(key)
            ranked = feeds.entries_ranked(key)
        entries = [e.to_json_dict(feeds.schema) for e in ranked]
        if conn.filters.tau is not None or conn.filters.measures is not None:
            entries = [e for e in entries if conn.filters.match_entry(e)]
        frame_type = "update" if key in conn.known else "snapshot"
        if resync:
            frame_type = "snapshot"
        conn.known.add(key)
        payload = {
            "type": frame_type,
            "segment": key,
            "version": version,
            "entries": entries,
        }
        if resync:
            payload["resync"] = True
        return ws_encode_frame(json.dumps(payload).encode())

    async def _pump(self, conn: _Subscriber) -> None:
        """Per-connection writer: drain the dirty set (or run a resync
        sweep) at whatever pace the socket accepts.  ``drain()`` is the
        only await that can block on the consumer, so backlog only ever
        accumulates in the bounded dirty set."""
        try:
            while True:
                await conn.wake.wait()
                conn.wake.clear()
                while conn.dirty or conn.resync:
                    if conn.resync:
                        conn.resync = False
                        conn.dirty.clear()
                        keys = [
                            k
                            for k in self.feeds.segment_keys()
                            if conn.filters.match_segment(k)
                        ]
                        for key in keys:
                            conn.writer.write(self._render(conn, key, True))
                            await conn.writer.drain()
                            self.stats.gateway_frames_sent += 1
                        continue
                    key, _ = conn.dirty.popitem(last=False)
                    conn.writer.write(self._render(conn, key, False))
                    await conn.writer.drain()
                    self.stats.gateway_frames_sent += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# ----------------------------------------------------------------------
# Minimal clients (tests, benches, CLI probes)
# ----------------------------------------------------------------------
async def fetch_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> dict:
    """One ``GET`` against the gateway; returns the decoded JSON body."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    payload = json.loads(body) if body else {}
    if status >= 400:
        raise ValueError(
            f"HTTP {status} for {path}: {payload.get('error', '?')}"
        )
    return payload


class FeedClient:
    """Minimal WebSocket subscriber (handshake + masked text frames)."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        path: str = "/subscribe",
        timeout: float = 5.0,
    ) -> "FeedClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        key = base64.b64encode(os.urandom(16)).decode()
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        status = await asyncio.wait_for(reader.readline(), timeout)
        if b"101" not in status:
            writer.close()
            raise ConnectionError(f"handshake refused: {status!r}")
        accept = None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        if accept != ws_accept_key(key):
            writer.close()
            raise ConnectionError("bad Sec-WebSocket-Accept")
        return cls(reader, writer)

    async def recv(self, timeout: float = 5.0) -> dict:
        """Next text frame as JSON (transparently answers pings)."""
        while True:
            opcode, payload = await asyncio.wait_for(
                ws_read_frame(self._reader), timeout
            )
            if opcode == OP_TEXT:
                return json.loads(payload)
            if opcode == OP_PING:
                self._writer.write(
                    ws_encode_frame(payload, OP_PONG, mask=True)
                )
                await self._writer.drain()
            elif opcode == OP_CLOSE:
                raise ConnectionError("server closed the subscription")

    async def close(self) -> None:
        try:
            self._writer.write(ws_encode_frame(b"", OP_CLOSE, mask=True))
            await self._writer.drain()
        except (ConnectionResetError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
