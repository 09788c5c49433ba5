"""One wire for every out-of-process shard worker.

A process worker (``mode="process"``: one OS process per shard, which
the router spawns) and a pool member (``mode="remote"``: any machine
running the ``repro-facts shard-worker`` CLI command) speak the same
protocol and run the same session; only how the bytes arrive differs.
The router side is :class:`SocketLink` — one per remote replica under
the shard's :class:`~repro.service.supervisor.ShardWorker`, opened by
:func:`connect_replicas` — and its subclass :class:`ProcessLink`, which
spawns its worker and hands it one end of a ``socketpair``.  The worker
side is one :class:`ShardHost` session per connection: a
:class:`SocketWorkerServer` runs one per accepted TCP connection, a
process worker runs one over its end of the pair.
:func:`cluster_status` is the operator's probe of a placement map.

Wire format — length-prefixed, CRC-framed, mirroring the journal's
frame layout (:mod:`repro.service.journal`)::

    <u32 payload_len> <u32 crc32(payload)> <payload bytes>

with the payload a pickled ``(op, payload)`` 2-tuple (pickle, not JSON:
rows and replies carry Python values — tuples, ``None`` dimension
markers, numpy scalars).  The CRC rejects torn or corrupted frames at
the receiver; a mismatch closes the connection rather than desyncing
the FIFO.  The protocol is a trusted *internal* transport (pickle
executes arbitrary code by design): bind workers to loopback or a
private network, never the open internet.

Session layout:

* **handshake** — the client opens with ``("hello", {"version": N})``;
  the worker answers in kind or replies ``("error", reason)`` and closes
  on a version mismatch, so routers and workers from different releases
  fail loudly at connect time instead of mid-stream;
* **requests** — ``(op, payload)`` frames, strictly FIFO per
  connection: the worker op table
  (:attr:`repro.service.worker._ShardEngine.OPS`) plus the control ops
  ``configure`` (install a shard engine and the forwarded fault list),
  ``stats`` (liveness and worker-side tallies, for ``cluster-status``),
  ``stop`` (end this connection) and ``shutdown`` (end the worker);
* **replies** — ``("ok", result)`` or ``("error", reason)`` frames.

Per-request timeouts: the router side waits on each reply with the
sharding ``op_timeout`` as the socket deadline, so a worker that hangs
(or whose reply a ``worker.reply`` fault drops, or whose ``worker.op``
fault sleeps past the budget) surfaces as a
:class:`~repro.service.supervisor.WorkerCrashed`, as does a dead one
(EOF) or a bad frame.  The handle then restarts a process worker or
fails over to the next replica.  Each session runs the shared
:func:`repro.service.worker.serve` loop, so the ``worker.op`` /
``worker.reply`` fault hook points fire alike in both kinds of worker
and the chaos suite drives them with the same fault specs.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import sys
import threading
import zlib
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.spec import parse_address
from . import faults
from .supervisor import WorkerCrashed, WorkerGaveUp
from .worker import _build_shard_engine, serve

#: Version exchanged in the handshake; bumped on any frame/op change.
PROTOCOL_VERSION = 3

#: Frame header: little-endian payload length + CRC32 of the payload
#: (the journal's frame layout, reused byte for byte).
_FRAME = struct.Struct("<II")

#: Upper bound on one frame's payload — a corrupted length prefix must
#: not make the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """A frame failed to parse: short read, CRC mismatch, oversize."""


def send_msg(sock: socket.socket, op: str, payload: object) -> None:
    """Frame and send one ``(op, payload)`` message."""
    body = pickle.dumps((op, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send a {len(body)}-byte frame "
            f"(MAX_FRAME_BYTES={MAX_FRAME_BYTES})"
        )
    sock.sendall(
        _FRAME.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body
    )


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        piece = sock.recv(n - len(buf))
        if not piece:
            raise FrameError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf.extend(piece)
    return bytes(buf)


def recv_msg(sock: socket.socket) -> Tuple[str, object]:
    """Receive one framed message; raises :class:`FrameError` on a
    short read, an implausible length, or a CRC mismatch."""
    length, crc = _FRAME.unpack(_recv_exact(sock, _FRAME.size))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise FrameError("frame CRC mismatch (corrupted payload)")
    return pickle.loads(body)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: The tallies a worker reports before its first ``configure``.
_UNCONFIGURED = SimpleNamespace(
    shard=(), rows_applied=0, deletes_applied=0, busy_seconds=0.0
)


class ShardHost:
    """The worker side of one out-of-process shard: a single
    shard-restricted ``svec`` engine behind the session every
    connection runs (:meth:`serve_connection`).

    The engine is installed by the router's ``configure`` op (the
    router's pickle-light worker spec, including the forwarded fault
    list) and serialized under a lock, so a second connection to a pool
    member — ``cluster-status`` probing mid-stream — interleaves safely
    with the router's ingest connection.
    """

    def __init__(self) -> None:
        self._engine = None
        #: The configured shard index (fault scoping).
        self.index: Optional[int] = None
        # Guards the engine and op_counts: every connection thread
        # applies its ops under it.
        self._engine_lock = threading.Lock()
        self._stop = threading.Event()
        #: Requests applied per op name (served to ``stats`` probes).
        self.op_counts: Dict[str, int] = {}

    @property
    def rows_applied(self) -> int:
        return (self._engine or _UNCONFIGURED).rows_applied

    def serve_connection(self, conn: socket.socket) -> None:
        """One session over the connected ``conn`` (see module
        docstring): the handshake, then the shared serve loop until
        ``stop``, ``shutdown`` or a vanished peer.  Closes ``conn``."""

        def recv() -> Tuple[str, object]:
            if self._stop.is_set():
                raise EOFError("worker stopping")
            return recv_msg(conn)

        try:
            try:
                op, payload = recv_msg(conn)
            except (FrameError, OSError, pickle.UnpicklingError, EOFError):
                return
            version = None
            if isinstance(payload, Mapping):
                version = payload.get("version")
            if op != "hello" or version != PROTOCOL_VERSION:
                try:
                    send_msg(
                        conn,
                        "error",
                        f"protocol version mismatch: worker speaks "
                        f"{PROTOCOL_VERSION}, client sent {version!r}",
                    )
                except OSError:
                    pass
                return
            send_msg(conn, "hello", self._liveness())
            serve(recv, lambda reply: send_msg(conn, *reply), self)
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _liveness(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "configured": self._engine is not None,
        }

    def apply(self, op: str, payload: object) -> Tuple[str, object]:
        """One request → its ``(status, result)`` reply frame: a control
        op, or the engine's op table.  A failing op is the router's to
        judge, so it travels back as an ``error`` reply instead of
        taking the connection down."""
        with self._engine_lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            try:
                control = self._CONTROL.get(op)
                if control is not None:
                    return "ok", control(self, payload)
                if self._engine is None:
                    raise RuntimeError(
                        f"worker not configured (op {op!r} before 'configure')"
                    )
                return "ok", self._engine.apply(op, payload)
            except Exception as exc:  # an error reply to the router
                return "error", f"{type(exc).__name__}: {exc}"

    def _configure(self, spec: Mapping[str, object]) -> Dict[str, object]:
        if spec.get("faults"):
            # Router-forwarded faults.  An empty list leaves any
            # env-armed faults alone.
            faults.install(spec["faults"])
        self._engine = _build_shard_engine(spec)
        self.index = self._engine.index
        return {"shard": self.index, "keys": len(spec["shard"])}

    def _stats(self, _payload: object) -> Dict[str, object]:
        tallies = self._engine or _UNCONFIGURED
        return dict(
            self._liveness(),
            shard=self.index,
            keys=len(tallies.shard),
            rows=tallies.rows_applied,
            deletes=tallies.deletes_applied,
            busy_seconds=round(tallies.busy_seconds, 6),
            op_counts=dict(self.op_counts),
        )

    def _shutdown(self, _payload: object) -> str:
        self._stop.set()  # ends every connection loop at its next recv
        return "shutting down"

    #: Control ops, beside the engine's op table.
    _CONTROL = {
        "configure": _configure,
        "stats": _stats,
        "shutdown": _shutdown,
    }


def _process_worker_main(
    sock: socket.socket, router_end: socket.socket
) -> None:
    """Entry point of one process worker: a single session over its end
    of the router's ``socketpair``.  Under ``fork`` the child inherits
    the router's end too, and the router's armed faults.  It closes the
    one, so a router that dies unannounced ends the session with EOF,
    and clears the others: its ``configure`` installs what the router
    forwards (nothing on a restart, so a restarted worker starts
    fault-free)."""
    router_end.close()
    faults.clear()
    ShardHost().serve_connection(sock)


class SocketWorkerServer(ShardHost):
    """One shard-worker pool member: a :class:`ShardHost` behind a TCP
    listener, one session thread per accepted connection.

    ``start()`` runs the accept loop on a daemon thread (tests embed
    workers in-process on ephemeral ports); :func:`run_worker` runs it
    in the foreground (the CLI / a dedicated worker process).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self.address = f"{self.host}:{self.port}"
        self._accept_thread: Optional[threading.Thread] = None

    def start(self) -> "SocketWorkerServer":
        """Serve on a daemon thread (in-process embedding)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` op (or :meth:`stop`);
        one session thread per connection."""
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:  # pragma: no cover - listener closed
                    break
                threading.Thread(
                    target=self.serve_connection, args=(conn,), daemon=True
                ).start()
        finally:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def stop(self) -> None:
        """Stop accepting and wind the server down (idempotent)."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if (
            self._accept_thread is not None
            and self._accept_thread is not threading.current_thread()
        ):
            self._accept_thread.join(timeout=2.0)


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    banner: bool = True,
) -> int:
    """Run one shard worker in the foreground (the ``repro-facts
    shard-worker`` entry point; also spawnable as a
    ``multiprocessing.Process`` target — ``ready.put(port)`` publishes
    the bound ephemeral port to the parent)."""
    faults.install_from_env()
    server = SocketWorkerServer(host, port)
    if ready is not None:
        ready.put(server.port)
    if banner:
        print(
            f"listening on {server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
    server.serve_forever()
    return 0


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------
class SocketLink:
    """The remote-mode link (see :mod:`repro.service.supervisor`): one
    handshaken connection to a pool member; ``timeout`` bounds the
    handshake and every :meth:`request`.  It cannot be re-opened — the
    state lives in the remote worker — so the handle drops it at the
    first crash and fails over to the next replica."""

    reopen = None

    def __init__(
        self,
        index: int,
        address: str,
        timeout: float = 60.0,
        connect_timeout: float = 5.0,
        role: str = "router",
    ) -> None:
        self.index = index
        self.address = str(address)
        self.timeout = timeout
        host, port = parse_address(address)
        try:
            sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise WorkerCrashed(
                index, f"cannot connect to {address}: {exc}"
            ) from None
        self._open(sock, role)

    def _open(self, sock: socket.socket, role: str = "router") -> None:
        """Adopt the connected ``sock`` and handshake over it; a refused
        or garbled handshake abandons the link and raises
        :class:`WorkerCrashed`."""
        self._sock = sock
        self._broken: Optional[str] = None
        try:
            # A refusal arrives as an ``error`` reply, which recv raises.
            hello = self.request(
                "hello", {"version": PROTOCOL_VERSION, "role": role}
            )
            if (
                not isinstance(hello, Mapping)
                or hello.get("version") != PROTOCOL_VERSION
            ):
                raise self._crashed(
                    f"bad handshake reply {hello!r} "
                    f"(router speaks version {PROTOCOL_VERSION})"
                )
        except WorkerCrashed:
            self.abandon()
            raise

    def send(self, op: str, payload: object) -> None:
        try:
            send_msg(self._sock, op, payload)
        except (OSError, FrameError) as exc:
            # A half-sent frame desyncs the FIFO: close, so the next
            # recv fails at once instead of waiting out the deadline.
            self._broken = f"send failed ({exc})"
            self.abandon()

    def recv(self, timeout=None):
        try:
            if timeout != self._sock.gettimeout():
                self._sock.settimeout(timeout)
            status, payload = recv_msg(self._sock)
        except socket.timeout:
            raise self._crashed(
                f"no reply within op_timeout={timeout}s"
            ) from None
        except (OSError, FrameError, EOFError, pickle.UnpicklingError) as exc:
            raise self._crashed(
                self._broken or f"{type(exc).__name__}: {exc}"
            ) from None
        if status == "error":
            raise self._crashed(f"worker error: {payload}")
        return payload

    def _crashed(self, reason: str) -> WorkerCrashed:
        return WorkerCrashed(self.index, f"{self.address}: {reason}")

    def request(self, op: str, payload: object = None):
        """One synchronous control round-trip (``configure`` /
        ``stats``), outside the handle's op-table surface."""
        self.send(op, payload)
        return self.recv(self.timeout)

    def abandon(self) -> None:
        """Drop the connection without the polite stop (the peer is
        presumed dead or desynced)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        self.send("stop", None)
        self.abandon()


#: How long a crash report waits for a child that closed its end of the
#: pair to be reaped, so the reason can carry its exit code.
_REAP_WAIT = 0.1


class ProcessLink(SocketLink):
    """The process-mode link: one OS process per shard, spawned by
    ``ctx`` (a ``multiprocessing`` context), running one
    :class:`ShardHost` session over its end of a ``socketpair``.
    Frames, replies, deadlines and :meth:`close` are the socket link's;
    spawning, :meth:`reopen` and :meth:`abandon` are its own.  The
    router's armed faults ride the first spawn only: a restarted worker
    is configured with none, as a freshly rebooted real one would be."""

    #: Budget of the handshake and ``configure``: starting a worker is
    #: not an op (a ``spawn`` start imports the package first), so it is
    #: not held to ``op_timeout``.
    timeout = 60.0

    def __init__(self, index: int, spec: Mapping[str, object], ctx) -> None:
        self.index = index
        self._spec = dict(spec)
        self._ctx = ctx
        self._spawn(faults.active_dicts())

    def _spawn(self, armed: List[Dict[str, object]]) -> None:
        sock, child = socket.socketpair()
        self._process = self._ctx.Process(
            target=_process_worker_main, args=(child, sock), daemon=True
        )
        self._process.start()
        child.close()
        self.address = f"pid {self._process.pid}"
        self._open(sock)
        try:
            self.request("configure", dict(self._spec, faults=armed))
        except WorkerCrashed:
            self.abandon()
            raise

    def reopen(self) -> None:
        self.abandon()
        self._spawn([])

    def abandon(self) -> None:
        """Drop the pair and dispose of the process, escalating
        terminate → kill so a wedged child cannot block the router."""
        super().abandon()
        process = self._process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=2)

    def _crashed(self, reason: str) -> WorkerCrashed:
        self._process.join(_REAP_WAIT)
        exitcode = self._process.exitcode
        if exitcode is not None:
            reason = f"{reason} (process died, exitcode={exitcode})"
        return super()._crashed(reason)


def probe_worker(address: str, timeout: float = 2.0) -> Dict[str, object]:
    """One-shot status probe of a pool member (``cluster-status``):
    connect, handshake, ``stats``, disconnect.  Raises on an
    unreachable or protocol-incompatible worker."""
    link = SocketLink(
        0, address, timeout, connect_timeout=timeout, role="status"
    )
    try:
        start = perf_counter()
        stats = link.request("stats")
        return dict(stats, rtt_seconds=perf_counter() - start)
    finally:
        link.close()


def connect_replicas(
    index: int,
    addresses: Sequence[str],
    spec: Mapping[str, object],
    timeout: float = 60.0,
) -> List[SocketLink]:
    """Open, handshake and ``configure`` one link per replica of shard
    ``index``, primary first, skipping unreachable ones.  Armed faults
    go to the primary only: replicas share the worker index, so
    forwarding them everywhere would kill the whole set at once and
    failover could never happen.  Raises
    :class:`~repro.service.supervisor.WorkerGaveUp` when no replica is
    reachable."""
    links: List[SocketLink] = []
    errors = []
    for i, address in enumerate(addresses):
        armed = faults.active_dicts() if i == 0 else []
        try:
            link = SocketLink(index, address, timeout)
        except WorkerCrashed as exc:
            errors.append(str(exc))
            continue
        try:
            link.request("configure", dict(spec, faults=armed))
        except WorkerCrashed as exc:
            link.abandon()
            errors.append(str(exc))
            continue
        links.append(link)
    if not links:
        raise WorkerGaveUp(
            index, "no replica reachable (" + "; ".join(errors) + ")"
        )
    return links


# ----------------------------------------------------------------------
# Operator-facing status probe
# ----------------------------------------------------------------------
def shard_sort_key(name: object):
    """Deterministic shard-name order for placement maps: numeric names
    sort numerically (``"2" < "10"``), the rest lexically after them."""
    text = str(name)
    return (0, int(text), "") if text.isdigit() else (1, 0, text)


def cluster_status(
    remote: Mapping[str, Sequence[str]], timeout: float = 2.0
) -> List[Dict[str, object]]:
    """Probe every worker in a placement map; one row per
    ``(shard, replica)`` with liveness, configured-ness, applied rows,
    replication lag (rows behind the most advanced replica of the
    shard), busy-seconds, and probe round-trip.  Unreachable workers get
    ``alive=False`` plus the error — the probe itself never raises."""
    report: List[Dict[str, object]] = []
    for shard in sorted(remote, key=shard_sort_key):
        shard_rows: List[Dict[str, object]] = []
        for address in remote[shard]:
            row: Dict[str, object] = {
                "shard": str(shard),
                "replica": str(address),
                "alive": False,
                "configured": False,
                "rows": None,
                "busy_seconds": None,
                "rtt_ms": None,
                "error": None,
            }
            try:
                stats = probe_worker(address, timeout=timeout)
            except (WorkerCrashed, OSError, ValueError) as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row.update(
                    alive=True,
                    configured=bool(stats.get("configured", False)),
                    rows=int(stats.get("rows", 0)),
                    busy_seconds=stats.get("busy_seconds", 0.0),
                    rtt_ms=round(
                        float(stats.get("rtt_seconds", 0.0)) * 1000.0, 3
                    ),
                )
            shard_rows.append(row)
        head = max((r["rows"] for r in shard_rows if r["alive"]), default=0)
        for row in shard_rows:
            row["lag"] = head - row["rows"] if row["alive"] else None
        report.extend(shard_rows)
    return report
