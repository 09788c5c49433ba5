"""One round of one workload: a fresh server subprocess, driven closed
loop over one NDJSON/TCP producer connection (plus one WebSocket
subscriber on the full-stack workload), every reply checked against the
reference.

One client process, no client threads, one arrival in flight.  The
server lives in its own session and its whole process group is killed
when the round ends, however it ends.
"""

from __future__ import annotations

import asyncio
import atexit
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.datasets.loader import save_rows
from repro.service.gateway import FeedClient

from estimators import attribute_frames, canonical_entries, canonical_facts, digest
from reference import Reference, feed_digest
from workloads import Op, Stream, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: A reply slower than this fails its op (and ends the round: the
#: connection is strictly request/reply, a late reply would be read as
#: the next op's).
OP_TIMEOUT = 5.0
SETUP_TIMEOUT = 150.0
SHUTDOWN_TIMEOUT = 30.0
#: An ack line passes asyncio's 64 KiB default as soon as top-k ties are
#: large (NBA-shaped data does it).
LINE_LIMIT = 2**25
SPIN_ITERATIONS = 1_500_000
CLK_TCK = os.sysconf("SC_CLK_TCK")


class ProcessGuard:
    """Every process group the run started; killed at exit at the
    latest, so a crashed round cannot leak a server into later rounds
    (one leaked server cost ~40 % on every later round here)."""

    def __init__(self) -> None:
        self.groups: set = set()
        atexit.register(self.kill_all)

    def kill(self, pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.groups.discard(pgid)

    def kill_all(self) -> None:
        for pgid in list(self.groups):
            self.kill(pgid)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def process_tree(pid: int) -> List[int]:
    """``pid`` and every descendant, via ``/proc/<pid>/task/*/children``
    (``wait4``'s ``ru_maxrss`` is a max over children, not a sum: it
    reports the router alone for a three-process sharded server)."""
    pids = [pid]
    for parent in pids:
        try:
            for task in os.listdir(f"/proc/{parent}/task"):
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    pids.extend(int(child) for child in fh.read().split())
        except OSError as exc:
            if parent == pid:
                # The server itself is alive when this is called: a
                # kernel without the children file would silently
                # report the router alone for the sharded tree.
                raise OpFailed(f"cannot walk the server's process tree: {exc}")
            # A descendant that exited in between.
    return pids


def tree_cpu_seconds(pid: int) -> float:
    """utime + stime summed over the process tree."""
    ticks = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / CLK_TCK


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over the process tree."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def foreign_servers(own_groups: set) -> int:
    """Servers of this repo that this run did not start.  Never touched,
    only counted: the reader should distrust a run that had company."""
    count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
            if os.getpgid(int(entry)) in own_groups:
                continue
        except OSError:
            continue
        if b"serve" in argv and (
            b"repro.cli" in argv or any(a.endswith(b"traced_serve.py") for a in argv)
        ):
            count += 1
    return count


def spin_seconds() -> float:
    """A fixed pure-Python spin: the host-noise gauge timed before
    every round."""
    start = time.perf_counter()
    i = 0
    while i < SPIN_ITERATIONS:
        i += 1
    return time.perf_counter() - start


def dir_bytes(path: str) -> int:
    try:
        return sum(entry.stat().st_size for entry in os.scandir(path))
    except OSError:
        return 0


# ----------------------------------------------------------------------
# Round record
# ----------------------------------------------------------------------
@dataclass
class Round:
    traced: bool
    spin_s: float = 0.0
    foreign: int = 0
    setup_s: float = 0.0
    spawn_to_listen_s: float = 0.0
    preload_s: float = 0.0
    shutdown_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Round trip of every op of the measured phase, aligned with
    #: ``stream.ops`` (None for a failed op): every round replays the
    #: same ops, so the rounds are replicas of each other op by op.
    op_ms: List[Optional[float]] = field(default_factory=list)
    frame_ms: List[float] = field(default_factory=list)
    ack_bytes: List[int] = field(default_factory=list)
    reported_facts: int = 0
    journal_bytes: int = 0
    snapshot_bytes: int = 0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    facts_digest: str = ""
    feed_digest: str = ""
    #: Traced rounds only: the server's spans and the client's, one
    #: dict per span, joined on ``op`` (request ordinal).
    spans: List[dict] = field(default_factory=list)
    client_spans: List[dict] = field(default_factory=list)
    #: ``(received_at, segment, version)`` of every frame of the
    #: measured phase (traced rounds use it for ``gateway.push``).
    frame_log: List[Tuple[float, str, int]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class OpFailed(Exception):
    """An op that ends its round (timeout, closed connection)."""


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, proc, spawned_at: float, guard: ProcessGuard) -> None:
        self.proc = proc
        self.spawned_at = spawned_at
        self.guard = guard
        self.tail: List[str] = []
        self._drain: Optional[asyncio.Task] = None

    @classmethod
    async def spawn(cls, argv: List[str], guard: ProcessGuard) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        spawned_at = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *argv,
            env=env,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            start_new_session=True,
        )
        guard.groups.add(proc.pid)
        return cls(proc, spawned_at, guard)

    async def banner(self, marker: str, deadline: float) -> Tuple[str, float]:
        """Next stderr line containing ``marker`` and when it was read."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise OpFailed(f"no {marker!r} banner; stderr: {self.tail[-3:]}")
            try:
                raw = await asyncio.wait_for(self.proc.stderr.readline(), remaining)
            except asyncio.TimeoutError:
                continue
            if not raw:
                raise OpFailed(f"server exited during setup; stderr: {self.tail[-3:]}")
            line = raw.decode(errors="replace").rstrip()
            self.tail.append(line)
            if marker in line:
                return line, time.perf_counter()

    def drain_stderr(self) -> None:
        async def drain() -> None:
            while True:
                raw = await self.proc.stderr.readline()
                if not raw:
                    return
                self.tail.append(raw.decode(errors="replace").rstrip())
                del self.tail[:-20]

        self._drain = asyncio.ensure_future(drain())

    async def reap(self) -> None:
        """Kill whatever is left of the process group and wait."""
        self.guard.kill(self.proc.pid)
        await self.proc.wait()
        if self._drain is not None:
            self._drain.cancel()
            try:
                await self._drain
            except asyncio.CancelledError:
                pass


class Producer:
    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    async def call(self, payload: dict) -> Tuple[dict, float, float, int]:
        """Write one op, read its reply: ``(reply, t_write, t_parsed,
        reply bytes)``."""
        data = json.dumps(payload).encode() + b"\n"
        start = time.perf_counter()
        self.writer.write(data)
        try:
            await self.writer.drain()
            line = await asyncio.wait_for(self.reader.readline(), OP_TIMEOUT)
        except asyncio.TimeoutError:
            raise OpFailed(f"no reply to {payload.get('op')} in {OP_TIMEOUT} s")
        except OSError as exc:
            raise OpFailed(f"connection lost: {exc}")
        if not line:
            raise OpFailed("server closed the connection")
        reply = json.loads(line)
        return reply, start, time.perf_counter(), len(line)

    async def stats(self) -> dict:
        reply, *_ = await self.call({"op": "stats"})
        return reply["stats"]


def _payload(op: Op) -> dict:
    if op.kind == "ingest":
        return {"op": "ingest", "row": op.row}
    if op.kind == "query":
        return {"op": "query", "kind": "skyline", "q": op.text}
    return {"op": "delete", "tid": op.tid}


async def _wait_for(condition, timeout: float) -> bool:
    deadline = time.perf_counter() + timeout
    while not condition():
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(0.002)
    return True


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
async def run_round(
    workload: Workload,
    stream: Stream,
    ref: Reference,
    guard: ProcessGuard,
    traced: bool,
    run_dir: Path,
) -> Round:
    rnd = Round(traced=traced)
    rnd.spin_s = spin_seconds()
    rnd.foreign = foreign_servers(guard.groups)
    scratch = run_dir / "round"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spec = workload.spec(str(scratch))
    (scratch / "spec.json").write_text(json.dumps(spec.to_dict()))
    csv_path = scratch / "history.csv"
    save_rows(str(csv_path), spec.schema, stream.history)
    trace_path = OUT / f"trace_{workload.name}.jsonl"
    # Servers are configured through --spec only: the CLI's flag default
    # is --algorithm stopdown, and query_cache has no flag at all.
    argv = ["serve", "--spec", str(scratch / "spec.json"), str(csv_path), "--port", "0"]
    if workload.full_stack:
        argv += ["--http-port", "0"]
    if traced:
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(trace_path)] + argv
    else:
        argv = [sys.executable, "-m", "repro.cli"] + argv
    server = await Server.spawn(argv, guard)
    try:
        await _drive(workload, stream, ref, rnd, server, spec)
    except OpFailed as exc:
        rnd.fail(str(exc))
        rnd.attempted = max(rnd.attempted, rnd.failed)
    finally:
        await server.reap()
    if traced and trace_path.exists() and not rnd.failed:
        with open(trace_path) as fh:
            rnd.spans = [json.loads(line) for line in fh]
        with open(trace_path, "a") as fh:
            for span in rnd.client_spans:
                fh.write(json.dumps(span) + "\n")
    if spec.checkpoint is not None:
        try:
            rnd.snapshot_bytes = os.path.getsize(spec.checkpoint.path)
        except OSError:
            pass
    shutil.rmtree(scratch, ignore_errors=True)
    return rnd


async def _drive(workload, stream, ref, rnd, server, spec) -> None:
    deadline = server.spawned_at + SETUP_TIMEOUT
    line, listening_at = await server.banner("listening on", deadline)
    port = int(line.rsplit(":", 1)[1])
    gateway_port = None
    if workload.full_stack:
        line, _ = await server.banner("gateway listening on", deadline)
        gateway_port = int(line.rsplit(":", 1)[1])
    # cmd_serve prints "# N facts from M tuples" once its CSV preload
    # has been discovered, rendered and printed.
    _, ready_at = await server.banner("facts from", deadline)
    server.drain_stderr()
    rnd.spawn_to_listen_s = listening_at - server.spawned_at
    rnd.preload_s = ready_at - listening_at
    rnd.setup_s = ready_at - server.spawned_at

    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
    producer = Producer(reader, writer)
    subscriber = None
    received: List[Tuple[float, dict]] = []
    pump = None
    try:
        rnd.stats_before = await producer.stats()
        if rnd.stats_before["processed_rows"] != len(stream.history):
            raise OpFailed(
                f"preload processed {rnd.stats_before['processed_rows']} rows, "
                f"expected {len(stream.history)}"
            )
        if gateway_port is not None:
            subscriber = await FeedClient.connect("127.0.0.1", gateway_port)

            async def pump_frames() -> None:
                while True:
                    frame = await subscriber.recv(timeout=3600.0)
                    received.append((time.perf_counter(), frame))

            pump = asyncio.ensure_future(pump_frames())
            # Initial snapshot frames are drained before timing starts.
            rnd.attempted += 1
            if not await _wait_for(lambda: len(received) >= len(ref.snapshots), OP_TIMEOUT):
                raise OpFailed("initial snapshot frames did not arrive")
            for _, frame in received:
                expected = ref.snapshots.get(frame["segment"])
                if expected != (frame["version"], canonical_entries(frame["entries"])):
                    rnd.fail(f"snapshot frame of {frame['segment']} differs")
        snapshots = len(received)
        journal_dir = spec.checkpoint.journal_dir if spec.checkpoint else None
        journal_before = dir_bytes(journal_dir) if journal_dir else 0

        acks: List[list] = []
        sent_at: Dict[int, float] = {}
        pid = server.proc.pid
        cpu_before = tree_cpu_seconds(pid)
        for ordinal, op in enumerate(stream.ops):
            rnd.attempted += 1
            reply, t0, t1, size = await producer.call(_payload(op))
            if rnd.traced:
                rnd.client_spans.append(
                    {"name": f"client.{op.kind}", "op": ordinal, "start": t0,
                     "end": t1, "tid": op.tid, "repeat": op.repeat}
                )
            rnd.op_ms.append(None)
            if "error" in reply:
                rnd.fail(f"{op.kind} #{ordinal}: {reply['error']}")
                continue
            if op.kind == "ingest":
                facts = canonical_facts(reply["facts"])
                acks.append(facts)
                if reply["tid"] != op.tid or facts != ref.acks[op.index]:
                    rnd.fail(f"ack of arrival {op.index} differs from the reference")
                    continue
                sent_at[op.index] = t0
                rnd.ack_bytes.append(size)
                rnd.reported_facts += len(facts)
            elif op.kind == "query":
                if sorted(reply["tids"]) != ref.queries[op.index]:
                    rnd.fail(f"query #{op.index} differs from the reference")
                    continue
            elif reply.get("deleted") != op.tid:
                rnd.fail(f"delete of tid {op.tid} not confirmed")
                continue
            rnd.op_ms[-1] = (t1 - t0) * 1e3
        rnd.cpu_s = tree_cpu_seconds(pid) - cpu_before
        rnd.facts_digest = digest(acks)

        if subscriber is not None:
            latest: Dict[str, int] = {}

            def caught_up() -> bool:
                for _, frame in received[snapshots:]:
                    latest[frame["segment"]] = frame["version"]
                return all(
                    latest.get(key, ref.snapshots.get(key, (0,))[0]) == version
                    for key, version in ref.final_versions.items()
                )

            rnd.attempted += 1
            if not await _wait_for(caught_up, OP_TIMEOUT):
                rnd.fail("subscriber never saw the final version of every segment")
            final = dict(ref.snapshots)
            for at, frame in received[snapshots:]:
                rnd.attempted += 1
                key = (frame["segment"], frame["version"])
                entries = canonical_entries(frame["entries"])
                if key not in ref.frames or ref.frames[key][1] != entries:
                    rnd.fail(f"frame {key} differs from the reference")
                    continue
                final[frame["segment"]] = (frame["version"], entries)
                rnd.frame_log.append((at, *key))
            rnd.feed_digest = feed_digest(final)
            latencies = attribute_frames(rnd.frame_log, ref.produced_by(), sent_at)
            rnd.frame_ms = [1e3 * s for s in latencies.values()]

        rnd.stats_after = await producer.stats()
        if journal_dir:
            rnd.journal_bytes = dir_bytes(journal_dir) - journal_before
        rnd.peak_rss_mb = tree_peak_rss_mb(pid)
        shutdown_at = time.perf_counter()
        await producer.call({"op": "shutdown"})
        try:
            await asyncio.wait_for(server.proc.wait(), SHUTDOWN_TIMEOUT)
        except asyncio.TimeoutError:
            raise OpFailed("server did not exit after the shutdown op")
        rnd.shutdown_s = time.perf_counter() - shutdown_at
        if server.proc.returncode != 0:
            raise OpFailed(f"server exited with code {server.proc.returncode}")
    finally:
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
        if subscriber is not None:
            await subscriber.close()
        writer.close()
