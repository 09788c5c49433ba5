"""Command-line interface: stream CSVs, query contexts, run demos.

Every engine-running subcommand (``discover`` / ``query`` / ``serve``)
shares one spec-style flag set — schema, algorithm, caps, sharding
(``--workers``/``--mode``), ``--window``, ``--no-score`` — or takes a
complete :class:`~repro.api.spec.EngineSpec` JSON via ``--spec``; the
engine composition is always built through
:func:`repro.api.open_engine`, so anything the facade can compose
(sharded, windowed, aggregate, …) is streamable, queryable and servable
from the command line.

Subcommands
-----------
``discover``
    Stream a CSV through the engine and print (optionally narrated)
    prominent facts as they emerge.
``query``
    Load a CSV, then answer a forward contextual-skyline query
    (``"team=Celtics & opp_team=Nets | assists, rebounds"``) — works
    against any composition, including sharded engines.
``demo``
    Stream synthetic NBA box scores and print the news feed (§VII case
    study in one command).
``figures``
    Reproduce one or more of the paper's figures and print the tables.
``serve``
    Run the streaming ingestion service (async micro-batching front-end
    over any engine composition); optionally ingest a CSV and/or listen
    for NDJSON clients on a TCP port.
``ingest``
    Stream a CSV into a running ``serve`` instance over TCP.
``shard-worker``
    Turn this machine into a remote shard-pool member: serve the
    CRC-framed socket worker protocol until shut down (routers place
    shards here via ``--remote`` / ``EngineSpec.sharding.remote``).
``cluster-status``
    Ping every worker of a placement map and print shard → replicas,
    applied rows, replication lag and health in one table.

Examples::

    repro-facts discover games.csv -d player,team -m points,assists --tau 50
    repro-facts discover games.csv --spec engine_spec.json
    repro-facts query games.csv -d player,team -m points,assists \
        -q "team=Celtics | points" --workers 2
    repro-facts demo --tuples 800 --tau 25
    repro-facts figures fig8a fig10b
    repro-facts serve -d player,team -m points,assists --workers 4 --port 7071
    repro-facts serve -d player,team -m points,assists --port 7071 \
        --http-port 8080 --feed-by team --feed-top-k 10
    repro-facts cluster-status --gateway 127.0.0.1:8080
    repro-facts ingest games.csv -d player,team -m points,assists \
        --connect 127.0.0.1:7071 --shutdown
    repro-facts shard-worker --port 7711
    repro-facts discover games.csv -d player,team -m points,assists \
        --remote '{"0": ["10.0.0.5:7711"], "1": ["10.0.0.6:7711"]}'
    repro-facts cluster-status --remote '{"0": ["10.0.0.5:7711"]}'
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .api import (
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    ShardingSpec,
    make_sink,
    open_engine,
)
from .api.spec import parse_address
from .core.config import DiscoveryConfig
from .core.schema import MIN, SchemaError, TableSchema

#: OpenSSL bindings ``serve`` never runs: it speaks plain TCP and HTTP,
#: and its one digest (the WebSocket handshake's SHA-1) has a built-in
#: implementation.  A ``None`` entry in ``sys.modules`` makes ``import``
#: raise ``ModuleNotFoundError`` (the import system's documented
#: contract); ``asyncio``, ``hashlib`` and ``hmac`` catch it and fall
#: back to their built-ins (``_sha1`` for the handshake), so libssl and
#: libcrypto are never mapped.  ``setdefault`` leaves a process that
#: already loaded either module (a test runner, an embedding
#: application) untouched.
UNSERVED_MODULES = ("ssl", "_hashlib")

#: Longest reply line ``ingest`` reads.  With no ``tau`` or ``top_k`` an
#: ack carries every fact of ``S_t``, up to 2^d (2^m - 1) of them: a
#: synthetic first arrival acks 0.3 MB at d = m = 5, past asyncio's
#: 64 KiB default, and 26.7 MB at d = m = 8.
ACK_LINE_LIMIT = 1 << 25

#: glibc's ``mallopt`` parameter number for the arena cap (``malloc.h``).
M_ARENA_MAX = -8


def use_one_malloc_arena() -> None:
    """Cap glibc at one malloc arena for the rest of this process.

    By default every thread that allocates gets its own arena: a second
    heap with 64 MiB of address space reserved, whose touched pages stay
    resident.  A serving process runs its engine (``serve``) or its ops
    (``shard-worker``, one thread per router connection) off the main
    thread, so with one arena those allocations reuse the free space
    imports leave in the main heap instead, and the process peaks
    lower.  Call it before the first thread starts; forked children
    inherit it.  A no-op off glibc.  Process-wide policy, so
    only the CLI entry points call it: a library process that embeds
    :class:`~repro.service.server.StreamServer` keeps glibc's default.
    """
    import os

    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None  # no confstr (Windows) or not glibc (macOS, musl)
    if glibc:
        import ctypes  # already loaded by NumPy

        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)


def _split(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _schema_from_args(args) -> TableSchema:
    preferences = {name: MIN for name in _split(args.min_prefer or "")}
    return TableSchema(_split(args.dimensions), _split(args.measures), preferences)


def _config_from_args(args) -> DiscoveryConfig:
    return DiscoveryConfig(
        max_bound_dims=args.dhat,
        max_measure_dims=args.mhat,
        tau=args.tau,
        top_k=args.top_k,
    )


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-d", "--dimensions", default=None,
        help="comma-separated dimension attribute names "
             "(required unless --spec is given)",
    )
    parser.add_argument(
        "-m", "--measures", default=None,
        help="comma-separated measure attribute names "
             "(required unless --spec is given)",
    )
    parser.add_argument(
        "--min-prefer", default="",
        help="comma-separated measures where smaller is better",
    )


def _add_discovery_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm", default="stopdown",
        help="registry name, e.g. stopdown, bottomup, or svec "
             "(vectorized stopdown; fastest at scale)",
    )
    parser.add_argument("--dhat", type=int, default=None,
                        help="max bound dimension attributes (paper d̂)")
    parser.add_argument("--mhat", type=int, default=None,
                        help="max measure-subspace size (paper m̂)")
    parser.add_argument("--tau", type=float, default=None,
                        help="prominence threshold (report prominent facts only)")
    parser.add_argument("--top-k", type=int, default=None)
    parser.add_argument("--workers", type=int, default=0,
                        help="subspace-parallel worker count (0 = single "
                             "unsharded engine; >0 runs svec shards)")
    parser.add_argument("--mode", default="process",
                        choices=("serial", "process", "remote"),
                        help="worker execution mode (with --workers; "
                             "'remote' needs --remote)")
    parser.add_argument("--remote", default=None, metavar="MAP",
                        help="remote shard placement map: JSON "
                             '{"shard": ["host:port", ...], ...} inline '
                             "or @file; shards run on repro-facts "
                             "shard-worker pool members (implies "
                             "--mode remote)")
    parser.add_argument("--window", type=int, default=None,
                        help="count-based sliding window: keep only the "
                             "most recent N tuples live")
    parser.add_argument("--no-score", action="store_true",
                        help="skip prominence scoring and stream raw facts "
                             "at maximum speed; facts carry no "
                             "context/skyline sizes, and combining this "
                             "with --tau or --top-k is an error (those "
                             "reporting policies need prominence scores "
                             "and would silently report nothing)")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="load a complete EngineSpec JSON "
                             "(see docs/api.md); overrides the schema and "
                             "engine flags")


def _load_remote_map(value: Optional[str]) -> Optional[dict]:
    """Parse a ``--remote`` placement map: inline JSON or ``@file``."""
    if not value:
        return None
    import json

    if value.startswith("@"):
        with open(value[1:]) as fh:
            return json.load(fh)
    return json.loads(value)


#: ``serve`` durability flag → the :class:`CheckpointPolicy` field it sets.
_CHECKPOINT_FLAGS = {
    "checkpoint": "path",
    "checkpoint_interval": "interval",
    "journal_dir": "journal_dir",
    "journal_fsync": "journal_fsync",
}


def _checkpoint_from_args(args, base: Optional[CheckpointPolicy]):
    """``base`` (a ``--spec`` file's checkpoint section, or ``None``)
    with every durability flag that is present replacing its field: the
    spec stays the one place the policy lives, read by recovery and the
    server alike."""
    given = {
        field: getattr(args, flag)
        for flag, field in _CHECKPOINT_FLAGS.items()
        if getattr(args, flag, None) is not None
    }
    if not given:
        return base
    if base is not None:
        return replace(base, **given)
    if "path" not in given:
        raise ValueError(
            "--checkpoint-interval/--journal-dir/--journal-fsync need "
            "--checkpoint: recovery replays the journal suffix on top "
            "of the latest snapshot"
        )
    return CheckpointPolicy(**given)


def _spec_from_args(args) -> EngineSpec:
    """The one place CLI flags become an :class:`EngineSpec`."""
    if getattr(args, "spec", None):
        import json

        with open(args.spec) as fh:
            spec = EngineSpec.from_dict(json.load(fh))
        return replace(
            spec, checkpoint=_checkpoint_from_args(args, spec.checkpoint)
        )
    if not args.dimensions or not args.measures:
        raise SchemaError(
            "either --spec or both -d/--dimensions and -m/--measures "
            "are required"
        )
    workers = getattr(args, "workers", 0) or 0
    remote = _load_remote_map(getattr(args, "remote", None))
    if remote:
        sharding = ShardingSpec(
            workers=len(remote), mode="remote", remote=remote
        )
    elif workers > 0:
        sharding = ShardingSpec(workers=workers, mode=args.mode)
    else:
        sharding = None
    feeds = None
    feed_flags = (
        getattr(args, "feed_by", None),
        getattr(args, "feed_top_k", None),
        getattr(args, "feed_tau", None),
        getattr(args, "feed_cap", None),
    )
    if any(flag is not None for flag in feed_flags) or (
        getattr(args, "http_port", None) is not None
    ):
        feeds = FeedSpec(
            group_by=tuple(_split(getattr(args, "feed_by", None) or "")),
            top_k=getattr(args, "feed_top_k", None),
            tau=getattr(args, "feed_tau", None),
            max_entries=getattr(args, "feed_cap", None) or 1024,
        )
    return EngineSpec(
        schema=_schema_from_args(args),
        # Sharded engines always run svec workers; the flag keeps its
        # meaning for the single-engine case.
        algorithm="svec" if sharding is not None else args.algorithm,
        config=_config_from_args(args),
        score=not getattr(args, "no_score", False),
        sharding=sharding,
        window=getattr(args, "window", None),
        checkpoint=_checkpoint_from_args(args, None),
        feeds=feeds,
    )


def _batched(iterable, size: int):
    """Yield lists of up to ``size`` items from ``iterable``."""
    batch = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def _resolve_sink(args, schema):
    """Map the output flags to a registered sink renderer."""
    name = "json" if args.json else "narrate" if getattr(args, "narrate", False) else "describe"
    return name, make_sink(name, schema)


def _print_event(label, facts, sink_name, sink) -> int:
    """Render one arrival's reportable facts and write them to stdout as
    one block (one ``print`` per event, not per fact); returns how many
    were written."""
    if sink_name == "json":
        lines = [sink(fact) for fact in facts]
    else:
        lines = [f"[{label}] {sink(fact)}" for fact in facts]
    if lines:
        print("\n".join(lines))
    return len(lines)


def cmd_discover(args) -> int:
    from .datasets.loader import load_rows

    try:
        spec = _spec_from_args(args)
        engine = open_engine(spec)
    except ValueError as exc:
        # e.g. --no-score with --tau/--top-k: reporting needs prominence.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with engine:
        # Rows validate against the input schema; facts are stated over
        # the discovery relation (identical except for aggregate specs).
        sink_name, sink = _resolve_sink(args, engine.discovery_schema)
        emitted = 0
        index = 0
        rows = load_rows(args.csv, spec.schema)
        if args.batch > 1:
            # Batched ingestion amortises per-call overhead (identical
            # output to row-at-a-time; see Engine.observe_many).
            for chunk in _batched(rows, args.batch):
                for facts in engine.observe_many(chunk):
                    emitted += _print_event(index, facts, sink_name, sink)
                    index += 1
        else:
            for row in rows:
                emitted += _print_event(
                    index, engine.observe(row), sink_name, sink
                )
                index += 1
        print(f"# {emitted} facts from {len(engine)} tuples", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    from .datasets.loader import load_rows
    from .query import parse_query

    try:
        spec = _spec_from_args(args)
        # Forward queries compute prominence on demand from the live
        # state — per-arrival scoring (and the reporting policy) would
        # be pure ingest overhead here.
        spec = replace(
            spec,
            score=False,
            config=replace(spec.config, tau=None, top_k=None),
        )
        engine = open_engine(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with engine:
        schema = engine.discovery_schema
        for chunk in _batched(load_rows(args.csv, spec.schema), 512):
            engine.facts_for_many(chunk)
        queries = engine.query()
        constraint, subspace = parse_query(args.query, schema)
        skyline = queries.skyline(constraint, subspace)
        for record in sorted(skyline, key=lambda r: r.tid):
            print(record.as_dict(schema))
        prominence = queries.prominence(constraint, subspace)
        print(f"# skyline size {len(skyline)}, prominence {prominence}",
              file=sys.stderr)
    return 0


def cmd_demo(args) -> int:
    from .datasets.nba import nba_rows, nba_schema
    from .reporting.feed import NewsFeed

    spec = EngineSpec(
        nba_schema(d=5, m=4),
        config=DiscoveryConfig(
            max_bound_dims=3, max_measure_dims=3, tau=args.tau or 25.0
        ),
    )
    feed = NewsFeed(open_engine(spec))
    for i, row in enumerate(nba_rows(args.tuples, d=5, m=4)):
        for headline in feed.push(row):
            print(f"[game {i:5d}] {headline.text}")
    print(f"# {len(feed)} prominent facts from {args.tuples} tuples",
          file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    import json

    from .datasets.loader import load_rows
    from .service import faults as faults_mod
    from .service import recover_engine

    # Before the engine thread starts and the engine allocates its
    # state; forked process shard workers inherit the cap.
    use_one_malloc_arena()
    try:
        # Chaos/CI hook: REPRO_FAULTS arms the fault-injection registry
        # (forwarded into shard-worker processes via their spawn spec).
        faults_mod.install_from_env()
        spec = _spec_from_args(args)
        if spec.checkpoint is not None:
            # Crash recovery: latest snapshot + journal suffix replay
            # (a "fresh" engine when neither exists yet).
            engine, recovery = recover_engine(spec)
        else:
            engine, recovery = open_engine(spec), None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if recovery is not None and recovery.source != "fresh":
        note = (
            f"# recovered from {recovery.source}: "
            f"{recovery.ops_replayed} journal ops replayed"
        )
        if recovery.torn_tail:
            note += " (torn journal tail dropped)"
        if recovery.replay_errors:
            note += f"; {len(recovery.replay_errors)} ops failed to re-apply"
        print(note, file=sys.stderr, flush=True)
    # The asyncio tier loads only now: process shard workers fork while
    # the engine opens, and must not inherit an event loop they never
    # run.  StreamServer is read off repro.service at call time (the e2e
    # bench rebinds it there).
    for name in UNSERVED_MODULES:
        sys.modules.setdefault(name, None)
    import asyncio

    from .service import StreamServer

    sink_name, sink = _resolve_sink(args, engine.discovery_schema)

    async def run() -> int:
        # Durability rides in engine.spec.checkpoint (_spec_from_args
        # folded the flags in), the one policy recovery also read.
        server = StreamServer(
            engine,
            queue_limit=args.queue_limit,
            batch_max=args.batch_max,
            dead_letter_path=getattr(args, "dead_letter", None),
            conn_timeout=getattr(args, "conn_timeout", None),
        )
        if recovery is not None:
            server.stats.ops_replayed = recovery.ops_replayed
            for error in recovery.replay_errors:
                server.stats.fail("replay_errors", error)
        await server.start()
        listener = None
        if args.port is not None:
            listener = await server.serve_tcp(args.host, args.port)
            host, port = listener.sockets[0].getsockname()[:2]
            print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        gateway = None
        if getattr(args, "http_port", None) is not None:
            if server.feeds is None:
                print(
                    "error: --http-port needs a feeds section (pass "
                    "--feed-by/--feed-top-k or a --spec with feeds)",
                    file=sys.stderr,
                )
                await server.stop()
                engine.close()
                return 2
            from .service.gateway import FeedGateway

            gateway = FeedGateway(server)
            http_listener = await gateway.start(args.host, args.http_port)
            ghost, gport = http_listener.sockets[0].getsockname()[:2]
            print(
                f"gateway listening on {ghost}:{gport}",
                file=sys.stderr,
                flush=True,
            )
        if args.csv:
            # Enqueue ahead of the printer so micro-batches actually
            # coalesce (ingest_wait per row would serialize the queue
            # down to batches of one); the subscription preserves
            # arrival order.
            subscription = server.subscribe(only_facts=False)

            async def preload() -> None:
                # The printer runs until the subscription closes, not
                # for a row count: a quarantined row publishes no event.
                # Rows accepted before a malformed one still print.
                try:
                    await server.ingest_many(load_rows(args.csv, spec.schema))
                finally:
                    await server.drain()
                    subscription.close()

            producer = asyncio.ensure_future(preload())
            emitted = 0
            async for event in subscription:
                emitted += _print_event(
                    event.tid, event.facts, sink_name, sink
                )
            try:
                await producer
            except SchemaError:
                # A malformed CSV row: stop cleanly (final checkpoint,
                # journal closed) over the rows accepted before it;
                # main() reports the error.
                await server.stop()
                if gateway is not None:
                    await gateway.stop()
                engine.close()
                raise
            print(
                f"# {emitted} facts from {len(engine)} tuples",
                file=sys.stderr,
            )
        if listener is not None or gateway is not None:
            # Serve until a client sends {"op": "shutdown"} (the TCP
            # front-end; gateway-only servers run until interrupted).
            await server.wait_stopped()
        else:
            await server.stop()
        if gateway is not None:
            await gateway.stop()
        print(
            f"# service stats: {json.dumps(await server.read_stats())}",
            file=sys.stderr,
        )
        engine.close()
        return 0

    return asyncio.run(run())


def cmd_ingest(args) -> int:
    import asyncio
    import json

    from .datasets.loader import load_rows

    schema = _schema_from_args(args)
    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(f"error: --connect: {exc}", file=sys.stderr)
        return 2

    async def run() -> int:
        reader, writer = await asyncio.open_connection(
            host, port, limit=ACK_LINE_LIMIT
        )

        async def call(payload: dict) -> dict:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            return json.loads(line)

        emitted = rows = 0
        for row in load_rows(args.csv, schema):
            reply = await call({"op": "ingest", "row": row})
            if "error" in reply:
                print(f"error: {reply['error']}", file=sys.stderr)
                return 2
            rows += 1
            for fact in reply["facts"]:
                emitted += 1
                if args.json:
                    print(json.dumps(fact))
        reply = await call({"op": "stats"})
        print(f"# {emitted} facts from {rows} tuples; server stats: "
              f"{json.dumps(reply.get('stats', {}))}", file=sys.stderr)
        if args.shutdown:
            await call({"op": "shutdown"})
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
        return 0

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 2


def cmd_shard_worker(args) -> int:
    from .service.remote import run_worker

    # Ops run on one thread per router connection: one arena for all.
    use_one_malloc_arena()
    try:
        # run_worker arms REPRO_FAULTS, prints the `listening on
        # host:port` banner to stderr (scripts grep the ephemeral
        # port off it, like `serve`), and blocks until a router sends
        # the shutdown op.
        return run_worker(args.host, args.port)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def cmd_cluster_status(args) -> int:
    import json

    from .service.remote import cluster_status

    try:
        if args.remote:
            remote = _load_remote_map(args.remote)
        elif args.spec:
            with open(args.spec) as fh:
                spec = EngineSpec.from_dict(json.load(fh))
            remote = spec.sharding.remote if spec.sharding else None
        else:
            remote = None
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gateway_stats = None
    gateway_dead = False
    if getattr(args, "gateway", None):
        import asyncio

        from .service.gateway import fetch_json

        try:
            ghost, gport = parse_address(args.gateway)
        except ValueError as exc:
            print(f"error: --gateway: {exc}", file=sys.stderr)
            return 2
        try:
            payload = asyncio.run(
                fetch_json(ghost, gport, "/stats",
                           timeout=args.timeout)
            )
            gateway_stats = payload.get("stats", {})
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            gateway_stats = {"error": str(exc)}
            gateway_dead = True
    if not remote and gateway_stats is None:
        print("error: --remote MAP (or --spec FILE with sharding.remote, "
              "or --gateway HOST:PORT) required", file=sys.stderr)
        return 2
    rows = cluster_status(remote, timeout=args.timeout) if remote else []
    if args.json:
        if gateway_stats is not None:
            print(json.dumps(
                {"replicas": rows, "gateway": gateway_stats}, indent=2
            ))
        else:
            print(json.dumps(rows, indent=2))
    elif not rows:
        pass
    else:
        header = ("shard", "replica", "health", "configured", "rows",
                  "lag", "busy_s", "rtt_ms")
        table = [header]
        for row in rows:
            table.append((
                row["shard"],
                row["replica"],
                "up" if row["alive"] else f"DOWN ({row['error']})",
                "yes" if row["configured"] else "no",
                "-" if row["rows"] is None else str(row["rows"]),
                "-" if row["lag"] is None else str(row["lag"]),
                "-" if row["busy_seconds"] is None
                else f"{row['busy_seconds']:.3f}",
                "-" if row["rtt_ms"] is None else f"{row['rtt_ms']:.2f}",
            ))
        widths = [max(len(str(r[c])) for r in table)
                  for c in range(len(header))]
        for i, row in enumerate(table):
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths))
                  .rstrip())
            if i == 0:
                print("  ".join("-" * w for w in widths))
    if gateway_stats is not None and not args.json:
        if gateway_dead:
            print(f"# gateway {args.gateway}: DOWN "
                  f"({gateway_stats['error']})", file=sys.stderr)
        else:
            feeds = gateway_stats.get("feeds", {}) or {}
            print(
                f"# gateway {args.gateway}: "
                f"subscribers={gateway_stats.get('gateway_subscribers', 0)} "
                f"frames_sent={gateway_stats.get('gateway_frames_sent', 0)} "
                f"coalesced={gateway_stats.get('gateway_frames_coalesced', 0)} "
                f"dropped={gateway_stats.get('gateway_frames_dropped', 0)} "
                f"segments={feeds.get('segments', 0)} "
                f"entries={feeds.get('entries', 0)} "
                f"lag={feeds.get('lag', 0)}",
                file=sys.stderr,
            )
    dead = sum(1 for row in rows if not row["alive"])
    if rows:
        shards = len({row["shard"] for row in rows})
        print(f"# {shards} shards, {len(rows)} replicas, {dead} unreachable",
              file=sys.stderr)
    return 1 if dead or gateway_dead else 0


def cmd_figures(args) -> int:
    import time

    from .experiments.figures import ALL_FIGURES

    for name in args.ids or sorted(ALL_FIGURES):
        fn = ALL_FIGURES.get(name)
        if fn is None:
            print(f"unknown figure {name!r}; options: {sorted(ALL_FIGURES)}",
                  file=sys.stderr)
            return 2
        start = time.perf_counter()
        result = fn(scale=args.scale)
        elapsed = time.perf_counter() - start
        for fig in result if isinstance(result, tuple) else (result,):
            print(fig.table())
            print()
        print(f"# {name} took {elapsed:.1f}s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-facts",
        description="Incremental discovery of prominent situational facts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="stream a CSV, print facts")
    p.add_argument("csv")
    _add_schema_options(p)
    _add_discovery_options(p)
    p.add_argument("--narrate", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON object per fact (NDJSON)")
    p.add_argument("--batch", type=int, default=1,
                   help="ingest rows in blocks of this size "
                        "(same output, amortised overhead)")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("query", help="forward contextual-skyline query")
    p.add_argument("csv")
    _add_schema_options(p)
    _add_discovery_options(p)
    p.add_argument("-q", "--query", required=True)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("demo", help="synthetic NBA news feed")
    p.add_argument("--tuples", type=int, default=800)
    p.add_argument("--tau", type=float, default=25.0)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser(
        "serve",
        help="run the sharded streaming ingestion service",
    )
    p.add_argument("csv", nargs="?", default=None,
                   help="optional CSV to stream through the service")
    _add_schema_options(p)
    _add_discovery_options(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="listen for NDJSON clients (0 = ephemeral port, "
                        "printed to stderr); serves until a client sends "
                        "the shutdown op")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="ingest-queue bound (backpressure threshold)")
    p.add_argument("--batch-max", type=int, default=256,
                   help="micro-batch size cap")
    p.add_argument("--checkpoint", default=None,
                   help="periodic snapshot path (see --checkpoint-interval)"
                        "; this and the three flags below also override "
                        "a --spec file's checkpoint section")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   help="seconds between snapshot checkpoints")
    p.add_argument("--journal-dir", default=None,
                   help="write-ahead journal directory (crash recovery "
                        "= --checkpoint snapshot + journal replay)")
    p.add_argument("--journal-fsync", default=None,
                   choices=("never", "batch"),
                   help="journal durability policy (default: batch)")
    p.add_argument("--dead-letter", default=None, metavar="FILE",
                   help="NDJSON file receiving quarantined poison rows")
    p.add_argument("--conn-timeout", type=float, default=None,
                   help="per-connection read timeout in seconds for the "
                        "TCP front-end (default: none)")
    p.add_argument("--http-port", type=int, default=None,
                   help="serve the HTTP/WebSocket feed gateway (0 = "
                        "ephemeral port, printed to stderr as `gateway "
                        "listening on host:port`); implies a feeds "
                        "section when the feed flags are absent")
    p.add_argument("--feed-by", default=None, metavar="DIMS",
                   help="comma-separated dimensions to segment the "
                        "materialized feeds by (default: one global "
                        "feed)")
    p.add_argument("--feed-top-k", type=int, default=None,
                   help="default top-k served per feed segment")
    p.add_argument("--feed-tau", type=float, default=None,
                   help="default prominence floor served per segment")
    p.add_argument("--feed-cap", type=int, default=None,
                   help="max materialized entries per segment "
                        "(default: 1024)")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON object per fact (NDJSON)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "ingest", help="stream a CSV into a running serve instance"
    )
    p.add_argument("csv")
    _add_schema_options(p)
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--json", action="store_true",
                   help="print each returned fact as JSON (NDJSON)")
    p.add_argument("--shutdown", action="store_true",
                   help="send the shutdown op after ingesting")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser(
        "shard-worker",
        help="serve one remote shard worker (socket pool member)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (loopback by default; the pickle "
                        "protocol is for trusted networks only)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral, printed to stderr "
                        "as `listening on host:port`)")
    p.set_defaults(fn=cmd_shard_worker)

    p = sub.add_parser(
        "cluster-status",
        help="probe configured shard workers, print replica health",
    )
    p.add_argument("--remote", default=None, metavar="MAP",
                   help='placement map: JSON {"shard": ["host:port", '
                        "...], ...} inline or @file")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="EngineSpec JSON carrying sharding.remote")
    p.add_argument("--timeout", type=float, default=2.0,
                   help="per-worker probe timeout in seconds")
    p.add_argument("--gateway", default=None, metavar="HOST:PORT",
                   help="also probe a feed gateway's GET /stats and "
                        "print its subscriber/feed counters (the reply "
                        "waits for the server's running batch and, when "
                        "sharded, its workers' counters: --timeout "
                        "bounds that wait)")
    p.add_argument("--json", action="store_true",
                   help="print the per-replica rows as JSON")
    p.set_defaults(fn=cmd_cluster_status)

    p = sub.add_parser("figures", help="reproduce paper figures")
    p.add_argument("ids", nargs="*")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .core.schema import SchemaError
    from .query.parser import QueryParseError

    try:
        return args.fn(args)
    except (SchemaError, QueryParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
