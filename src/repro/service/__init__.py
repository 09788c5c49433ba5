"""Serving layer: sharded subspace-parallel ingestion + async front-end.

The library discovers situational facts one call at a time; this package
turns it into a *service*:

* :mod:`repro.service.sharding` — :class:`ShardedDiscoverer` partitions
  the measure-subspace axis across worker engines (in-process, one OS
  process each, or socket workers on other machines) and recombines
  per-arrival facts in canonical emission order, property-tested
  identical to the unsharded engine;
* :mod:`repro.service.worker` — the worker side of every mode: the
  shard engine, its one op table, and the serve loop every
  out-of-process worker runs;
* :mod:`repro.service.server` — :class:`StreamServer`, an asyncio
  front-end with a bounded ingest queue, work-conserving micro-batching,
  backpressure, fact subscriptions, periodic snapshot checkpointing and
  graceful drain, plus an optional NDJSON-over-TCP listener;
* :mod:`repro.service.journal` — the append-only write-ahead journal
  of accepted ops; recovery (in ``StreamServer.start()``) = latest
  snapshot + journal suffix;
* :mod:`repro.service.supervisor` — :class:`ShardWorker`, the one
  router-side shard handle over its links (one inline or process link,
  or one socket link per replica), with crash detection, restart with
  backoff, deterministic state rebuild, write-all / read-any
  replication and failover written once;
* :mod:`repro.service.remote` — the one wire of every out-of-process
  worker: the length-prefixed, CRC-framed socket protocol (versioned
  handshake, per-request timeouts) a process worker speaks over a
  ``socketpair`` and any machine running ``repro-facts shard-worker``
  speaks over TCP, both links, and the ``cluster-status`` probe;
* :mod:`repro.service.faults` — the spec/env-driven fault-injection
  registry the chaos tests (and the CI chaos job) drive;
* :mod:`repro.service.feeds` — :class:`FeedStore`, materialized
  per-segment top-k feeds maintained incrementally (and exactly) off the
  fact stream, with cursor pagination and a checkpoint section;
* :mod:`repro.service.gateway` — :class:`FeedGateway`, the hand-rolled
  HTTP + WebSocket fan-out front-end over the feed store, with bounded
  per-connection backpressure (coalesced snapshots for slow consumers).

Importing the package loads none of these: each name in ``__all__`` is
imported from its submodule on first access.  Only ``server`` and
``gateway`` need asyncio, so a process shard worker (forked before
``serve`` builds its :class:`StreamServer`) and a ``shard-worker`` pool
member never load the event loop.
"""

from importlib import import_module

#: Exported name -> the submodule defining it; read by the PEP 562
#: ``__getattr__`` below on a name's first access.
_EXPORTS = {
    "FeedStore": "feeds",
    "FeedClient": "gateway",
    "FeedGateway": "gateway",
    "fetch_json": "gateway",
    "JournalWriter": "journal",
    "SocketWorkerServer": "remote",
    "cluster_status": "remote",
    "run_worker": "remote",
    "ShardedDiscoverer": "sharding",
    "canonical_subspace_keys": "sharding",
    "partition_subspaces": "sharding",
    "StreamServer": "server",
    "ShardWorker": "supervisor",
    "WorkerCrashed": "supervisor",
    "WorkerGaveUp": "supervisor",
}

__all__ = [
    "FeedClient",
    "FeedGateway",
    "FeedStore",
    "JournalWriter",
    "ShardedDiscoverer",
    "SocketWorkerServer",
    "StreamServer",
    "ShardWorker",
    "WorkerCrashed",
    "WorkerGaveUp",
    "canonical_subspace_keys",
    "cluster_status",
    "fetch_json",
    "partition_subspaces",
    "run_worker",
]


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
