"""Declarative engine specifications.

An :class:`EngineSpec` is a complete, serialisable description of a
discovery engine composition — schema, algorithm, config, scoring,
sharding, windowing, aggregation and checkpoint policy — that
:func:`~repro.api.facade.open_engine` turns into a live
:class:`~repro.core.engine_protocol.Engine`.  Because the spec is plain
data (``to_dict`` / ``from_dict`` round-trip through JSON), the same
object drives the CLI's ``--spec`` flag, snapshot format v3 (any
composition restores from its checkpoint), and programmatic use::

    >>> from repro.api import EngineSpec, open_engine
    >>> from repro import TableSchema
    >>> spec = EngineSpec(TableSchema(("d",), ("m",)), algorithm="stopdown")
    >>> with open_engine(spec) as engine:
    ...     _ = engine.observe({"d": "x", "m": 1})
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.config import DiscoveryConfig, check_reporting_policy
from ..core.schema import TableSchema

#: Execution modes of the sharded composition.
SHARDING_MODES = ("serial", "process", "remote")

#: Supported aggregate functions over a base measure.
AGGREGATES = ("sum", "max", "min", "count", "avg")


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (placement maps, ``--connect``,
    ``--gateway``); the port must lie in 1–65535."""
    host, _, port = str(address).rpartition(":")
    if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ValueError(
            f"{address!r} is not 'host:port' with a port in 1-65535"
        )
    return host, int(port)


@dataclass(frozen=True)
class ShardingSpec:
    """Subspace-axis sharding: ``workers`` share-nothing ``svec`` shards
    behind a merging router (see :mod:`repro.service.sharding`).

    Attributes
    ----------
    workers:
        Requested shard count (clamped to the maintained subspace keys).
    mode:
        ``"serial"`` (in-process, deterministic), ``"process"`` (one
        supervised OS process per shard — the throughput mode)
        or ``"remote"`` (each shard a set of socket worker replicas,
        placed by :attr:`remote` — the multi-machine tier; see
        :mod:`repro.service.remote`).
    chunk_size:
        Pipelining granularity of batched ingestion (rows per worker
        round-trip).
    op_timeout:
        Seconds the router waits on any single worker round-trip
        before treating the worker as hung.  Process and remote workers
        are always supervised: a crashed or hung one is restarted with
        backoff (or its replica promoted) and rebuilt deterministically
        from the router's committed op prefix; serial workers share the
        router's fate.
    max_restarts:
        Circuit breaker: after this many restarts of a single worker
        the pool degrades to serial in-router execution instead of
        restarting forever.
    remote:
        Placement map for ``mode="remote"``: each shard name maps to
        the ``"host:port"`` replica addresses of its socket-worker
        pool (``repro-facts shard-worker`` members), e.g.
        ``{"0": ["10.0.0.5:7711", "10.0.0.6:7711"], "1": [...]}``.
        Shard names that parse as integers order numerically; the
        number of shards must equal :attr:`workers`.  ``None`` for the
        in-process modes.
    """

    workers: int
    mode: str = "serial"
    chunk_size: int = 96
    op_timeout: float = 60.0
    max_restarts: int = 3
    remote: Optional[Mapping[str, Tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("sharding.workers must be >= 1")
        if self.mode not in SHARDING_MODES:
            raise ValueError(
                f"sharding.mode must be one of {SHARDING_MODES}, "
                f"got {self.mode!r}"
            )
        if self.chunk_size < 1:
            raise ValueError("sharding.chunk_size must be >= 1")
        if self.op_timeout <= 0:
            raise ValueError("sharding.op_timeout must be > 0 seconds")
        if self.max_restarts < 0:
            raise ValueError("sharding.max_restarts must be >= 0")
        if self.remote is not None:
            remote = {
                str(name): list(addresses)
                for name, addresses in dict(self.remote).items()
            }
            if not remote:
                raise ValueError(
                    "sharding.remote must map at least one shard to replicas"
                )
            for name, addresses in remote.items():
                if not addresses:
                    raise ValueError(
                        f"sharding.remote[{name!r}] needs at least one "
                        "host:port replica"
                    )
                for address in addresses:
                    try:
                        parse_address(address)
                    except ValueError as exc:
                        raise ValueError(
                            f"sharding.remote[{name!r}]: {exc}"
                        ) from None
            # Normalised plain-data form so asdict/JSON round-trip exactly.
            object.__setattr__(self, "remote", remote)
            if self.mode != "remote":
                raise ValueError(
                    "a sharding.remote placement map requires "
                    f"mode='remote', got {self.mode!r}"
                )
            if self.workers != len(remote):
                raise ValueError(
                    f"sharding.workers ({self.workers}) must equal the "
                    f"number of remote shards ({len(remote)})"
                )
        elif self.mode == "remote":
            raise ValueError(
                "sharding.mode='remote' needs a remote placement map "
                "({shard: [host:port, ...]})"
            )

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ShardingSpec":
        """Rebuild from ``asdict`` output — including documents embedded
        in checkpoints written before the ``supervise`` switch and the
        ``thread`` mode were retired."""
        doc = dict(doc)
        doc.pop("supervise", None)  # process workers are always supervised
        if doc.get("mode") == "thread":
            doc["mode"] = "serial"  # output-identical by the parity contract
        return cls(**doc)


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where (and how often) an engine snapshots itself.

    ``path`` is the default target of :meth:`Engine.snapshot`;
    ``interval`` (seconds) activates periodic checkpointing when the
    engine runs behind a :class:`~repro.service.server.StreamServer`.

    ``journal_dir`` activates the write-ahead journal
    (:mod:`repro.service.journal`): every accepted ingest/delete is
    framed and appended there before its event is acknowledged, so a
    crash loses nothing past the last commit.  ``journal_fsync`` picks
    the durability/throughput trade-off (``"never"`` buffers, ``"batch"``
    adds one ``fsync`` per micro-batch, before the acknowledgement) and
    ``journal_segment_bytes`` the segment-rotation threshold.  This
    policy is the only place the server's durability is configured.
    """

    path: str
    interval: Optional[float] = None
    journal_dir: Optional[str] = None
    journal_fsync: str = "batch"
    journal_segment_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("checkpoint.path must be non-empty")
        if self.interval is not None and self.interval <= 0:
            raise ValueError("checkpoint.interval must be > 0 seconds")
        if self.journal_fsync not in ("never", "batch"):
            raise ValueError(
                "checkpoint.journal_fsync must be 'never' or 'batch', "
                f"got {self.journal_fsync!r}"
            )
        if self.journal_segment_bytes < 1024:
            raise ValueError(
                "checkpoint.journal_segment_bytes must be >= 1024"
            )


@dataclass(frozen=True)
class GroupSpec:
    """How to roll base rows up into aggregate tuples (§VIII).

    Attributes
    ----------
    group_by:
        Base dimension attributes identifying a group (they become the
        aggregate relation's dimensions).
    aggregations:
        Mapping ``output_measure_name -> (base_measure, function)`` with
        function one of :data:`AGGREGATES`.
    """

    group_by: Tuple[str, ...]
    aggregations: Mapping[str, Tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.group_by:
            raise ValueError("group_by needs at least one attribute")
        if not self.aggregations:
            raise ValueError("at least one aggregation required")
        for name, (base, fn) in self.aggregations.items():
            if fn not in AGGREGATES:
                raise ValueError(
                    f"aggregation {name!r} uses unknown function {fn!r}; "
                    f"choose from {AGGREGATES}"
                )

    @property
    def base_measures(self) -> Tuple[str, ...]:
        """The distinct base measures consumed, sorted."""
        return tuple(sorted({base for base, _fn in self.aggregations.values()}))

    def discovery_schema(self) -> TableSchema:
        """Schema of the aggregate relation facts are discovered over."""
        return TableSchema(
            dimensions=tuple(self.group_by),
            measures=tuple(self.aggregations),
        )

    def base_schema(self) -> TableSchema:
        """The minimal input-row schema the aggregation consumes."""
        return TableSchema(
            dimensions=tuple(self.group_by), measures=self.base_measures
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "group_by": list(self.group_by),
            "aggregations": {
                name: [base, fn]
                for name, (base, fn) in self.aggregations.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "GroupSpec":
        return cls(
            group_by=tuple(doc["group_by"]),
            aggregations={
                name: (base, fn)
                for name, (base, fn) in dict(doc["aggregations"]).items()
            },
        )


@dataclass(frozen=True)
class FeedSpec:
    """Materialized per-segment feeds over the fact stream (read tier).

    Activates a :class:`~repro.service.feeds.FeedStore` when the engine
    runs behind a :class:`~repro.service.server.StreamServer`: every
    discovered fact is folded into the feed of its *segment* — the
    projection of the fact's constraint onto :attr:`group_by` — so
    subscribers and the HTTP/WebSocket gateway read ranked, current
    standings from materialized state instead of querying the engine.

    Attributes
    ----------
    group_by:
        Dimension attributes of the discovery relation that identify a
        segment.  A fact whose constraint binds ``player=A`` lands in
        segment ``player=A``; one that leaves ``player`` unbound lands
        in ``player=*``.  Empty (the default) keeps a single global
        ``*`` segment.
    top_k:
        Default ranking cut applied when a feed is read (ties at the
        cut kept, matching ``query().batch`` reporting).  ``None``
        returns every entry above :attr:`tau`.
    tau:
        Default prominence floor applied when a feed is read.  Entries
        below ``τ`` stay materialized (a later arrival can lift them
        back over the floor without emitting a fact) — the floor is a
        read-time filter, exactly like the batch planner's.
    max_entries:
        Per-segment entry cap (bounded memory).  When a segment
        overflows, its lowest-prominence entries are evicted and the
        segment is marked truncated; reads stay exact as long as the
        cap does not bind.
    """

    group_by: Tuple[str, ...] = ()
    top_k: Optional[int] = None
    tau: Optional[float] = None
    max_entries: int = 1024

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", tuple(self.group_by))
        check_reporting_policy(self.tau, self.top_k, "feeds.")
        if self.max_entries < 1:
            raise ValueError("feeds.max_entries must be >= 1")
        if len(set(self.group_by)) != len(self.group_by):
            raise ValueError("feeds.group_by must not repeat attributes")

    def to_dict(self) -> Dict[str, object]:
        return {
            "group_by": list(self.group_by),
            "top_k": self.top_k,
            "tau": self.tau,
            "max_entries": self.max_entries,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "FeedSpec":
        """Inverse of :meth:`to_dict`.  Keys it does not read are
        ignored: specs stored while feeds could also segment by measure
        subspace carry that retired flag."""
        return cls(
            group_by=tuple(doc.get("group_by") or ()),
            top_k=doc.get("top_k"),
            tau=doc.get("tau"),
            max_entries=int(doc.get("max_entries", 1024)),
        )


@dataclass(frozen=True)
class EngineSpec:
    """One declarative description of any engine composition.

    Attributes
    ----------
    schema:
        Schema of the rows fed to ``observe`` (for aggregate engines:
        the *base* stream; facts then describe the aggregate relation
        derived from :attr:`aggregate`).
    algorithm:
        Registry name (``"stopdown"``, ``"svec"``, …).  Sharded engines
        always run ``"svec"`` workers.
    config:
        ``d̂``/``m̂`` caps, prominence threshold ``τ``, ``top_k``.
    score:
        Annotate facts with context/skyline cardinalities (required by
        ``τ``/``top_k`` reporting).
    sharding:
        Subspace-parallel workers behind a router, or ``None``.
    window:
        Count-based sliding window (most recent N tuples live), or
        ``None``.
    aggregate:
        Discover over running group aggregates of the base stream, or
        ``None``.  Mutually exclusive with :attr:`window` for now.
    checkpoint:
        Default snapshot path / periodic-checkpoint interval, or
        ``None``.
    query_cache:
        Capacity (entries) of the versioned query-result cache wrapped
        around ``engine.query()``, or ``None`` for no caching.  Cached
        answers are keyed by the engine version ``(arrivals,
        deletions)``, so any write invalidates them automatically —
        see :class:`~repro.api.middleware.QueryCacheMiddleware`.
    feeds:
        Materialized per-segment read feeds (:class:`FeedSpec`), or
        ``None``.  Activated by :class:`~repro.service.server.
        StreamServer` / the ``serve`` CLI: the feed store tier and the
        HTTP/WebSocket gateway read from it.
    """

    schema: TableSchema
    algorithm: str = "stopdown"
    config: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    score: bool = True
    sharding: Optional[ShardingSpec] = None
    window: Optional[int] = None
    aggregate: Optional[GroupSpec] = None
    checkpoint: Optional[CheckpointPolicy] = None
    query_cache: Optional[int] = None
    feeds: Optional[FeedSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str):
            raise ValueError(
                "EngineSpec.algorithm must be a registry name; pass "
                "pre-built algorithm instances to FactDiscoverer directly"
            )
        if self.sharding is not None and self.algorithm != "svec":
            raise ValueError(
                "sharded engines run the 'svec' algorithm on every "
                f"worker; set algorithm='svec' (got {self.algorithm!r})"
            )
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.query_cache is not None and self.query_cache < 1:
            raise ValueError("query_cache capacity must be >= 1")
        if self.window is not None and self.aggregate is not None:
            raise ValueError(
                "window + aggregate composition is not supported yet: "
                "a windowed inner engine would evict aggregate tuples "
                "the aggregation layer still tracks"
            )
        if not self.score and (
            self.config.tau is not None or self.config.top_k is not None
        ):
            raise ValueError(
                "tau/top_k reporting needs prominence scores; "
                "score=False would silently report nothing"
            )
        if self.aggregate is not None:
            dims = set(self.schema.dimensions)
            meas = set(self.schema.measures)
            missing_d = [a for a in self.aggregate.group_by if a not in dims]
            missing_m = [
                m for m in self.aggregate.base_measures if m not in meas
            ]
            if missing_d or missing_m:
                raise ValueError(
                    "aggregate spec references attributes missing from "
                    f"the base schema: dimensions {missing_d}, "
                    f"measures {missing_m}"
                )
        if self.feeds is not None:
            if not self.score:
                raise ValueError(
                    "feeds rank entries by prominence; score=False "
                    "would materialize nothing (drop feeds or enable "
                    "scoring)"
                )
            # Feeds segment the discovery relation.
            discovery_dims = self.discovery_schema.dimensions
            missing = [
                a for a in self.feeds.group_by if a not in discovery_dims
            ]
            if missing:
                raise ValueError(
                    "feeds.group_by references dimensions missing from "
                    f"the discovery relation: {missing}"
                )

    @property
    def discovery_schema(self) -> TableSchema:
        """The relation facts are discovered over, which the base
        engine is built on: the aggregate relation when
        :attr:`aggregate` is set, :attr:`schema` otherwise."""
        if self.aggregate is not None:
            return self.aggregate.discovery_schema()
        return self.schema

    # ------------------------------------------------------------------
    # Serialisation (snapshot v3, CLI --spec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-data rendering; ``from_dict`` inverts it exactly."""
        return {
            "schema": {
                "dimensions": list(self.schema.dimensions),
                "measures": list(self.schema.measures),
                "preferences": dict(self.schema.preferences),
            },
            "algorithm": self.algorithm,
            "config": asdict(self.config),
            "score": self.score,
            "sharding": asdict(self.sharding) if self.sharding else None,
            "window": self.window,
            "aggregate": self.aggregate.to_dict() if self.aggregate else None,
            "checkpoint": asdict(self.checkpoint) if self.checkpoint else None,
            "query_cache": self.query_cache,
            "feeds": self.feeds.to_dict() if self.feeds else None,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written
        JSON; absent optional fields default).  Checkpoints written
        before the store chose its own sweep side carry a retired
        ``"sweep_index"`` key; it is ignored whatever its value."""
        schema_doc = doc["schema"]
        schema = TableSchema(
            dimensions=tuple(schema_doc["dimensions"]),
            measures=tuple(schema_doc["measures"]),
            preferences=dict(schema_doc.get("preferences") or {}),
        )
        sharding = doc.get("sharding")
        aggregate = doc.get("aggregate")
        checkpoint = doc.get("checkpoint")
        if checkpoint and checkpoint.get("journal_fsync") == "always":
            # Retired per-record value: "batch" keeps its guarantee (an
            # acknowledged op is on disk) with one fsync per micro-batch.
            checkpoint = {**checkpoint, "journal_fsync": "batch"}
        feeds = doc.get("feeds")
        return cls(
            schema=schema,
            algorithm=doc.get("algorithm", "stopdown"),
            config=DiscoveryConfig(**(doc.get("config") or {})),
            score=bool(doc.get("score", True)),
            sharding=ShardingSpec.from_dict(sharding) if sharding else None,
            window=doc.get("window"),
            aggregate=GroupSpec.from_dict(aggregate) if aggregate else None,
            checkpoint=CheckpointPolicy(**checkpoint) if checkpoint else None,
            query_cache=doc.get("query_cache"),
            feeds=FeedSpec.from_dict(feeds) if feeds else None,
        )
