"""Subspace-axis sharding: parallel ``svec`` workers behind one router.

The paper's per-arrival work factors cleanly along the measure-subspace
axis: every per-subspace decision of the vectorized STopDown engine —
Prop. 4 pruning, fact emission, maximal-constraint promotion, demotion
repair, the skyline-cardinality index — is derived from the arrival's
dominance sweep against the *registered* history, never from another
subspace's store (see :class:`~repro.algorithms.s_vectorized.\
SVectorized`).  :class:`ShardedDiscoverer` exploits that: ``N`` worker
engines each run the existing ``svec`` machinery restricted to a
partition cell of the subspace keys (the shard holding the full measure
space runs the root pass; the others run pure node passes), and the
router recombines each arrival's facts in canonical emission order —
output identical to the unsharded engine in facts, scores, op-counter
totals and deletions, which ``tests/test_sharding.py`` property-tests.

Division of labour per arrival:

* every worker registers the row into its columnar history (the sweep
  substrate is deliberately replicated — it is a small fraction of the
  per-arrival cost and keeps workers share-nothing);
* each worker walks only its own subspace keys, mutates only its own
  stores, and answers skyline cardinalities from its own scoring index;
* the router owns the canonical :class:`~repro.core.record.Table`, the
  single :class:`~repro.core.prominence.ContextCounter` (context
  cardinalities are subspace-independent, so counting them once replaces
  ``N`` duplicated counters), constraint reconstruction from the
  workers' pickle-light ``(mask, subspace, skyline)`` columns, the
  engines' one scoring call on the merged ``S_t``, and the reporting
  policy over it.

Execution modes: ``serial`` (in-process, deterministic — the testing
reference), ``process`` (one supervised OS process per worker over a
pipe, the throughput mode — NumPy sweeps and lattice walks run truly in
parallel) and ``remote`` (each shard a set of socket worker replicas
placed by a ``remote`` map — the multi-machine tier; see
:mod:`repro.service.remote` for the wire protocol).
They differ only in the *links* under each worker handle
(:mod:`repro.service.supervisor`, which also writes replication and
failover); the worker engine, op table and
serve loop are one (:mod:`repro.service.worker`).  Batched ingestion is
pipelined chunk-wise: while the workers chew on chunk ``k+1``, the
router merges, scores and ranks chunk ``k``.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint, constraints_for_record, lattice_getters
from ..core.engine_protocol import EngineBase
from ..core.facts import FactSet
from ..core.lattice import nonempty_subspaces
from ..core.prominence import ContextCounter
from ..core.record import Record, Table
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..query.contextual import ContextualQueryEngine
from .supervisor import (
    InlineLink,
    PipeLink,
    ShardWorker,
    WorkerGaveUp,
    replay_into,
)
from .worker import _build_shard_engine

Row = Union[Mapping[str, object], Record]

#: Ingestion is pipelined in chunks of this many rows (workers process
#: chunk k+1 while the router merges chunk k); one pipe message each way
#: per chunk per worker.
_PIPELINE_CHUNK = 96

#: The supervision tallies every :class:`ShardWorker` keeps.
_TALLIES = ("restarts", "chunks_retried", "failovers")


def canonical_subspace_keys(
    schema: TableSchema, config: Optional[DiscoveryConfig] = None
) -> List[int]:
    """The maintained subspace keys in canonical emission order.

    Full measure space first (the sharing substrate / root pass), then
    the remaining non-empty subspaces exactly as the unsharded engine
    orders them — the merger's sort rank and the partitioner both key
    off this list.
    """
    config = config or DiscoveryConfig()
    full = schema.full_measure_mask
    return [full] + [
        s
        for s in nonempty_subspaces(full, config.max_measure_dims)
        if s != full
    ]


#: Load weight of the root (full-space) key relative to a node key in
#: :func:`partition_subspaces` — the root pass traverses every
#: constraint and scans every µ bucket along ``C^t``, costing roughly
#: two node passes on the standard anticorrelated workloads.
_ROOT_WEIGHT = 2.0


def partition_subspaces(keys: Sequence[int], n_workers: int) -> List[List[int]]:
    """Partition the canonical keys into ``min(n_workers, len(keys))``
    non-empty shards, balancing load greedily.

    Shard 0 receives the first key (the full space, hence the root
    pass) at ``_ROOT_WEIGHT`` node-key equivalents; each remaining key
    goes to the currently lightest shard (ties to the lowest index), so
    the root shard carries correspondingly fewer node keys and the
    slowest worker — the parallel wall-clock — stays minimal.

    >>> partition_subspaces([7, 1, 2, 4, 3], 2)
    [[7, 4], [1, 2, 3]]
    >>> partition_subspaces([7, 1], 4)
    [[7], [1]]
    >>> partition_subspaces([7, 1, 2], 1)
    [[7, 1, 2]]
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    n = min(n_workers, len(keys))
    if n == 1:
        return [list(keys)]
    shards: List[List[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    shards[0].append(keys[0])
    loads[0] = _ROOT_WEIGHT
    for index, key in enumerate(keys[1:]):
        # Seed every shard before balancing so none ends up empty.
        target = index + 1 if index + 1 < n else min(
            range(n), key=loads.__getitem__
        )
        shards[target].append(key)
        loads[target] += 1.0
    return shards


# ----------------------------------------------------------------------
# Router-side queries
# ----------------------------------------------------------------------
class _RouterQueryView:
    """Algorithm-shaped view of the router's canonical state, so the
    generic :class:`~repro.query.contextual.ContextualQueryEngine`
    machinery (selection, skyband, statistics) runs router-side."""

    def __init__(self, sharded: "ShardedDiscoverer") -> None:
        self.schema = sharded.schema
        self.config = sharded.config
        self.table = sharded.table
        self.context_counter = sharded.context_counter
        self._keys = {key for shard in sharded.shards for key in shard}

    def maintained_subspaces(self) -> List[int]:
        return list(self._keys)


class ShardedQueryEngine(ContextualQueryEngine):
    """Forward contextual queries over a :class:`ShardedDiscoverer`.

    Every read pushes down to a worker: a maintained subspace goes to
    the worker *owning* its key (answered from that shard's µ stores /
    scoring index), a non-maintained one to a deterministic fallback
    worker — every worker replicates the full row history, so its
    columnar kernels answer any pair exactly.  Workers reply with
    pickle-light (bounded) tid lists or ``(|σ_C|, |λ_M|)`` statistics;
    the router re-projects records against its canonical table and
    serves ``|σ_C|`` in O(1) from its own context counter when covered.
    A crashed worker degrades-and-retries exactly like the write path.
    """

    def __init__(self, sharded: "ShardedDiscoverer") -> None:
        super().__init__(_RouterQueryView(sharded))
        self._sharded = sharded

    # -- routing -----------------------------------------------------
    def _route(self, subspace: int) -> int:
        """The worker answering queries for ``subspace``: its owner for
        maintained keys, a deterministic fallback otherwise (any worker
        holds the full history)."""
        sharded = self._sharded
        owner = sharded._shard_of.get(subspace)
        if owner is None:
            owner = subspace % len(sharded._workers)
        return owner

    def _project(self, tids: List[int]) -> List[Record]:
        by_tid = {record.tid: record for record in self._sharded.table}
        return [by_tid[tid] for tid in tids if tid in by_tid]

    # -- reads -------------------------------------------------------
    def skyline(self, constraint: Constraint, subspace: int) -> List[Record]:
        tids = self._sharded._call(
            self._route(subspace),
            "skyline",
            (tuple(constraint.values), subspace),
        )
        return self._project(tids)

    def skyband(
        self, constraint: Constraint, subspace: int, k: int
    ) -> List[Record]:
        if k < 1:
            raise ValueError("k must be >= 1")
        tids = self._sharded._call(
            self._route(subspace),
            "skyband",
            (tuple(constraint.values), subspace, k, None),
        )
        return self._project(tids)

    def _top_k(
        self, owner: int, constraint: Constraint, subspace: int
    ) -> Tuple[int, int]:
        """``(|σ_C|, |λ_M(σ_C)|)`` from one ``top_k(limit=0)`` probe."""
        ctx, sky, _tids = self._sharded._call(
            owner, "top_k", (tuple(constraint.values), subspace, 0)
        )
        return ctx, sky

    def context_size(self, constraint: Constraint) -> int:
        counted = self._counted_context(constraint)
        if counted is not None:
            return counted
        return self._top_k(self._route(0), constraint, 0)[0]

    def prominence(self, constraint: Constraint, subspace: int) -> Optional[float]:
        ctx, sky = self._top_k(self._route(subspace), constraint, subspace)
        return None if sky == 0 else ctx / sky


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ShardedDiscoverer(EngineBase):
    """Drop-in :class:`~repro.core.engine.FactDiscoverer` running the
    subspace axis across ``n_workers`` shard engines.

    Parameters
    ----------
    schema, config, score:
        As for the engine; workers always run the ``svec`` algorithm.
    n_workers:
        Requested shard count; clamped to the number of maintained
        subspace keys (every shard must own at least one).
    mode:
        ``"serial"`` (in-process), ``"process"`` or ``"remote"``
        (socket worker replicas; requires ``remote``).
    remote:
        Placement map ``{shard_name: [host:port, ...]}`` assigning each
        shard its socket worker replicas (see
        :mod:`repro.service.remote`).  Shard names sort numerically
        when numeric; the number of shards fixes the worker count.
        Supplying it implies/requires ``mode="remote"``.
    chunk_size:
        Pipelining granularity of the batched API (rows per worker
        round-trip).
    op_timeout:
        Seconds to wait on any single worker round-trip before the
        worker is treated as hung.  Process and remote workers are
        supervised (see :mod:`repro.service.supervisor`), which keeps
        the full arrival/deletion op log in router memory — the rebuild
        source, roughly doubling row storage.
    max_restarts:
        Per-worker circuit breaker: one more crash after this many
        restarts degrades the whole pool to in-router serial execution
        (``degraded`` flips True; service keeps answering) instead of
        dying.
    """

    kind = "sharded"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        n_workers: int = 2,
        mode: str = "process",
        score: bool = True,
        chunk_size: int = _PIPELINE_CHUNK,
        op_timeout: float = 60.0,
        max_restarts: int = 3,
        remote: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        from ..api.spec import EngineSpec, ShardingSpec

        if remote and mode == "process":
            # The constructor default; a placement map implies the
            # remote mode without callers having to say it twice.
            mode = "remote"
        config = config or DiscoveryConfig()
        #: The declarative spec rebuilding this composition; building
        #: it validates the arguments.
        self.spec = EngineSpec(
            schema=schema,
            algorithm="svec",
            config=config,
            score=score,
            sharding=ShardingSpec(
                workers=len(remote) if remote else n_workers,
                mode=mode,
                chunk_size=chunk_size,
                op_timeout=op_timeout,
                max_restarts=max_restarts,
                remote=remote or None,
            ),
        )
        self.schema = schema
        self.config = config
        self.score = score
        #: Committed arrival/deletion ops in order, as ``(op, payload)``
        #: pairs of the worker op table — the rebuild source for
        #: restarts and degrades (kept while :attr:`_track_oplog`).
        #: Unbounded: it holds every op since the router started, and
        #: nothing trims it (ROADMAP item 7: trim at each checkpoint,
        #: with a state transfer replacing the full replay).
        self._oplog: List[Tuple[str, object]] = []
        #: :data:`_TALLIES` of the workers a degrade discarded.
        self._retired = dict.fromkeys(_TALLIES, 0)
        self.table = Table(schema)
        self.context_counter = ContextCounter(
            schema.n_dimensions, config.max_bound_dims
        )
        keys = canonical_subspace_keys(schema, config)
        #: Subspace keys per worker, fixed at construction.
        self.shards = partition_subspaces(keys, self.spec.sharding.workers)
        self.n_workers = len(self.shards)
        self._root_key = keys[0]
        remote = self.spec.sharding.remote
        if remote is not None:
            from .remote import shard_sort_key

            # Deterministic shard-name → worker-index mapping; a map
            # with more pools than maintained keys leaves the extra
            # pools unused (shards are clamped to the key count).
            self._remote_order = sorted(remote, key=shard_sort_key)[
                : self.n_workers
            ]
        else:
            self._remote_order = None
        #: Merge rank: canonical position of each subspace key, as a
        #: column indexed by subspace bitmask.
        self._rank_of = np.zeros(1 << schema.n_measures, dtype=np.int64)
        self._rank_of[keys] = np.arange(len(keys))
        #: Owning worker index per maintained subspace key (query routing).
        self._shard_of = {
            key: w for w, shard in enumerate(self.shards) for key in shard
        }
        #: Index tables of ``C^t`` in the counter's (the workers') walk
        #: order: the merge builds each arrival's constraint axis once.
        self._ct_getters = lattice_getters(
            schema.n_dimensions, self.context_counter.masks
        )
        self._workers = self._spawn_workers()
        self._closed = False

    @property
    def mode(self) -> str:
        """``spec.sharding.mode``: where the shards run."""
        return self.spec.sharding.mode

    @property
    def chunk_size(self) -> int:
        """``spec.sharding.chunk_size``: rows per worker round-trip (and
        per ``facts_for_many`` call a server hands over)."""
        return self.spec.sharding.chunk_size

    @property
    def _track_oplog(self) -> bool:
        """Whether committed ops are logged: only for workers that can
        be lost (its memory cost) — not serial ones, nor the inline
        replacements of a degraded pool, which share the router's
        fate."""
        return self.mode != "serial" and not self.degraded

    def _spawn_workers(self) -> List[ShardWorker]:
        """One supervised handle per shard over the mode's links."""
        sharding = self.spec.sharding
        return [
            ShardWorker(
                w,
                self._links(w, self._worker_spec(shard, w)),
                self._oplog,
                sharding.op_timeout,
                sharding.max_restarts,
            )
            for w, shard in enumerate(self.shards)
        ]

    def _links(self, w: int, spec: Dict[str, object]) -> list:
        """Shard ``w``'s links, primary first.  Armed faults ride the
        first process spawn, or the primary replica only."""
        if self.mode == "remote":
            from .remote import connect_replicas

            addresses = self.spec.sharding.remote[self._remote_order[w]]
            return connect_replicas(
                w, addresses, spec, self.spec.sharding.op_timeout
            )
        if self.mode == "process":
            import multiprocessing as mp

            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            return [PipeLink(w, spec, mp.get_context(method))]
        return [InlineLink(_build_shard_engine(spec))]

    def _worker_spec(
        self, shard: Sequence[int], index: Optional[int] = None
    ) -> Dict[str, object]:
        """Pickle-light worker description (spawn-safe)."""
        return {
            "dimensions": tuple(self.schema.dimensions),
            "measures": tuple(self.schema.measures),
            "preferences": dict(self.schema.preferences),
            "config": asdict(self.config),
            "shard": list(shard),
            "score": self.score,
            "worker_index": index,
        }

    # ------------------------------------------------------------------
    # Streaming API (observe/observe_many/update come from EngineBase)
    # ------------------------------------------------------------------
    def facts_for(self, row: Row) -> FactSet:
        """Process one tuple and return the full (scored) ``S_t``."""
        return self.facts_for_many([row])[0]

    def facts_for_many(self, rows: Iterable[Row]) -> List[FactSet]:
        """Batched :meth:`facts_for`, pipelined chunk-wise across the
        workers (the router merges chunk ``k`` while the shards process
        chunk ``k+1``)."""
        self._check_open()
        out: List[FactSet] = []
        rows = iter(rows)
        pending: Optional[Tuple[List[Record], List[Mapping[str, object]]]] = None
        while True:
            try:
                chunk = list(itertools.islice(rows, self.chunk_size))
                records, payload = self._admit(chunk) if chunk else ([], [])
            except Exception:
                # A bad row (or row iterator) must not leave a
                # submitted chunk unmerged — collect it first so the
                # router, counter and workers stay consistent, exactly
                # like the unsharded engine raising mid-stream.
                if pending is not None:
                    self._merge_committed(pending)
                raise
            if chunk:
                for worker in self._workers:
                    worker.submit_rows(payload)
            if pending is not None:
                out.extend(self._merge_committed(pending))
            if not chunk:
                break
            pending = (records, payload)
        return out

    def delete(self, tid: int) -> Record:
        """Remove a previously observed tuple on every shard (§VIII)."""
        self._check_open()
        removed = self.table.delete(tid)
        self._broadcast("delete", int(removed.tid))
        self.context_counter.unregister(removed)
        return removed

    def resume_at(self, tid: int) -> None:
        """Number the next arrival ``tid`` on the router and on every
        shard (snapshot restore)."""
        self._check_open()
        self.table.resume_at(tid)
        self._broadcast("resume", tid)

    def _broadcast(self, op: str, payload: object) -> None:
        """Apply one write op on every shard, then commit it to the op
        log."""
        try:
            for worker in self._workers:
                worker.call(op, payload)
        except WorkerGaveUp as crash:
            # The degraded replacements rebuilt from the oplog *before*
            # this op (it commits below), so every one of them —
            # including those that acked over the pipe pre-crash, now
            # rebuilt fresh — needs it applied exactly once here.
            self._degrade(crash)
            for worker in self._workers:
                worker.call(op, payload)
        if self._track_oplog:
            self._oplog.append((op, payload))

    # ------------------------------------------------------------------
    # Admission + merge
    # ------------------------------------------------------------------
    def _admit(
        self, chunk: List[Row]
    ) -> Tuple[List[Record], List[Mapping[str, object]]]:
        """Append the chunk to the canonical table and render the
        pickle-light row payload the workers re-project (worker tid
        assignment tracks the router's ``Table`` counter exactly).

        Every row is validated/normalised *before* anything is
        appended: a malformed row mid-chunk must raise without mutating
        the table, or the router and the workers would desync for the
        rest of the stream.
        """
        staged: List[Record] = []
        for row in chunk:
            if isinstance(row, Record):
                staged.append(row)
            else:
                # Raises SchemaError on missing attributes or
                # non-numeric measures; tids are re-assigned on append.
                staged.append(self.table.make_record(row))
        records: List[Record] = []
        payload: List[Mapping[str, object]] = []
        for row, made in zip(chunk, staged):
            record = self.table.append(made)
            records.append(record)
            payload.append(
                row if isinstance(row, Mapping) else record.as_dict(self.schema)
            )
        return records, payload

    def _merge_committed(
        self, pending: Tuple[List[Record], List[Mapping[str, object]]]
    ) -> List[FactSet]:
        """Merge one chunk, then commit it to the op log — from this
        point a restarted worker rebuilds *with* the chunk and is never
        re-sent it (exactly-once across crashes)."""
        records, payload = pending
        facts = self._merge_chunk(records, payload)
        if self._track_oplog:
            self._oplog.append(("rows", payload))
        return facts

    def _merge_chunk(
        self,
        records: List[Record],
        payload: Optional[List[Mapping[str, object]]] = None,
    ) -> List[FactSet]:
        """Recombine one chunk's worker replies in canonical order.

        Each worker emits its facts subspace-major in *its* key order,
        which is a subsequence of the global canonical order — so the
        merge is a stable sort of per-subspace segments by global rank,
        and within a segment the worker's ``masks_top_down`` order is
        already the scalar engine's.
        """
        replies = []
        for w in range(len(self._workers)):
            try:
                replies.append(self._workers[w].result())
            except WorkerGaveUp as crash:
                # Workers 0..w-1 already delivered this (uncommitted)
                # chunk, so their degraded replacements must replay it;
                # the rest still hold it pending and answer it live.
                self._degrade(crash, merging=payload, delivered=w)
                replies.append(self._workers[w].result())
        # Each reply's flat (mask, subspace[, skyline]) columns as one
        # int32 matrix (the width of S_t's columns); an arrival's facts
        # are a column slice of each.
        columns = [
            np.asarray(reply[1 : 3 if reply[3] is None else 4], dtype=np.int32)
            for reply in replies
        ]
        counter = self.context_counter
        cursors = [0] * len(replies)
        out: List[FactSet] = []
        for i, record in enumerate(records):
            counter.register(record)
            parts = []
            for w, reply in enumerate(replies):
                start = cursors[w]
                cursors[w] = start + reply[0][i]
                parts.append(columns[w][:, start : cursors[w]])
            merged = np.concatenate(parts, axis=1)
            # Stable sort by canonical subspace rank = the merge.
            merged = merged[
                :, np.argsort(self._rank_of[merged[1]], kind="stable")
            ]
            # The counter's skeleton is the workers' masks_top_down, so
            # its positions place each mask along C^t.
            positions = counter.position_of[merged[0]]
            facts = FactSet(record)
            facts.add_cells(
                constraints_for_record(record, self._ct_getters),
                positions,
                merged[1],
            )
            if self.score:
                facts.set_scores(counter.context_column(facts), merged[2])
            out.append(facts)
        return out

    # ------------------------------------------------------------------
    # Degraded mode (circuit breaker)
    # ------------------------------------------------------------------
    def _degrade(
        self,
        crash: WorkerGaveUp,
        merging: Optional[List[Mapping[str, object]]] = None,
        delivered: int = 0,
    ) -> None:
        """Fall back to in-router serial execution after a worker spent
        its restart budget (see :class:`~repro.service.supervisor.\
WorkerGaveUp`): every shard is rebuilt deterministically from the
        committed op log behind an inline link, preserving
        utilization tallies and the submitted-unmerged chunks each dead
        worker still owed.  The pool keeps answering — just without
        parallelism — instead of dying mid-stream.

        ``merging``/``delivered`` describe a merge in progress: workers
        ``< delivered`` already delivered the currently-merging (hence
        uncommitted) chunk, so their replacements replay it; the others
        still hold it pending and will answer it live.
        """
        old = self._workers
        for name in _TALLIES:
            self._retired[name] += sum(getattr(w, name) for w in old)
        for worker in old:
            worker.close()
        replacements = []
        for w, shard in enumerate(self.shards):
            engine = _build_shard_engine(self._worker_spec(shard, w))
            replay_into(engine.apply, self._oplog)
            if merging is not None and w < delivered:
                engine.ingest(merging)
            worker = ShardWorker(w, [InlineLink(engine)])
            worker.busy_seconds = old[w].busy_seconds
            for payload in old[w].pending_ops():
                worker.submit_rows(payload)
            replacements.append(worker)
        self._workers = replacements
        self.degraded = True
        # Inline workers share the router's fate: the rebuild source is
        # no longer needed, free it.
        self._oplog = []

    def _tally(self, name: str) -> int:
        return self._retired[name] + sum(
            getattr(w, name) for w in self._workers
        )

    def fault_counters(self) -> Dict[str, int]:
        """Supervision tallies (merged into :meth:`stats`)."""
        return {
            "worker_restarts": self._tally("restarts"),
            "chunks_retried": self._tally("chunks_retried"),
            "replica_failovers": self._tally("failovers"),
            "degraded": int(self.degraded),
        }

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard operational breakdown — key counts, the static
        weighted key load :func:`partition_subspaces` balanced, busy
        seconds, queue depth, and (remote mode) live replica membership
        — surfaced as :meth:`stats`'s ``shards``."""
        out: List[Dict[str, object]] = []
        for w, worker in enumerate(self._workers):
            keys = self.shards[w]
            entry: Dict[str, object] = {
                "shard": w,
                "keys": len(keys),
                "root": self._root_key in keys,
                "weight": sum(
                    _ROOT_WEIGHT if key == self._root_key else 1.0
                    for key in keys
                ),
                "busy_seconds": round(worker.busy_seconds, 6),
                "queue_depth": len(worker.pending_ops()),
                "restarts": worker.restarts,
                "chunks_retried": worker.chunks_retried,
            }
            if self.mode == "remote" and not self.degraded:
                entry["replicas"] = worker.replicas
                entry["failovers"] = worker.failovers
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def counters(self) -> OpCounters:
        """Summed operation counters across all shards (equals the
        unsharded engine's totals — the subspace keys partition)."""
        snaps = [self._call(w, "counters") for w in range(self.n_workers)]
        return sum((OpCounters(**snap) for snap in snaps), OpCounters())

    def _call(self, w: int, op: str, payload: object = None):
        """One synchronous op on worker ``w``, with the standard
        degrade-and-retry once its restart budget is spent."""
        self._check_open()
        try:
            return self._workers[w].call(op, payload)
        except WorkerGaveUp as crash:
            self._degrade(crash)
            return self._workers[w].call(op, payload)

    @property
    def algorithm_name(self) -> str:
        return "svec"

    def query(self) -> ShardedQueryEngine:
        """Forward contextual queries, merged router-side (maintained
        subspaces answered from the owning worker's stores)."""
        self._check_open()
        return ShardedQueryEngine(self)

    def stats(self) -> Dict[str, object]:
        """Operational metrics: base engine stats plus shard balance."""
        out = super().stats()
        out["workers"] = self.n_workers
        out["mode"] = self.mode
        out["utilization"] = self.utilization()
        out["shards"] = self.shard_stats()
        out.update(self.fault_counters())
        return out

    def utilization(self) -> List[float]:
        """Cumulative busy seconds per shard (ingest compute only) —
        the service metrics read shard balance off this."""
        return [worker.busy_seconds for worker in self._workers]

    def __len__(self) -> int:
        return len(self.table)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedDiscoverer is closed")

    def __repr__(self) -> str:
        return (
            f"ShardedDiscoverer(workers={self.n_workers}, "
            f"mode={self.mode!r}, n={len(self.table)})"
        )
