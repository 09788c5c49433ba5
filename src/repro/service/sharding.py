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
parallel) and ``remote`` (each shard a replica set of socket workers
placed by a ``remote`` map — the multi-machine tier; see
:mod:`repro.service.remote` for the wire protocol and
:mod:`repro.service.cluster` for replicas, failover and placement).
They differ only in the *link* under each worker handle
(:mod:`repro.service.supervisor`); the worker engine, op table and
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
from ..core.constraint import Constraint, constraint_for_record
from ..core.engine_protocol import EngineBase
from ..core.facts import FactSet
from ..core.lattice import nonempty_subspaces
from ..core.prominence import ContextCounter
from ..core.record import Record, Table
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..query.contextual import ContextualQueryEngine
from . import faults
from .cluster import PlacementModel, ReplicaSet, shard_sort_key
from .supervisor import (
    InlineLink,
    PipeLink,
    ShardWorker,
    SupervisorPolicy,
    WorkerGaveUp,
    replay_into,
)
from .worker import _build_shard_engine

Row = Union[Mapping[str, object], Record]

#: Ingestion is pipelined in chunks of this many rows (workers process
#: chunk k+1 while the router merges chunk k); one pipe message each way
#: per chunk per worker.
_PIPELINE_CHUNK = 96

_MODES = ("serial", "process", "remote")


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


def partition_subspaces(
    keys: Sequence[int],
    n_workers: int,
    root_weight: float = _ROOT_WEIGHT,
    weights: Optional[Mapping[int, float]] = None,
) -> List[List[int]]:
    """Partition the canonical keys into ``min(n_workers, len(keys))``
    non-empty shards, balancing load greedily.

    Shard 0 receives the first key (the full space, hence the root
    pass) at ``root_weight`` node-key equivalents; each remaining key
    goes to the currently lightest shard (ties to the lowest index), so
    the root shard carries correspondingly fewer node keys and the
    slowest worker — the parallel wall-clock — stays minimal.

    ``weights`` overrides the static root/node prior with measured
    per-key costs (unlisted keys weigh 1.0) — the hook a
    :class:`~repro.service.cluster.PlacementModel` uses to seed a
    cluster placement from observed load instead of the prior.

    >>> partition_subspaces([7, 1, 2, 4, 3], 2)
    [[7, 4], [1, 2, 3]]
    >>> partition_subspaces([7, 1], 4)
    [[7], [1]]
    >>> partition_subspaces([7, 1, 2], 1)
    [[7, 1, 2]]
    >>> partition_subspaces([7, 1, 2, 4], 2, weights={7: 1.0})
    [[7, 2], [1, 4]]
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    n = min(n_workers, len(keys))
    if n == 1:
        return [list(keys)]
    shards: List[List[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    shards[0].append(keys[0])
    loads[0] = (
        root_weight if weights is None else float(weights.get(keys[0], 1.0))
    )
    for index, key in enumerate(keys[1:]):
        # Seed every shard before balancing so none ends up empty.
        target = index + 1 if index + 1 < n else min(
            range(n), key=loads.__getitem__
        )
        shards[target].append(key)
        loads[target] += (
            1.0 if weights is None else float(weights.get(key, 1.0))
        )
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
        self.table = sharded.table
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
        super().__init__(
            _RouterQueryView(sharded),
            context_counter=sharded.context_counter,
        )
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

    def _fast_statistics(
        self, constraint: Constraint, subspace: int
    ) -> Optional[Tuple[int, int]]:
        """Planner statistics: router counter for ``|σ_C|`` plus one
        ``top_k(limit=0)`` probe of the owning worker's scoring index.
        A counter-covered constraint is within ``d̂``, so the worker
        answers without materialising anything."""
        ctx = self._counted_context(constraint)
        if ctx is None:
            return None
        if ctx == 0:
            return 0, 0
        owner = self._sharded._shard_of.get(subspace)
        if owner is None:
            return None
        return ctx, self._top_k(owner, constraint, subspace)[1]


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
        (socket replica sets; requires ``remote``).
    remote:
        Placement map ``{shard_name: [host:port, ...]}`` assigning each
        shard a replica set of socket workers (see
        :mod:`repro.service.cluster`).  Shard names sort numerically
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
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if remote:
            remote = {
                str(name): [str(a) for a in addresses]
                for name, addresses in dict(remote).items()
            }
            if not all(remote.values()):
                raise ValueError(
                    "every remote shard needs at least one host:port replica"
                )
            if mode == "process":
                # The constructor default; a placement map implies the
                # remote mode without callers having to say it twice.
                mode = "remote"
            if mode != "remote":
                raise ValueError(
                    f"a remote placement map requires mode='remote', "
                    f"got {mode!r}"
                )
            n_workers = len(remote)
        elif mode == "remote":
            raise ValueError(
                "mode='remote' needs a remote placement map "
                "({shard: [host:port, ...]})"
            )
        self.remote = remote or None
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if op_timeout <= 0:
            raise ValueError("op_timeout must be > 0 seconds")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        config = config or DiscoveryConfig()
        if not score and (config.tau is not None or config.top_k is not None):
            raise ValueError(
                "tau/top_k reporting needs prominence scores; "
                "score=False would silently report nothing"
            )
        self.schema = schema
        self.config = config
        self.score = score
        self.mode = mode
        self.chunk_size = chunk_size
        self.op_timeout = op_timeout
        self.max_restarts = max_restarts
        self._policy = SupervisorPolicy(op_timeout, max_restarts)
        #: True once the circuit breaker fell back to in-router serial
        #: execution (the pool keeps serving, just without parallelism).
        self.degraded = False
        #: Committed arrival/deletion ops in order, as ``(op, payload)``
        #: pairs of the worker op table — the rebuild source for
        #: restarts, degrades, replica joins and rebalance handoffs.
        #: Kept only for workers that can be lost (its memory cost).
        self._oplog: List[Tuple[str, object]] = []
        self._track_oplog = mode != "serial"
        #: Fault counters of workers discarded by a degrade.
        self._restart_base = 0
        self._retry_base = 0
        self._failover_base = 0
        self.table = Table(schema)
        self.context_counter = ContextCounter(
            schema.n_dimensions, config.max_bound_dims
        )
        keys = canonical_subspace_keys(schema, config)
        self.shards = partition_subspaces(keys, n_workers)
        self.n_workers = len(self.shards)
        self._root_key = keys[0]
        #: Live per-shard cost model fed by every chunk's worker
        #: replies; prices placements and plans rebalances (applied as
        #: snapshot-handoffs in remote mode, advisory elsewhere).
        self.placement = PlacementModel(root_weight=_ROOT_WEIGHT)
        if self.remote is not None:
            # Deterministic shard-name → worker-index mapping; a map
            # with more pools than maintained keys leaves the extra
            # pools unused (shards are clamped to the key count).
            self._remote_order = sorted(self.remote, key=shard_sort_key)[
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
        self._cons_memo: Dict[Tuple[object, ...], Tuple[Constraint, ...]] = {}
        self._workers = self._spawn_workers()
        self._closed = False

    def _spawn_workers(self):
        specs = [
            self._worker_spec(shard, w) for w, shard in enumerate(self.shards)
        ]
        if self.mode == "remote":
            return [
                ReplicaSet(
                    w,
                    self.remote[self._remote_order[w]],
                    dict(spec, faults=faults.active_dicts()),
                    op_timeout=self.op_timeout,
                    oplog=self._oplog,
                )
                for w, spec in enumerate(specs)
            ]
        if self.mode == "process":
            import multiprocessing as mp

            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            ctx = mp.get_context(method)
            links = [PipeLink(w, spec, ctx) for w, spec in enumerate(specs)]
        else:
            links = [InlineLink(_build_shard_engine(spec)) for spec in specs]
        return [
            ShardWorker(w, link, self._policy, self._oplog)
            for w, link in enumerate(links)
        ]

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
    # Streaming API (Engine protocol; observe/observe_many/update come
    # from EngineBase)
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
        tid = int(removed.tid)
        try:
            for worker in self._workers:
                worker.call("delete", tid)
        except WorkerGaveUp as crash:
            # The degraded replacements rebuilt from the oplog *before*
            # this deletion (it commits below), so every one of them —
            # including those that acked over the pipe pre-crash, now
            # rebuilt fresh — needs it applied exactly once here.
            self._degrade(crash)
            for worker in self._workers:
                worker.call("delete", tid)
        if self._track_oplog:
            self._oplog.append(("delete", tid))
        self.context_counter.unregister(removed)
        return removed

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

    def _cons_seq(self, record: Record) -> Tuple[Constraint, ...]:
        """``C^t`` in walk order, memoised per dims tuple (mirrors the
        algorithms' ``constraint_cache``)."""
        cached = self._cons_memo.get(record.dims)
        if cached is None:
            if len(self._cons_memo) >= 16384:
                self._cons_memo.pop(next(iter(self._cons_memo)))
            cached = self._cons_memo[record.dims] = tuple(
                constraint_for_record(record, mask)
                for mask in self.context_counter.masks
            )
        return cached

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
        placement = self.placement
        for w, reply in enumerate(replies):
            # Scored-marginal EWMA + queue depth per shard: the inputs
            # the PlacementModel prices rebalance candidates with.
            placement.observe(
                w,
                len(records),
                reply[4],
                weight=self._shard_weight(w),
                queue_depth=len(self._workers[w].pending_ops()),
            )
        # Each reply's flat (mask, subspace[, skyline]) columns as one
        # integer matrix; an arrival's facts are a column slice of each.
        columns = [
            np.asarray(reply[1 : 3 if reply[3] is None else 4], dtype=np.int64)
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
            facts.add_cells(self._cons_seq(record), positions, merged[1])
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
        self._restart_base += sum(w.restarts for w in old)
        self._retry_base += sum(w.chunks_retried for w in old)
        self._failover_base += sum(s.failovers for s in self._replica_sets())
        for worker in old:
            worker.close()
        replacements = []
        for w, shard in enumerate(self.shards):
            engine = _build_shard_engine(self._worker_spec(shard, w))
            replay_into(engine.apply, self._oplog)
            if merging is not None and w < delivered:
                engine.ingest(merging)
            worker = ShardWorker(w, InlineLink(engine), self._policy)
            worker.busy_seconds = old[w].busy_seconds
            for payload in old[w].pending_ops():
                worker.submit_rows(payload)
            replacements.append(worker)
        self._workers = replacements
        self.degraded = True
        # Inline workers share the router's fate: the rebuild source is
        # no longer needed, free it.
        self._track_oplog = False
        self._oplog = []

    def _replica_sets(self):
        """The pool's :class:`~repro.service.cluster.ReplicaSet`s —
        the workers of a remote pool until it degrades, else none."""
        remote = self.mode == "remote" and not self.degraded
        return self._workers if remote else ()

    def fault_counters(self) -> Dict[str, int]:
        """Supervision tallies (surfaced through ``ServiceStats``)."""
        return {
            "worker_restarts": self._restart_base
            + sum(w.restarts for w in self._workers),
            "chunks_retried": self._retry_base
            + sum(w.chunks_retried for w in self._workers),
            "replica_failovers": self._failover_base
            + sum(s.failovers for s in self._replica_sets()),
            "degraded": int(self.degraded),
        }

    # ------------------------------------------------------------------
    # Placement: per-shard load breakdown + cost-fed rebalancing
    # ------------------------------------------------------------------
    def _shard_weight(self, w: int) -> float:
        """Static weighted key load of shard ``w`` (the prior the
        placement model normalises its observed rates by)."""
        return sum(
            _ROOT_WEIGHT if key == self._root_key else 1.0
            for key in self.shards[w]
        )

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard operational breakdown — key counts, busy seconds,
        queue depth, the placement model's EWMA, and (remote mode) live
        replica membership — surfaced through
        :class:`~repro.metrics.service.ServiceStats` so operators and
        the placement model see the same numbers."""
        out: List[Dict[str, object]] = []
        for w, worker in enumerate(self._workers):
            entry: Dict[str, object] = {
                "shard": w,
                "keys": len(self.shards[w]),
                "root": self._root_key in self.shards[w],
                "weight": self._shard_weight(w),
                "busy_seconds": round(worker.busy_seconds, 6),
                "queue_depth": len(worker.pending_ops()),
                "restarts": worker.restarts,
                "chunks_retried": worker.chunks_retried,
                "ewma_seconds_per_row": self.placement.rate(w),
            }
            if self._replica_sets():
                entry["replicas"] = worker.replicas
                entry["failovers"] = worker.failovers
            out.append(entry)
        return out

    def rebalance(self, apply: bool = True) -> List["Move"]:
        """Plan (and in remote mode execute) placement moves.

        The :class:`~repro.service.cluster.PlacementModel` prices the
        current assignment from its observed per-shard EWMAs and emits
        greedy :class:`~repro.service.cluster.Move`s while the predicted
        wall-clock improves.  With ``apply=True`` on a healthy remote
        pool the moves run as snapshot-handoff reconfigures: each
        affected replica set installs its new key list and rebuilds
        deterministically from the committed op log (call between
        batches — never with chunks in flight).  Other modes (and
        ``apply=False``) return the plan without touching workers.
        The merge rank is global and unchanged, so a rebalanced pool
        stays output-identical to the unsharded engine."""
        self._check_open()
        moves = self.placement.rebalance_plan(self.shards, self._root_key)
        if not moves or not apply or self.mode != "remote" or self.degraded:
            return moves
        shards = [list(shard) for shard in self.shards]
        touched = set()
        for move in moves:
            shards[move.src].remove(move.key)
            shards[move.dst].append(move.key)
            touched.add(move.src)
            touched.add(move.dst)
        for w in touched:
            # Keep each shard's key list in canonical order so worker
            # emission order stays a subsequence of the global rank.
            shards[w].sort(key=self._rank_of.__getitem__)
        self.shards = shards
        self._shard_of = {
            key: w for w, shard in enumerate(shards) for key in shard
        }
        try:
            for w in sorted(touched):
                self._workers[w].reconfigure(shards[w])
        except WorkerGaveUp as crash:
            # A replica set died mid-handoff: the degrade path rebuilds
            # every shard from the op log against the new assignment.
            self._degrade(crash)
        return moves

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

    def _derive_spec(self):
        """The declarative :class:`~repro.api.spec.EngineSpec` that
        rebuilds this composition via :func:`repro.api.open_engine`."""
        from ..api.spec import EngineSpec, ShardingSpec

        # Only the pools actually serving a shard (a placement map with
        # more pools than maintained keys is clamped at construction).
        remote = (
            {name: list(self.remote[name]) for name in self._remote_order}
            if self.remote is not None
            else None
        )
        return EngineSpec(
            schema=self.schema,
            algorithm="svec",
            config=self.config,
            score=self.score,
            sharding=ShardingSpec(
                workers=self.n_workers,
                mode=self.mode,
                chunk_size=self.chunk_size,
                op_timeout=self.op_timeout,
                max_restarts=self.max_restarts,
                remote=remote,
            ),
        )

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
        out["placement"] = self.placement.snapshot()
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
