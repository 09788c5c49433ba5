"""Worker side of the shard pool: one engine, one op table, one loop.

Whatever carries the bytes — nothing (serial mode), a pipe to a child
process, a framed socket — a shard worker is a :class:`_ShardEngine`
answering ``(op, payload)`` requests.  Every transport shares:

* :attr:`_ShardEngine.OPS` — **the** op table.  Adding an op is adding
  one entry: the router-side handle validates against it, both worker
  loops dispatch through it, ``replay`` re-applies logged pairs by it;
* :func:`serve` — the worker loop (recv → ``worker.op`` fault hook →
  apply → ``worker.reply`` fault hook → send), run by the pipe entry
  point and the socket server alike, so the chaos suite drives either
  with the same fault specs;
* :func:`_build_shard_engine` — the one construction path from the
  router's worker spec, for every mode and the degrade fallback.
"""

from __future__ import annotations

import os
import pickle
import time
from time import perf_counter
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint
from ..core.schema import TableSchema
from . import faults

#: Ingest reply: per-row fact counts, flat walked-mask / subspace /
#: skyline-size columns (skyline ``None`` when unscored), busy seconds.
IngestReply = Tuple[
    List[int], List[int], List[int], Optional[List[int]], float
]


class ShardOp(NamedTuple):
    """One op-table entry: ``run(engine, payload) → reply``."""

    run: Callable[["_ShardEngine", object], object]
    #: True for ops that mutate shard state: the router's handle sends
    #: these to *every* replica (reads go to any one of them).
    writes: bool = False


class _ShardEngine:
    """The in-worker compute core (shared by every execution mode).
    Every op method takes the op's wire payload as its single argument
    and returns the wire reply, so :meth:`apply` needs no per-op glue."""

    def __init__(
        self,
        schema: TableSchema,
        config: DiscoveryConfig,
        shard: Sequence[int],
        score: bool,
        index: Optional[int] = None,
    ) -> None:
        from ..algorithms.s_vectorized import SVectorized

        self.algorithm = SVectorized(schema, config, shard_subspaces=shard)
        self.score = score
        self.shard = list(shard)
        #: Position in the pool (fault scoping, diagnostics).
        self.index = index
        #: Applied-op tallies (served to ``stats`` probes; replication
        #: lag is read off ``rows_applied``).
        self.rows_applied = 0
        self.deletes_applied = 0
        self.busy_seconds = 0.0
        self._query_engine = None

    def ingest(self, rows: List[Mapping[str, object]]) -> IngestReply:
        start = perf_counter()
        algorithm = self.algorithm
        algorithm.reserve(len(rows))
        counts: List[int] = []
        masks: List[int] = []
        subs: List[int] = []
        skys: Optional[List[int]] = [] if self.score else None
        walked = algorithm.masks_top_down
        for row in rows:
            facts = algorithm.process(row)
            # svec emits S_t as cells: positions along C^t × subspaces,
            # sent as the walked mask at each position (not the
            # constraint's bound mask, which None values collapse), so
            # the router rebuilds the very same cells.
            _, positions, subspaces = facts.cells()
            masks.extend(walked[i] for i in positions.tolist())
            subs.extend(subspaces.tolist())
            if skys is not None:
                skys.extend(algorithm.skyline_column(facts).tolist())
            counts.append(len(facts))
        busy = perf_counter() - start
        self.rows_applied += len(rows)
        self.busy_seconds += busy
        return counts, masks, subs, skys, busy

    def delete(self, tid: int) -> Tuple[str, int]:
        self.algorithm.retract(tid)
        self.deletes_applied += 1
        return ("ok", tid)

    def counters(self, _payload: object = None) -> Dict[str, int]:
        return self.algorithm.counters.snapshot()

    def _queries(self):
        """The worker-side query engine (kernels over this worker's full
        replicated columnar history), built once."""
        if self._query_engine is None:
            from ..query.contextual import ContextualQueryEngine

            self._query_engine = ContextualQueryEngine(self.algorithm)
        return self._query_engine

    def skyline_tids(self, query: Tuple[Tuple[object, ...], int]) -> List[int]:
        """``(values, subspace)`` → one contextual skyline from this
        shard's stores (pickle-light: tids only; the router re-projects
        records).  Every worker replicates the full row history, so
        non-maintained subspaces answer exactly here too, via the
        columnar kernels."""
        values, subspace = query
        skyline = self._queries().skyline(Constraint(tuple(values)), subspace)
        return sorted(record.tid for record in skyline)

    def skyband_tids(self, query) -> List[int]:
        """``(values, subspace, k, limit)`` → one k-skyband, optionally
        bounded: the router receives at most ``limit`` tids instead of
        the whole band (``None`` = all)."""
        values, subspace, k, limit = query
        records = self._queries().skyband(
            Constraint(tuple(values)), subspace, k
        )
        tids = sorted(record.tid for record in records)
        return tids if limit is None else tids[:limit]

    def top_k_stats(self, query) -> Tuple[int, int, List[int]]:
        """``(values, subspace, limit)`` → ``(|σ_C|, |λ_M(σ_C)|,
        first-limit skyline tids)`` — the statistics push-down.
        ``limit=0`` is the planner's pure statistics probe (O(1) off the
        scoring index when the pair is covered); ``limit=None`` returns
        every skyline tid."""
        values, subspace, limit = query
        constraint = Constraint(tuple(values))
        queries = self._queries()
        ctx = queries.context_size(constraint)
        size = queries._skyline_size_indexed(constraint, subspace)
        if size is not None and limit == 0:
            return ctx, size, []
        skyline = queries.skyline(constraint, subspace)
        tids = sorted(record.tid for record in skyline)
        return ctx, len(tids), tids if limit is None else tids[:limit]

    def replay(self, ops: Sequence[Tuple[str, object]]) -> Tuple[str, int]:
        """Deterministic state rebuild (restart, degrade): re-apply a
        slice of the router's committed op prefix — the log entries
        *are* ``(op, payload)`` pairs."""
        for op, payload in ops:
            self.apply(op, payload)
        return ("replayed", len(ops))

    #: The one op table: wire op name → engine method.
    OPS: Dict[str, ShardOp] = {
        "rows": ShardOp(ingest, writes=True),
        "delete": ShardOp(delete, writes=True),
        "counters": ShardOp(counters),
        "skyline": ShardOp(skyline_tids),
        "skyband": ShardOp(skyband_tids),
        "top_k": ShardOp(top_k_stats),
        "replay": ShardOp(replay, writes=True),
    }

    @classmethod
    def op(cls, name: str) -> ShardOp:
        """The table entry for ``name``; ``ValueError`` if unknown (the
        router-side handles check this *before* sending, so a typo
        fails the same way on every link)."""
        entry = cls.OPS.get(name)
        if entry is None:
            raise ValueError(f"unknown shard op {name!r}")
        return entry

    def apply(self, op: str, payload: object = None) -> object:
        """Run one op from the table."""
        return self.op(op).run(self, payload)


def _build_shard_engine(spec: Mapping[str, object]) -> _ShardEngine:
    """Build a shard engine from the router's worker spec — the only
    construction path, so every knob in the spec reaches every mode.
    A router of an earlier version also sends a ``"sweep_index"`` key;
    it is ignored whatever its value (the store picks its own side)."""
    schema = TableSchema(
        dimensions=tuple(spec["dimensions"]),
        measures=tuple(spec["measures"]),
        preferences=dict(spec["preferences"]),
    )
    return _ShardEngine(
        schema,
        DiscoveryConfig(**spec["config"]),
        list(spec["shard"]),
        bool(spec["score"]),
        index=spec.get("worker_index"),
    )


def _apply_worker_fault(fault) -> bool:
    """Act on a fired fault inside a worker process; returns True when
    the current op/reply must be swallowed (``drop``)."""
    if fault is None:
        return False
    if fault.action == "crash":
        # A real crash, not an orderly unwind: skip every finaliser.
        os._exit(fault.exit_code)
    if fault.action == "delay":
        time.sleep(fault.delay)
        return False
    return fault.action == "drop"


def serve(recv: Callable[[], Tuple[str, object]], send, worker) -> None:
    """The worker loop, shared by the pipe and socket transports:
    ``recv()`` yields the next ``(op, payload)`` request, ``send(reply)``
    ships a reply, ``worker`` exposes ``index`` (fault scoping) and
    ``apply(op, payload)``.  Requests are answered strictly FIFO — one
    reply per request, in order — which is what lets the router pair
    plain sends and receives; a dropped op or reply is silence its
    ``op_timeout`` notices.  Returns on ``stop`` or a vanished peer."""
    while True:
        try:
            op, payload = recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            return
        if op == "stop":
            return
        if _apply_worker_fault(
            faults.fire("worker.op", worker=worker.index, op=op)
        ):
            continue
        reply = worker.apply(op, payload)
        if _apply_worker_fault(
            faults.fire("worker.reply", worker=worker.index, op=op)
        ):
            continue
        try:
            send(reply)
        except OSError:
            return


def _shard_worker_main(conn, spec) -> None:
    """Entry point of one shard process: serve ops off the pipe FIFO.

    ``spec`` may carry ``worker_index`` (fault scoping) and ``faults``
    (the router's armed fault list, forwarded so injection behaves the
    same under ``fork`` — which would otherwise inherit router state —
    and ``spawn``, which would otherwise have none).
    """
    faults.clear()
    if spec.get("faults"):
        faults.install(spec["faults"])
    serve(conn.recv, conn.send, _build_shard_engine(spec))
    conn.close()
