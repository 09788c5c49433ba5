"""Asyncio streaming front-end: bounded queue, micro-batches, drain.

:class:`StreamServer` wraps any
:class:`~repro.core.engine_protocol.Engine` — in-proc, sharded,
windowed, aggregate, or any composition built by
:func:`repro.api.open_engine` — behind an asyncio ingest pipeline:

* **bounded ingest queue** — ``await ingest(row)`` blocks once
  ``queue_limit`` rows are waiting, so fast producers feel backpressure
  instead of ballooning memory;
* **work-conserving micro-batching** — the consumer takes whatever is
  queued (up to ``batch_max``) into one batch and never waits for more:
  the next batch forms while the engine is busy, so batches grow with
  load by themselves and an idle server answers at once.  The batch
  reaches ``facts_for_many`` in slices (one row; one ``chunk_size``
  chunk on a sharded router), and each ``S_t`` is folded and dropped
  as its slice returns, so only one slice's fact sets are ever alive —
  the batch keeps just each arrival's record and reportable facts;
* **fact subscriptions** — any number of consumers iterate
  ``async for event in server.subscribe()`` to receive each arrival's
  reportable facts as they are discovered;
* **checkpointing** — per the engine spec's
  :class:`~repro.api.spec.CheckpointPolicy`, a snapshot
  (:func:`repro.extensions.snapshot.save_engine`, written atomically via
  a temp file) is taken every ``interval`` seconds and once more on
  shutdown;
* **graceful drain** — ``stop()`` (default ``drain=True``) lets every
  queued row be discovered, flushes subscribers, checkpoints, and only
  then parks the consumer;
* an optional **NDJSON-over-TCP listener** (:meth:`serve_tcp`): one JSON
  object per line — a bare row (or ``{"op": "ingest", "row": …}``)
  answers ``{"tid": …, "facts": […]}``; ``delete`` / ``stats`` /
  ``ping`` / ``shutdown`` ops drive the service remotely (the CLI
  ``serve`` / ``ingest`` commands speak this protocol).

The engine itself stays single-threaded: each micro-batch or delete is
one job (engine call, feed fold, journal append + commit) on the
server's one engine thread — discovery order, and therefore output, is
exactly the enqueue order, and no ``fsync`` runs on the event loop.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

from ..core.facts import SituationalFact
from ..core.prominence import select_reportable
from ..core.record import Record
from ..metrics.memory import process_rss_mb
from ..metrics.service import ServiceStats
from .feeds import FeedStore

_STOP = object()

#: Longest NDJSON line a TCP client may send (asyncio's default stream
#: limit); a longer one is answered with an error and the connection
#: closes.
MAX_LINE_BYTES = 1 << 16

#: Flat names of the ``stats`` reply that ``benchmarks/e2e`` (``report.py``,
#: ``harness.py``) reads, each derived from the engine's stats tree:
#: ``name: (section of the tree, or None for its top level, key)``.  A
#: key the composition lacks reads 0 — an unsharded engine has no fault
#: counters, an uncached one no query cache.
_FLAT_NAMES = {
    "worker_restarts": (None, "worker_restarts"),
    "chunks_retried": (None, "chunks_retried"),
    "replica_failovers": (None, "replica_failovers"),
    "degraded": (None, "degraded"),
    "query_cache_hits": ("query_cache", "hits"),
    "query_cache_misses": ("query_cache", "misses"),
    "query_cache_evictions": ("query_cache", "evictions"),
}


def _settle(future, result=None, error=None) -> None:
    """Resolve a caller's future (fire-and-forget ops have none)."""
    if future is not None and not future.done():
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)


@dataclass
class FactEvent:
    """One processed arrival, as delivered to subscribers: the record
    and its *reportable* facts (the engine config's ``τ``/top-k
    policy).

    The arrival's full ``S_t`` is not carried: the feed tier folds it
    inside the engine job, and an event may wait in a subscription
    buffer of up to ``max_pending`` events, where a whole fact set
    (hundreds of facts) per event would dwarf what it reports.
    """

    record: Record
    facts: List[SituationalFact] = field(default_factory=list)

    @property
    def tid(self) -> int:
        return self.record.tid


class Subscription:
    """Async iterator over :class:`FactEvent`; obtained from
    :meth:`StreamServer.subscribe`, detached by :meth:`close` (or
    automatically when the server stops).

    ``max_pending`` bounds the delivery buffer: a subscriber consuming
    slower than the ingest rate loses the *oldest* undelivered events
    (counted in :attr:`dropped`) instead of growing memory without
    limit — the ingest side's ``queue_limit`` backpressure would
    otherwise be defeated by one stalled consumer.
    """

    def __init__(
        self, server: "StreamServer", only_facts: bool, max_pending: int
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._server = server
        self._only_facts = only_facts
        self._max_pending = max_pending
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False
        #: Events dropped because the subscriber fell too far behind.
        self.dropped = 0

    def _publish(self, event: FactEvent) -> None:
        if self._closed:
            return
        if self._only_facts and not event.facts:
            return
        while self._queue.qsize() >= self._max_pending:
            try:
                self._queue.get_nowait()
                self.dropped += 1
                self._server.stats.subscriber_events_dropped += 1
            except asyncio.QueueEmpty:  # pragma: no cover - racy guard
                break
        self._queue.put_nowait(event)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._server._subscriptions.discard(self)
            self._queue.put_nowait(_STOP)

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> FactEvent:
        event = await self._queue.get()
        if event is _STOP:
            raise StopAsyncIteration
        return event


class StreamServer:
    """Async micro-batching ingestion front-end over a discovery engine.

    Parameters
    ----------
    engine:
        Any :class:`~repro.core.engine_protocol.Engine` (e.g. from
        :func:`repro.api.open_engine`): the server drives it through
        ``facts_for_many`` / ``delete`` and validates rows against its
        ``schema`` (facts are rendered over ``discovery_schema``, which
        differs for aggregate engines).
    queue_limit:
        Ingest-queue bound; ``ingest`` awaits (backpressure) when full.
    batch_max:
        Micro-batch size cap: rows per engine job, group commit and
        feed repair pass.  The engine sees the batch one slice at a time
        (one row; one ``chunk_size`` chunk on a sharded router), so this
        bounds the ops per job, not how many ``S_t`` are alive.
    dead_letter_path:
        NDJSON file receiving quarantined poison rows — rows that crash
        discovery are retried individually and, still failing, recorded
        here with their error context instead of aborting the batch.
    conn_timeout:
        Per-connection read timeout (seconds) on the TCP front-end; an
        idle or wedged client is disconnected instead of holding its
        handler forever.  ``None`` disables.

    Durability has no option here: the server reads
    ``engine.spec.checkpoint``, the policy
    :func:`~repro.service.journal.recover_engine` restores from.  With
    its ``journal_dir`` set, every accepted ingest/delete is appended
    and committed *before* its event is acknowledged, so a killed
    server recovers exactly (snapshot + journal suffix).  Feeds have
    none either: a :class:`~repro.service.feeds.FeedStore` is built
    from ``engine.spec.feeds`` when that section is set.
    """

    def __init__(
        self,
        engine,
        *,
        queue_limit: int = 1024,
        batch_max: int = 256,
        dead_letter_path: Optional[str] = None,
        conn_timeout: Optional[float] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if conn_timeout is not None and conn_timeout <= 0:
            raise ValueError("conn_timeout must be > 0 seconds")
        self.engine = engine
        spec = engine.spec
        #: The engine spec's :class:`~repro.api.spec.CheckpointPolicy`
        #: (``None``: no snapshots, no journal).
        self.checkpoint_policy = spec.checkpoint
        self.queue_limit = queue_limit
        self.batch_max = batch_max
        self.dead_letter_path = dead_letter_path
        self.conn_timeout = conn_timeout
        #: The read fan-out tier, built when the engine spec carries a
        #: feeds section.
        self.feeds: Optional[FeedStore] = None
        if spec.feeds is not None:
            self.feeds = FeedStore.for_engine(engine, spec.feeds)
            # Window evictions / aggregate retractions reach the feed
            # repair pass through the middleware retraction hooks.
            self.feeds.attach(engine)
        self._feed_listeners: List = []
        #: Live :class:`~repro.service.journal.JournalWriter` while
        #: running (``None`` without ``journal_dir``).
        self.journal = None
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self._checkpointer: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Task] = None
        #: One worker thread runs every engine job (batch, delete,
        #: checkpoint, query, stats snapshot) in submission order —
        #: nothing else serialises them.  Not the loop's shared pool,
        #: which spawns threads on back-to-back submissions.  Whether
        #: the thread gets its own malloc arena is process policy:
        #: ``repro-facts serve`` caps glibc at one
        #: (:func:`repro.cli.use_one_malloc_arena`).
        self._engine_thread: Optional[ThreadPoolExecutor] = None
        self._subscriptions: set = set()
        self._tcp_servers: List[asyncio.AbstractServer] = []
        self._stopped = asyncio.Event()
        self._running = False
        #: Last engine-side processing failure (surfaced in stats; rows
        #: of a failed batch are dropped, waiting callers see the
        #: exception).
        self.last_error: Optional[Exception] = None
        #: Set once, by the fail-stop in :meth:`_run`: why every later
        #: write is refused.
        self._write_error: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the consumer (and the checkpointer, if configured)."""
        if self._running:
            raise RuntimeError("StreamServer already started")
        policy = self.checkpoint_policy
        if policy is not None and policy.journal_dir:
            from .journal import JournalWriter

            # Resumes sequence numbering past any existing segments
            # (truncating a torn tail a previous crash left behind).
            self.journal = JournalWriter(
                policy.journal_dir,
                fsync=policy.journal_fsync,
                segment_max_bytes=policy.journal_segment_bytes,
            )
        if self.feeds is not None and len(self.engine) and not len(self.feeds):
            # Recovered/pre-loaded engine with empty feeds: the sidecar
            # restores them iff its stamp matches the live engine
            # version; anything else (stale, missing, corrupt) rebuilds
            # from the engine in one planner batch.
            if policy is None or not self.feeds.load_sidecar(
                policy.path + ".feeds", self.engine
            ):
                self.feeds.rebuild(self.engine)
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._engine_thread = ThreadPoolExecutor(max_workers=1)
        self._stopped.clear()
        self._running = True
        self._consumer = asyncio.create_task(self._run())
        if policy is not None and policy.interval:
            self._checkpointer = asyncio.create_task(self._checkpoint_loop())
        self.stats.start_rss_mb = process_rss_mb().get("rss_mb")

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) every queued row is
        processed and a final checkpoint is written first."""
        if not self._running:
            return
        self._running = False
        if drain:
            await self._queue.join()
        if self._checkpointer is not None:
            self._checkpointer.cancel()
            try:
                await self._checkpointer
            except asyncio.CancelledError:
                pass
            self._checkpointer = None
        await self._queue.put(_STOP)
        await self._consumer
        self._consumer = None
        if drain and self.checkpoint_policy is not None:
            await self._checkpoint()
        # Waits out a periodic checkpoint cancelled mid-write, so the
        # journal is never closed under its anchor.
        self._engine_thread.shutdown()
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        for sub in list(self._subscriptions):
            sub.close()
        for server in self._tcp_servers:
            server.close()
            await server.wait_closed()
        self._tcp_servers.clear()
        self._stopped.set()

    async def drain(self) -> None:
        """Wait until every row enqueued so far has been discovered."""
        await self._queue.join()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes (e.g. a TCP ``shutdown``)."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Ingestion API
    # ------------------------------------------------------------------
    async def ingest(self, row: Mapping[str, object]) -> None:
        """Enqueue one row (awaits under backpressure).  Raises
        :class:`~repro.core.schema.SchemaError` for rows that do not
        match the engine schema — validation happens here so a bad row
        cannot poison a whole micro-batch later."""
        self._check_running()
        self.engine.schema.project_row(row)
        await self._queue.put(("row", row, None))
        self.stats.note_enqueue(self._queue.qsize())

    async def ingest_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            await self.ingest(row)

    async def ingest_wait(self, row: Mapping[str, object]) -> FactEvent:
        """Enqueue one row and await its discovery result."""
        self._check_running()
        self.engine.schema.project_row(row)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(("row", row, future))
        self.stats.note_enqueue(self._queue.qsize())
        return await future

    async def delete(self, tid: int) -> None:
        """Enqueue a deletion (ordered with the surrounding arrivals)."""
        self._check_running()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(("delete", tid, future))
        await future

    def subscribe(
        self, only_facts: bool = True, max_pending: int = 65536
    ) -> Subscription:
        """Register a fact-stream consumer (``only_facts`` skips
        arrivals whose reportable set is empty; ``max_pending`` bounds
        the per-subscriber buffer, dropping oldest on overflow)."""
        subscription = Subscription(self, only_facts, max_pending)
        self._subscriptions.add(subscription)
        return subscription

    async def read_stats(self) -> dict:
        """Current service metrics — the reply of the TCP ``stats`` op
        and the gateway's ``GET /stats``: the server's own tallies
        (:class:`ServiceStats`), the engine's ``stats()`` tree whole
        under ``"engine"`` (work counters, shard balance, faults, query
        cache), the flat names derived from that tree (see
        ``_FLAT_NAMES``; ``shard_busy_seconds`` / ``shard_utilization``
        / ``shards`` when sharded), the feed summary, and the process's
        ``rss_mb`` / ``peak_rss_mb`` where ``/proc`` exists (beside the
        ``start_rss_mb`` tally :meth:`start` read).

        While the server runs, the snapshot is a job on the engine
        thread, queued behind the running batch: a sharded router's
        ``stats()`` asks its workers for their counters, and those round
        trips must not interleave with a batch's.  Before :meth:`start`
        and after :meth:`stop` it is read directly."""
        if self._engine_thread is None or self._stopped.is_set():
            return self._stats_snapshot()
        return await self._on_engine(self._stats_snapshot)

    def health(self) -> dict:
        """Liveness — the reply of the TCP ``health`` op and the
        gateway's ``GET /healthz``: ``ok`` is false once the server
        stopped or refuses writes after a failed journal append."""
        health = {
            "ok": self._running and self._write_error is None,
            "running": self._running,
            "table_rows": len(self.engine.table),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "degraded": self.engine.degraded,
        }
        if self.last_error is not None:
            health["last_error"] = str(self.last_error)
        return health

    def _stats_snapshot(self) -> dict:
        tree = self.engine.stats()
        snap = self.stats.snapshot()
        snap["engine"] = tree
        for name, (section, key) in _FLAT_NAMES.items():
            scope = tree.get(section, {}) if section else tree
            snap[name] = scope.get(key, 0)
        busy = tree.get("utilization")
        if busy:
            total = sum(busy)
            snap["shard_busy_seconds"] = [round(b, 4) for b in busy]
            snap["shard_utilization"] = [
                round(b / total, 3) if total else 0.0 for b in busy
            ]
            snap["shards"] = tree["shards"]
        if self.feeds is not None:
            feed_stats = self.feeds.stats()
            # Feed lag behind engine arrivals: events discovered but
            # not yet folded into feed state (0 when folding is
            # synchronous with the batch, as here).
            feed_stats["lag"] = max(
                0, self.engine.arrivals - feed_stats["applied_arrivals"]
            )
            snap["feeds"] = feed_stats
        snap.update(process_rss_mb())
        snap["table_rows"] = len(self.engine.table)
        snap["queue_depth"] = self._queue.qsize() if self._queue else 0
        if self.journal is not None:
            snap["journal_seq"] = self.journal.last_seq
        if self.last_error is not None:
            snap["last_error"] = str(self.last_error)
        return snap

    async def _on_engine(self, job):
        """Run ``job()`` on the engine thread (after every job submitted
        before it) and return its result; its thread CPU time adds to
        ``stats.engine_cpu_s``."""

        def timed():
            start = time.thread_time()
            try:
                return job()
            finally:
                self.stats.engine_cpu_s += time.thread_time() - start

        return await asyncio.get_running_loop().run_in_executor(
            self._engine_thread, timed
        )

    def _check_running(self) -> None:
        if not self._running:
            raise RuntimeError("StreamServer is not running")
        if self._write_error is not None:
            raise self._refusal()

    def _refusal(self) -> RuntimeError:
        """The answer to a write after the fail-stop in :meth:`_run`
        (one per caller: a shared instance grows a traceback per raise)."""
        error = RuntimeError(
            "write failed, the server accepts no further writes "
            f"(restart to recover): {self._write_error!r}"
        )
        error.__cause__ = self._write_error
        return error

    # ------------------------------------------------------------------
    # Consumer: work-conserving micro-batching
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Take what is queued, run it, repeat — never wait for more.
        While a batch is in the engine its successors queue up, so the
        next batch is as large as the load made it (≤ ``batch_max``)."""
        queue = self._queue
        carry = None
        while True:
            item = carry if carry is not None else await queue.get()
            carry = None
            if item is _STOP:
                queue.task_done()
                return
            group = [item]
            while item[0] == "row" and len(group) < self.batch_max:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP or nxt[0] != "row":
                    # A deletion (or shutdown) fences the batch: rows
                    # before it must be discovered first.
                    carry = nxt
                    break
                group.append(nxt)
            if self._write_error is None:
                try:
                    if item[0] == "row":
                        await self._apply_batch(group)
                    else:
                        await self._apply_delete(item)
                except Exception as exc:
                    # Fail-stop for writes.  The job died after the
                    # engine applied it — in practice at the journal
                    # append or commit (disk full, torn record) — so its
                    # ops can never be acknowledged, and appending after
                    # a torn record would turn the torn *tail* recovery
                    # tolerates into the mid-file corruption it refuses.
                    # This group, everything queued behind it and every
                    # later write are refused; reads, drain() and stop()
                    # keep working; a restart recovers every
                    # acknowledged op.
                    self._write_error = self.last_error = exc
            if self._write_error is not None:
                for _, _, future in group:
                    _settle(future, error=self._refusal())
            for _ in group:
                queue.task_done()

    async def _apply_batch(self, batch) -> None:
        engine = self.engine
        rows = [row for _, row, _ in batch]
        config = engine.config
        feeds = self.feeds
        changed = set()

        def answer(factset):
            # Each S_t is used once, here, off the event loop: the feed
            # fold reads it whole, and only the record and its
            # reportable facts outlive the call.  The FactSet (not the
            # table) carries the record, so windowed/aggregate engines,
            # whose tables shift under eviction and group retraction,
            # stay servable.
            record = factset.record
            try:
                facts = select_reportable(factset, config)
            except Exception as exc:
                # The row is applied; only its facts are lost.
                self.last_error = exc
                return lost(record)
            if feeds is not None:
                changed.update(feeds.apply_event(record, factset))
            return "ok", (record, facts)

        def lost(record):
            # An applied row whose S_t is gone: the feeds queue it, in
            # arrival order, for a refresh from the engine at repair.
            if feeds is not None:
                changed.update(feeds.apply_event(record, None))
            return "lost", record

        def job():
            outcomes = []
            # One row per call; one chunk on a sharded router, whose
            # workers pipeline inside a chunk.  Only one slice's S_t are
            # alive at a time.
            size = engine.chunk_size
            for start in range(0, len(rows), size):
                part = rows[start:start + size]
                before = engine.arrivals
                try:
                    fact_sets = engine.facts_for_many(part)
                except Exception as exc:
                    # Salvage instead of aborting: quarantine the poison
                    # row(s) of this slice and keep every healthy one.
                    self.last_error = exc
                    outcomes += self._salvage_batch(
                        answer, lost, part, before
                    )
                else:
                    outcomes += [answer(fs) for fs in fact_sets]
                    # Gone before the next slice's call.
                    del fact_sets
            if feeds is not None:
                # One repair pass for the lost arrivals and any window
                # evictions the batch triggered, priced against the
                # post-batch engine state (repair queries the engine).
                changed.update(feeds.repair(engine))
            if self.journal is not None:
                for row, (kind, _) in zip(rows, outcomes):
                    if kind != "quarantined":
                        self.journal.append_ingest(
                            row if isinstance(row, Mapping) else dict(row)
                        )
                # One durability point per micro-batch (group commit):
                # an event is only acknowledged once its op is journaled.
                self.journal.commit()
            return outcomes

        outcomes = await self._on_engine(job)
        if changed:
            self._publish_feed_changes(changed)
        emitted = 0
        accepted = 0
        for (_, _, future), (kind, result) in zip(batch, outcomes):
            if kind == "quarantined":
                _settle(future, error=result)
            else:
                accepted += 1
                if kind == "lost":
                    # Applied to the engine, but its facts are
                    # unrecoverable (its slice failed after applying
                    # it, or its selection failed): acknowledge with
                    # an empty fact set (the op is journaled; state is
                    # exact).
                    event = FactEvent(result, [])
                else:
                    event = FactEvent(*result)
                    emitted += len(event.facts)
                _settle(future, event)
                for subscription in list(self._subscriptions):
                    subscription._publish(event)
        self.stats.note_batch(accepted, emitted)

    def _salvage_batch(self, answer, lost, part, before):
        """Recover from a failed ``facts_for_many`` call on one slice.

        The engine's monotone ``arrivals`` counter (read into ``before``
        just before the failed call) tells exactly how many rows of the
        slice were applied before the failure — their states are in,
        only their fact sets are lost.  The remaining rows are retried
        one at a time, so one poison row costs itself — not its
        slice-mates.  Earlier slices of the batch were answered and
        folded already and are not touched.  Returns one outcome per
        row of ``part``, folded into the feeds in row order:
        ``answer(factset)``, ``lost(record)`` for applied rows with lost
        facts, or ``("quarantined", error)`` (counted and dead-lettered
        here).
        """
        engine = self.engine
        applied = max(0, min(engine.arrivals - before, len(part)))
        outcomes = []
        for index, row in enumerate(part):
            if index < applied:
                outcomes.append(lost(self._record_for(row, before + index)))
                continue
            pre = engine.arrivals
            try:
                (factset,) = engine.facts_for_many([row])
            except Exception as row_exc:
                if engine.arrivals > pre:
                    # Applied but its facts were lost mid-flight.
                    outcomes.append(lost(self._record_for(row, pre)))
                else:
                    self.stats.rows_quarantined += 1
                    self._dead_letter(row, row_exc)
                    outcomes.append(("quarantined", row_exc))
            else:
                outcomes.append(answer(factset))
                del factset
        return outcomes

    def _record_for(self, row, tid: int) -> Record:
        """A best-effort :class:`Record` for an applied row whose fact
        set was lost (only its identity reaches subscribers)."""
        made = self.engine.table.make_record(row)
        return Record(tid, made.dims, made.values, made.raw)

    def _dead_letter(self, row, error: Exception) -> None:
        """Append one quarantined row to the dead-letter NDJSON file.
        A failed write is counted (``dead_letter_failures``) and becomes
        ``last_error``, but never takes the consumer down."""
        if not self.dead_letter_path:
            return
        entry = {
            "time": time.time(),
            "error": str(error),
            "error_type": type(error).__name__,
            "row": row if isinstance(row, Mapping) else repr(row),
        }
        try:
            with open(self.dead_letter_path, "a") as fh:
                fh.write(json.dumps(entry, default=repr) + "\n")
                fh.flush()
        except OSError as exc:
            self.stats.dead_letter_failures += 1
            self.last_error = exc

    async def _apply_delete(self, item) -> None:
        _, tid, future = item

        def job():
            try:
                removed = self.engine.delete(tid)
            except Exception as exc:
                # E.g. an unknown tid: nothing was applied, so nothing
                # is journaled and only this caller hears of it.
                return exc, None
            changed = None
            if self.feeds is not None:
                self.feeds.note_retracted(removed)
                changed = self.feeds.repair(self.engine)
            if self.journal is not None:
                self.journal.append_delete(tid)
                self.journal.commit()
            return removed, changed

        removed, changed = await self._on_engine(job)
        if isinstance(removed, Exception):
            _settle(future, error=removed)
        else:
            self.stats.deletes += 1
            if changed:
                self._publish_feed_changes(changed)
            _settle(future, removed)

    # ------------------------------------------------------------------
    # Feed tier
    # ------------------------------------------------------------------
    def add_feed_listener(self, listener) -> None:
        """Register ``listener(changed_segment_keys)``; called on the
        event loop after each batch/delete that changed feed state
        (the gateway's change signal)."""
        self._feed_listeners.append(listener)

    def _publish_feed_changes(self, changed: set) -> None:
        for listener in list(self._feed_listeners):
            listener(changed)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_policy.interval)
            await self._checkpoint()

    async def _checkpoint(self) -> None:
        from ..extensions.snapshot import save_engine

        if self._write_error is not None:
            # The engine holds ops the journal refused (and their
            # callers were told so): not a state to persist.
            return
        path = self.checkpoint_policy.path

        def write() -> None:
            # save_engine writes crash-consistently (temp + fsync +
            # atomic replace + directory fsync): an interruption at any
            # byte leaves the previous checkpoint untouched.
            seq = self.journal.last_seq if self.journal is not None else None
            save_engine(self.engine, path, journal_seq=seq)
            if self.feeds is not None:
                # Sidecar stamped with the engine version the feeds
                # describe; a mismatch on restore triggers a rebuild.
                self.feeds.save_sidecar(
                    path + ".feeds", self.engine.version
                )
            if seq is not None:
                # Anchor segment rotation: ops <= seq are now durable in
                # the snapshot, their segments can be pruned.  Inside
                # the job: every journal write happens on the engine
                # thread, never beside an append.
                self.journal.checkpoint(seq)

        try:
            await self._on_engine(write)
        except Exception as exc:
            # A failed checkpoint must not kill the service: the
            # previous one is intact and the journal keeps growing.
            self.last_error = exc
            self.stats.checkpoint_failures += 1
            return
        self.stats.checkpoints += 1

    async def _run_query(self, message: dict) -> dict:
        """Answer one forward-query op off the event loop.

        Payload: ``{"op": "query", "q": "<constraint | measures>",
        "kind": "skyline" | "skyband" | "prominence", "k": int}``.
        ``skyline``/``skyband`` reply with live tids (ascending arrival
        order for kernel-backed engines); ``prominence`` replies with
        the score and context size.  Runs on the engine thread so a
        query never races a micro-batch; cached engines
        (``spec.query_cache``) answer repeats without touching rows.
        """
        from ..query.parser import parse_query

        kind = message.get("kind", "skyline")
        text = message["q"]

        def run() -> dict:
            queries = self.engine.query()
            constraint, subspace = parse_query(text, queries.schema)
            if kind == "skyline":
                records = queries.skyline(constraint, subspace)
                return {"tids": [record.tid for record in records]}
            if kind == "skyband":
                k = int(message.get("k", 2))
                records = queries.skyband(constraint, subspace, k)
                return {"tids": [record.tid for record in records], "k": k}
            if kind == "prominence":
                return {
                    "prominence": queries.prominence(constraint, subspace),
                    "context_size": queries.context_size(constraint),
                }
            raise ValueError(f"unknown query kind {kind!r}")

        return await self._on_engine(run)

    # ------------------------------------------------------------------
    # NDJSON-over-TCP front-end
    # ------------------------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for NDJSON clients; returns the asyncio server (its
        first socket's ``getsockname()`` reveals an ephemeral port)."""
        self._check_running()
        server = await asyncio.start_server(
            self._handle_client, host, port, limit=MAX_LINE_BYTES
        )
        self._tcp_servers.append(server)
        return server

    async def _handle_client(self, reader, writer) -> None:
        from ..core.schema import SchemaError

        # Facts are stated over the discovery relation (differs from the
        # input schema only for aggregate engines).
        schema = self.engine.discovery_schema

        async def reply(payload: dict) -> None:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()

        try:
            while True:
                try:
                    if self.conn_timeout is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), self.conn_timeout
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # Idle/wedged client: free the handler instead of
                    # holding it (and its buffers) forever.
                    break
                except ValueError:
                    # StreamReader refused a line past the limit and
                    # the stream may now sit mid-line: answer, close.
                    await reply(
                        {"error": f"line longer than {MAX_LINE_BYTES} bytes"}
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except ValueError:
                    await reply({"error": "invalid JSON"})
                    continue
                op = message.get("op", "ingest") if isinstance(message, dict) else None
                if op == "ingest":
                    row = message.get("row", message)
                    if row is message and isinstance(row, dict):
                        # Bare-row form only: strip the routing key, but
                        # never from an explicit {"row": …} payload —
                        # the schema may legitimately have an "op"
                        # attribute there.
                        row = dict(row)
                        row.pop("op", None)
                    try:
                        event = await self.ingest_wait(row)
                    except (SchemaError, RuntimeError, TypeError) as exc:
                        # TypeError: non-mapping row (e.g. a bare int).
                        await reply({"error": str(exc)})
                        continue
                    except Exception as exc:
                        # A quarantined poison row surfaces its original
                        # discovery error here; the connection (and the
                        # batch-mates) live on.
                        await reply({"error": str(exc), "quarantined": True})
                        continue
                    await reply(
                        {
                            "tid": event.tid,
                            "facts": [
                                fact.to_json_dict(schema)
                                for fact in event.facts
                            ],
                        }
                    )
                elif op == "delete":
                    try:
                        await self.delete(int(message["tid"]))
                    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
                        await reply({"error": str(exc)})
                        continue
                    await reply({"deleted": int(message["tid"])})
                elif op == "query":
                    try:
                        result = await self._run_query(message)
                    except Exception as exc:
                        await reply({"error": str(exc)})
                        continue
                    await reply(result)
                elif op == "stats":
                    try:
                        stats = await self.read_stats()
                    except Exception as exc:
                        # E.g. a shard worker that could not be reached
                        # or rebuilt: the connection lives on.
                        await reply({"error": str(exc)})
                        continue
                    await reply({"stats": stats})
                elif op == "health":
                    await reply(self.health())
                elif op == "ping":
                    await reply({"ok": True})
                elif op == "shutdown":
                    await reply({"stopping": True})
                    # Pin the task: the loop only holds a weak ref and
                    # an unreferenced stop() could be collected
                    # mid-drain, leaving wait_stopped() hanging.
                    self._stop_task = asyncio.create_task(self.stop())
                    break
                else:
                    await reply({"error": f"unknown op {op!r}"})
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass
