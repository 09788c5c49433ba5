"""Asyncio streaming front-end: bounded queue, micro-batches, drain.

:class:`StreamServer` wraps any
:class:`~repro.core.engine_protocol.Engine` — in-proc, sharded,
windowed, aggregate, or any composition built by
:func:`repro.api.open_engine` — behind an asyncio ingest pipeline:

* **bounded ingest queue** — ``await ingest(row)`` blocks once
  ``queue_limit`` rows are waiting, so fast producers feel backpressure
  instead of ballooning memory;
* **work-conserving micro-batching** — the consumer takes whatever is
  queued (up to ``batch_max`` ops, rows and deletes alike) into one
  batch and never waits for more: the next batch forms while the
  engine is busy, so batches grow with load by themselves and an idle
  server answers at once.  The batch
  reaches ``facts_for_many`` in slices (one row; one ``chunk_size``
  chunk on a sharded router), and each ``S_t`` is folded and dropped
  as its slice returns, so only one slice's fact sets are ever alive —
  the batch keeps just each arrival's record and reportable facts;
* **fact subscriptions** — any number of consumers iterate
  ``async for event in server.subscribe()`` to receive each arrival's
  reportable facts as they are discovered;
* **checkpointing** — per the engine spec's
  :class:`~repro.api.spec.CheckpointPolicy`, one document (the engine's
  snapshot plus a ``feeds`` section, written atomically via a temp file
  by :func:`repro.extensions.snapshot.write_snapshot`) is taken every
  ``interval`` seconds the engine changed and once more on shutdown,
  and :meth:`StreamServer.start` restores the engine it is given, and
  its feeds, from that document plus the journal suffix;
* **graceful drain** — ``stop()`` (default ``drain=True``) lets every
  queued row be discovered, flushes subscribers, checkpoints, and only
  then parks the consumer;
* an optional **NDJSON-over-TCP listener** (:meth:`serve_tcp`): one JSON
  object per line, one reply line from :meth:`answer` — a bare row (or
  ``{"op": "ingest", "row": …}``) answers ``{"tid": …, "facts": […]}``;
  ``delete`` / ``query`` / ``stats`` / ``health`` / ``ping`` /
  ``shutdown`` ops drive the service remotely, and any failure answers
  ``{"error": …}`` (the CLI ``serve`` / ``ingest`` commands speak this
  protocol).

The engine itself stays single-threaded: each micro-batch is one job
on the server's one engine thread — its ops applied in queue order
through :func:`~repro.service.journal.apply_ops`, one feed repair, one
journal commit — so discovery order, and therefore output, is exactly
the enqueue order, and no ``fsync`` runs on the event loop.
"""

from __future__ import annotations

import asyncio
import json
import os
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
from .journal import (
    REPLAY_BLOCK,
    JournalWriter,
    apply_ops,
    journal_origin,
    list_segments,
    read_ops,
)

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


def _integer(message: dict, name: str, default=None) -> int:
    """``message[name]`` if it is a JSON integer (a bool is not)."""
    value = message.get(name, default)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


async def cancel_tasks(tasks: set) -> None:
    """Cancel ``tasks``, wait them out, empty the set.  A connection
    handler ends quietly on it: asyncio's streams report a cancelled one."""
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    tasks.clear()


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
    (counted in :attr:`dropped` and the server's
    ``subscriber_events_dropped``) instead of growing memory without
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
        # Both ends run on the event loop: the queue is non-empty here.
        while self._queue.qsize() >= self._max_pending:
            self._queue.get_nowait()
            self.dropped += 1
            self._server.stats.fail("subscriber_events_dropped")
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
        Micro-batch size cap: ops (rows and deletes) per engine job,
        group commit and feed repair pass.  The engine sees the batch
        one slice at a time (one row; one ``chunk_size`` chunk on a
        sharded router), so this bounds the ops per job, not how many
        ``S_t`` are alive.
    dead_letter_path:
        NDJSON file receiving quarantined poison rows — rows that crash
        discovery are retried individually and, still failing, recorded
        here with their error context instead of aborting the batch.
    conn_timeout:
        Per-connection read timeout (seconds) on the TCP front-end; an
        idle or wedged client is disconnected instead of holding its
        handler forever.  ``None`` disables.

    Durability has no option here: the server reads
    ``engine.spec.checkpoint``, and :meth:`start` restores the engine
    from what that policy left on disk (snapshot + journal suffix), so
    serve a fresh engine.  With its ``journal_dir`` set, every accepted
    ingest/delete is appended and committed *before* its event is
    acknowledged, so a killed server recovers exactly.  Feeds have
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
        self._conn_tasks: set = set()
        self._stopped = asyncio.Event()
        self._running = False
        #: Set once, by the fail-stop in :meth:`_run`: why every later
        #: write is refused.
        self._write_error: Optional[Exception] = None
        #: ``engine.version`` the last checkpoint written covers; ``None``
        #: until one is, so the first after :meth:`start` always writes
        #: (and prunes the journal it replayed).
        self._checkpointed: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Restore the engine and its feeds from the checkpoint policy's
        durable state (:meth:`_restore`), then spin up the consumer (and
        the checkpointer, if configured)."""
        if self._running:
            raise RuntimeError("StreamServer already started")
        self._engine_thread = ThreadPoolExecutor(max_workers=1)
        # A long replay, a feed rebuild and the journal's fsyncs stay
        # off the loop.
        await self._on_engine(self._restore)
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._stopped.clear()
        self._running = True
        self._consumer = asyncio.create_task(self._run())
        policy = self.checkpoint_policy
        if policy is not None and policy.interval:
            self._checkpointer = asyncio.create_task(self._checkpoint_loop())
        self.stats.start_rss_mb = process_rss_mb().get("rss_mb")

    def _restore(self) -> None:
        """Restore the engine from its checkpoint policy's durable state,
        counting into ``self.stats``: the snapshot (rows, tids,
        ``arrivals``: the engine's own spec is the composition) and its
        ``feeds`` section, then the journal suffix through the served
        batch's own :meth:`_step`; rebuild feeds the section did not
        restore; open the journal.  What it refuses, and how, is in
        docs/service.md, *Recovery*."""
        from ..extensions.snapshot import read_snapshot, restore_snapshot

        engine, stats, feeds = self.engine, self.stats, self.feeds
        policy = self.checkpoint_policy
        path, journal_dir = (policy.path, policy.journal_dir) if policy else (None, None)
        segments = []
        if journal_dir and os.path.isdir(journal_dir):
            segments = list_segments(journal_dir)
        checkpointed = path is not None and os.path.exists(path)
        if engine.arrivals and (checkpointed or segments):
            raise ValueError(
                f"{path if checkpointed else journal_dir!r} holds durable "
                f"state, but the server's engine already holds "
                f"{engine.arrivals} arrivals, so a replay would apply it "
                f"twice: serve a fresh engine (open_engine(spec))"
            )
        seq, sources, doc, error = 0, [], None, None
        if checkpointed:
            try:
                doc = read_snapshot(path)
            except ValueError as exc:
                error = exc
        if doc is not None:
            restore_snapshot(engine, doc)
            seq = doc["journal_seq"]
            sources.append("checkpoint")
            # Written by the same atomic write as the rows, but loaded
            # only into the engine it describes: absent (an
            # engine.snapshot() file), under another feed spec, or
            # stamped with a version the engine restored under this
            # spec does not reach (a smaller window evicted rows), the
            # section is rebuilt.
            if (
                feeds is not None
                and "feeds" in doc
                and doc["spec"].feeds == feeds.spec
                and doc.get("engine_version") == list(engine.version)
            ):
                try:
                    feeds.restore_doc(doc["feeds"])
                except ValueError as exc:
                    stats.fail("checkpoint_failures", f"checkpoint {path!r}: {exc}")
        elif (checkpointed or segments) and journal_origin(segments) != (0, 0):
            raise ValueError(
                f"checkpoint {path!r} is "
                f"{f'unreadable ({error})' if checkpointed else 'missing'}, "
                f"and no journal holds the whole history to replay in full "
                f"(journal dir {journal_dir!r}: pruned, begun after a "
                f"checkpoint, or none); restore an intact checkpoint file"
            )
        elif error is not None:
            stats.fail("checkpoint_failures", error)
        # Feeds describe the engine once their section loaded or both
        # are empty; otherwise (a section absent, not matching, or not
        # loaded; a pre-loaded engine) they are rebuilt after the
        # replay.
        stale = feeds is not None and len(engine) and not len(feeds)
        if segments:
            ops, stats.torn_tail = read_ops(journal_dir, after_seq=seq)
            pairs = [(o.get("op"), o.get("row", o.get("tid"))) for o in ops]
            # With feeds, one op a step, the finest batching a server
            # has: no segment's version ends below what the crashed
            # server served, so a pre-crash cursor never matches.
            results = []
            for part in [pairs] if feeds is None else [[p] for p in pairs]:
                results += self._step(part, REPLAY_BLOCK, replay=True)[0]
            for op, (outcome, _, value) in zip(ops, results):
                if outcome == "failed":
                    cause = f"{type(value).__name__}: {value}"
                    stats.fail("replay_errors", f"seq {op.get('seq')}: {cause}")
                else:  # ok, or lost: applied either way
                    stats.ops_replayed += 1
        if stats.ops_replayed:
            sources.append("journal")
        stats.recovered_from = "+".join(sources) or "fresh"
        if stale:
            feeds.rebuild(engine)
        if journal_dir:
            # Resumes numbering past the replayed segments (truncating
            # a torn tail a previous crash left behind).
            self.journal = JournalWriter(
                journal_dir,
                fsync=policy.journal_fsync,
                segment_max_bytes=policy.journal_segment_bytes,
            )
            if self.journal.last_seq < seq:
                # A directory emptied beside the checkpoint: anchor it
                # there, or its ops would number into the range replay
                # skips as covered.
                self.journal.checkpoint(seq)
            self.journal.mark_origin(engine.arrivals, len(engine))

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) every queued row is
        processed and a final checkpoint is written first."""
        if not self._running:
            return
        self._running = False
        if drain:
            await self._queue.join()
        if self._checkpointer is not None:
            await cancel_tasks({self._checkpointer})
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
        # Handlers first: from Python 3.12.1 wait_closed() also waits
        # for every connection to close.
        await cancel_tasks(self._conn_tasks)
        for server in self._tcp_servers:
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
        await self._queue.put(("ingest", row, None))
        self.stats.note_enqueue(self._queue.qsize())

    async def ingest_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            await self.ingest(row)

    async def ingest_wait(self, row: Mapping[str, object]) -> FactEvent:
        """Enqueue one row and await its discovery result."""
        self._check_running()
        self.engine.schema.project_row(row)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(("ingest", row, future))
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
        return {
            "ok": self._running and self._write_error is None,
            "running": self._running,
            "table_rows": len(self.engine.table),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "degraded": self.engine.degraded,
            "last_error": self.stats.last_error,
        }

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
        while True:
            group = [await queue.get()]
            while group[-1] is not _STOP and len(group) < self.batch_max:
                try:
                    group.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stop = group[-1] is _STOP
            batch = group[:-1] if stop else group
            if batch and self._write_error is None:
                try:
                    await self._apply_batch(batch)
                except Exception as exc:  # journal_failures: fail-stop
                    # Fail-stop for writes.  The job died after the
                    # engine applied it — in practice at the journal
                    # append or commit (disk full, torn record) — so its
                    # ops can never be acknowledged, and appending after
                    # a torn record would turn the torn *tail* recovery
                    # tolerates into the mid-file corruption it refuses.
                    # This group, everything queued behind it and every
                    # later write are refused; reads, drain() and stop()
                    # keep working; a restart recovers every
                    # acknowledged op.  Each refusal is a request_errors.
                    self._write_error = exc
                    self.stats.fail("journal_failures", exc)
            if self._write_error is not None:
                for _, _, future in batch:
                    _settle(future, error=self._refusal())
            for _ in group:
                queue.task_done()
            if stop:
                return

    def _step(self, ops, block, replay=False):
        """The engine step of a served batch and of journal replay: apply
        ``(kind, payload)`` ops through
        :func:`~repro.service.journal.apply_ops`, fold each applied row
        into the feeds as it returns, note each delete, then run one
        repair pass.  Returns ``(outcome, tid, value)`` per op, an
        applied row's value being ``(record, facts)``, and the changed
        segment keys.  A ``replay`` selects no facts (nobody reads
        them), and a row that fails it keeps its tid, so later deletes
        name the tuples they named."""
        engine, feeds = self.engine, self.feeds
        changed, results = set(), []
        # One row per call; one chunk on a sharded router, whose workers
        # pipeline inside a chunk.  Only one slice's S_t are alive at a
        # time (no zip() here: its reused result tuple would keep the
        # last S_t alive into the next call).
        outcomes = apply_ops(engine, ops, block)
        for kind, _ in ops:
            outcome, tid, value = next(outcomes)
            if outcome == "failed":
                if replay and kind == "ingest":
                    engine.resume_at(tid + 1)
            elif kind == "delete":
                if feeds is not None:
                    feeds.note_retracted(value)
            else:
                # The S_t (not the table: windowed/aggregate tables
                # shift) carries the record; a lost row is still live,
                # as a layer that evicts has one-row slices.  Only the
                # record and its reportable facts outlive the op.
                factset, facts = (value if outcome == "ok" else None), []
                record = engine.table.get(tid) if factset is None else factset.record
                if factset is not None and not replay:
                    try:
                        facts = select_reportable(factset, engine.config)
                    except Exception as exc:  # rows_lost: applied, facts gone
                        outcome, value, factset = "lost", exc, None
                if outcome == "lost":
                    # Acked with no facts; repair refreshes its pairs.
                    self.stats.fail("rows_lost", value)
                if feeds is not None:
                    changed.update(feeds.apply_event(record, factset))
                value, factset = (record, facts), None
            results.append((outcome, tid, value))
        if feeds is not None:
            # For the deletes, lost arrivals and window evictions of the
            # step, priced against the post-step engine state.
            changed.update(feeds.repair(engine))
        return results, changed

    async def _apply_batch(self, batch) -> None:
        def job():
            ops = [(kind, payload) for kind, payload, _ in batch]
            results, changed = self._step(ops, self.engine.chunk_size)
            journal = self.journal
            for (kind, payload), (outcome, _, value) in zip(ops, results):
                if outcome == "failed":  # applied nothing: never journaled
                    if kind == "ingest":
                        self.stats.fail("rows_quarantined", value)
                        self._dead_letter(payload, value)
                elif journal is not None:
                    if kind == "delete":
                        journal.append_delete(payload)
                    else:
                        journal.append_ingest(payload)
            if journal is not None:
                # One durability point per micro-batch (group commit):
                # an op is only acknowledged once it is journaled.
                journal.commit()
            return results, changed

        results, changed = await self._on_engine(job)
        if changed:
            for listener in list(self._feed_listeners):
                listener(changed)
        emitted = 0
        accepted = 0
        for (kind, _, future), (outcome, _, result) in zip(batch, results):
            if outcome == "failed":
                # The caller gets its own exception (a refused delete's
                # caller only); answer() reads a quarantined row's mark.
                if kind == "ingest":
                    result.quarantined = True
                _settle(future, error=result)
            elif kind == "delete":
                self.stats.deletes += 1
                _settle(future, result)
            else:
                accepted += 1
                event = FactEvent(*result)
                emitted += len(event.facts)
                _settle(future, event)
                for subscription in list(self._subscriptions):
                    subscription._publish(event)
        if any(kind == "ingest" for kind, _, _ in batch):
            # Row batches only: a group of deletes is no batch.
            self.stats.note_batch(accepted, emitted)

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
            self.stats.fail("dead_letter_failures", exc)

    # ------------------------------------------------------------------
    # Feed tier
    # ------------------------------------------------------------------
    def add_feed_listener(self, listener) -> None:
        """Register ``listener(changed_segment_keys)``; called on the
        event loop after each batch/delete that changed feed state
        (the gateway's change signal)."""
        self._feed_listeners.append(listener)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_policy.interval)
            await self._checkpoint()

    async def _checkpoint(self) -> None:
        """Write one checkpoint document — the engine's snapshot and the
        feed standings — unless the last one written covers the
        engine's current version."""
        from ..extensions.snapshot import snapshot_doc, write_snapshot

        if self._write_error is not None:
            # The engine holds ops the journal refused (and their
            # callers were told so): not a state to persist.
            return
        path = self.checkpoint_policy.path

        def write() -> bool:
            version = self.engine.version
            if version == self._checkpointed:
                return False
            seq = self.journal.last_seq if self.journal is not None else None
            doc = snapshot_doc(self.engine, seq)
            if self.feeds is not None:
                doc["feeds"] = self.feeds.to_doc()
                # The engine version the standings describe: a restart
                # loads them only into an engine restored to it.
                doc["engine_version"] = list(version)
            # One atomic write (temp + fsync + atomic replace +
            # directory fsync): an interruption at any byte leaves the
            # previous checkpoint, feeds and all, untouched.
            write_snapshot(path, doc)
            if seq is not None:
                # Anchor segment rotation: ops <= seq are now durable in
                # the snapshot, their segments can be pruned.  Inside
                # the job: every journal write happens on the engine
                # thread, never beside an append.
                self.journal.checkpoint(seq)
            self._checkpointed = version
            return True

        try:
            wrote = await self._on_engine(write)
        except Exception as exc:  # checkpoint_failures
            # A failed checkpoint must not kill the service: the
            # previous one is intact and the journal keeps growing.
            self.stats.fail("checkpoint_failures", exc)
            return
        if wrote:
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
                k = _integer(message, "k", 2)
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
    # Op surface: one table, one error boundary
    # ------------------------------------------------------------------
    async def answer(self, message) -> dict:
        """The reply to one request: a decoded NDJSON line, or the
        gateway's ``{"op": "health"}`` / ``{"op": "stats"}``.  ``op``
        (default ``ingest``: a bare row) picks the handler in ``_OPS``.
        Any failure is the reply ``{"error": str(exc)}``, plus
        ``"quarantined": true`` when the row's batch quarantined it (and
        counted it); any other is a ``request_errors``."""
        try:
            if not isinstance(message, dict):
                raise TypeError("a request must be a JSON object")
            op = message.get("op", "ingest")
            if op not in self._OPS:
                raise ValueError(f"unknown op {op!r}")
            return await getattr(self, self._OPS[op])(message)
        except Exception as exc:  # request_errors, or rows_quarantined
            reply = {"error": str(exc)}
            if getattr(exc, "quarantined", False) is True:
                reply["quarantined"] = True
            else:
                self.stats.fail("request_errors", exc)
            return reply

    async def _op_ingest(self, message: dict) -> dict:
        row = message.get("row", message)
        if row is message:
            # Bare-row form only: strip the routing key, never from an
            # explicit {"row": …} (the schema may have an "op" attribute).
            row = {name: value for name, value in row.items() if name != "op"}
        event = await self.ingest_wait(row)
        # Facts are stated over the discovery relation (differs from the
        # input schema only for aggregate engines).
        schema = self.engine.discovery_schema
        facts = [fact.to_json_dict(schema) for fact in event.facts]
        return {"tid": event.tid, "facts": facts}

    async def _op_delete(self, message: dict) -> dict:
        tid = _integer(message, "tid")
        await self.delete(tid)
        return {"deleted": tid}

    async def _op_stats(self, message: dict) -> dict:
        return {"stats": await self.read_stats()}

    async def _op_health(self, message: dict) -> dict:
        return self.health()

    async def _op_ping(self, message: dict) -> dict:
        return {"ok": True}

    async def _op_shutdown(self, message: dict) -> dict:
        # Pinned: the loop holds only a weak ref, and a collected stop()
        # would leave wait_stopped() hanging.
        self._stop_task = asyncio.create_task(self.stop())
        return {"stopping": True}

    #: ``op`` → handler method, looked up per call: the handlers reach
    #: the server through ``ingest_wait`` / ``delete`` / ``_run_query``,
    #: which a subclass may wrap.
    _OPS = {
        "ingest": "_op_ingest", "delete": "_op_delete", "query": "_run_query",
        "stats": "_op_stats", "health": "_op_health", "ping": "_op_ping",
        "shutdown": "_op_shutdown",
    }

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
        """One reply line per line; the connection closes only past
        ``MAX_LINE_BYTES``, on a read timeout, or after ``shutdown``."""

        async def reply(payload: dict) -> None:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()

        task = asyncio.current_task()
        self._conn_tasks.add(task)
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
                    error = f"line longer than {MAX_LINE_BYTES} bytes"
                    self.stats.fail("request_errors", error)
                    await reply({"error": error})
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except (ValueError, RecursionError):
                    # RecursionError: nesting past the decoder's stack.
                    self.stats.fail("request_errors", "invalid JSON")
                    await reply({"error": "invalid JSON"})
                    continue
                answer = await self.answer(message)
                await reply(answer)
                if "stopping" in answer:
                    break
        except (ConnectionError, EOFError, asyncio.CancelledError):
            # CancelledError is stop()'s own; streams would log a re-raise.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # pragma: no cover
                pass
