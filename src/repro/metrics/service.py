"""Service-layer metrics: what the server and its gateway count.

:class:`ServiceStats` is the :class:`~repro.metrics.counters.OpCounters`
counterpart for the serving layer — a mutable tally the
:class:`~repro.service.server.StreamServer` and its
:class:`~repro.service.gateway.FeedGateway` update on every enqueue,
micro-batch and frame, cheap enough to live on the hot path, and through
:meth:`ServiceStats.fail` on every failure they survive.  It holds
only their own counts: what the engine counts (work counters, shard
balance, supervision faults, the query cache) stays in
``engine.stats()``, which
:meth:`~repro.service.server.StreamServer.read_stats` reads once and
returns beside these.  ``snapshot`` adds the derived signal operators
watch here: the mean batch size (is coalescing working?), and CPU time
beside wall time — the engine thread's share (``engine_cpu_s``) of the
process's (``process_cpu_s``), which busy neighbours on a shared host
do not inflate the way they inflate wall time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

#: Every failure the service survives is counted in one class (a flat
#: ``stats`` key) by :meth:`ServiceStats.fail`, each from one thread:
#: the server's engine thread or the event loop.
FAILURE_CLASSES = (
    "rows_quarantined",  # engine thread: discovery refused the row
    "rows_lost",  # engine thread: applied, its facts gone
    "dead_letter_failures",  # engine thread: a quarantined row unrecorded
    "checkpoint_failures",  # loop: unwritten; engine, at start: unreadable
    "journal_failures",  # loop: the write that tripped the fail-stop
    "replay_errors",  # engine thread, at start: journal ops not re-applied
    "request_errors",  # loop: any other error answer (the client's)
    "subscriber_events_dropped",  # loop: a lagging subscriber's oldest
    "gateway_frames_dropped",  # loop: a slow socket's backlog, resynced
)


@dataclass
class ServiceStats:
    """Mutable tally of streaming-service work."""

    #: Rows accepted into the ingest queue.
    enqueued: int = 0
    #: Rows taken through the engine.
    processed_rows: int = 0
    #: Micro-batches executed (``observe_many`` calls).
    batches: int = 0
    #: Largest single micro-batch.
    batch_rows_max: int = 0
    #: Highest observed ingest-queue depth (backpressure indicator).
    queue_depth_max: int = 0
    #: Deletions applied.
    deletes: int = 0
    #: Snapshot checkpoints written.
    checkpoints: int = 0
    #: Reportable facts published to subscribers/clients.
    facts_emitted: int = 0
    #: Journal ops replayed during crash recovery at startup.
    ops_replayed: int = 0
    #: Where ``start()`` restored the engine's state from: ``fresh``,
    #: ``checkpoint``, ``journal`` or ``checkpoint+journal``.
    recovered_from: str = "fresh"
    #: Whether that restore dropped a torn journal tail.
    torn_tail: bool = False
    #: Live gateway subscribers (WebSocket connections).
    gateway_subscribers: int = 0
    #: WebSocket frames delivered to subscribers.
    gateway_frames_sent: int = 0
    #: Dirty-segment marks coalesced because the segment was already
    #: pending on a (slow) connection — each is a frame never built.
    gateway_frames_coalesced: int = 0
    #: HTTP requests answered by the gateway (REST reads).
    gateway_http_requests: int = 0
    #: Resident set size (MiB) once ``start()`` ran: the import floor
    #: plus the state the engine opened or recovered with (``None``
    #: where ``/proc`` is missing).
    start_rss_mb: Optional[float] = None
    #: CPU seconds the engine thread spent in server jobs (batches,
    #: deletes, checkpoints, queries, stats snapshots): the engine's
    #: share of ``process_cpu_s``, which :meth:`snapshot` reads.
    engine_cpu_s: float = 0.0
    #: Count and latest cause per failure class (fixed keys, so a
    #: snapshot on one thread copies them while the other records), and
    #: the latest cause of any class.
    failures: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAILURE_CLASSES, 0)
    )
    failure_causes: Dict[str, Optional[str]] = field(
        default_factory=lambda: dict.fromkeys(FAILURE_CLASSES)
    )
    last_error: Optional[str] = None

    def fail(self, kind: str, cause: object = None, n: int = 1) -> None:
        """Count ``n`` failures of class ``kind``; a ``cause`` becomes its
        latest and ``last_error``, unless a client caused it (a
        ``request_errors``) or there is none (a drop): neither may hide
        the server's own latest failure."""
        self.failures[kind] += n
        if cause is not None:
            self.failure_causes[kind] = str(cause)
            if kind != "request_errors":
                self.last_error = str(cause)

    def note_enqueue(self, queue_depth: int) -> None:
        self.enqueued += 1
        if queue_depth > self.queue_depth_max:
            self.queue_depth_max = queue_depth

    def note_batch(self, n_rows: int, n_facts: int) -> None:
        self.batches += 1
        self.processed_rows += n_rows
        self.facts_emitted += n_facts
        if n_rows > self.batch_rows_max:
            self.batch_rows_max = n_rows

    @property
    def mean_batch_rows(self) -> Optional[float]:
        if not self.batches:
            return None
        return self.processed_rows / self.batches

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready copy: every counter and failure class under its
        name (so a counter added later cannot be forgotten here), plus
        ``mean_batch_rows`` and the whole process's CPU seconds so far
        (``process_cpu_s``, every thread, read now)."""
        out: Dict[str, object] = asdict(self)
        out.update(out.pop("failures"))
        mean = self.mean_batch_rows
        out["mean_batch_rows"] = round(mean, 2) if mean is not None else None
        out["engine_cpu_s"] = round(self.engine_cpu_s, 4)
        out["process_cpu_s"] = round(time.process_time(), 4)
        return out
