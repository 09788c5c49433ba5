"""Service-layer metrics: what the server and its gateway count.

:class:`ServiceStats` is the :class:`~repro.metrics.counters.OpCounters`
counterpart for the serving layer — a mutable tally the
:class:`~repro.service.server.StreamServer` and its
:class:`~repro.service.gateway.FeedGateway` update on every enqueue,
micro-batch and frame, cheap enough to live on the hot path.  It holds
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
from dataclasses import asdict, dataclass
from typing import Dict, Optional


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
    #: Checkpoint writes that failed (the previous checkpoint stays;
    #: ``last_error`` holds only the latest cause).
    checkpoint_failures: int = 0
    #: Reportable facts published to subscribers/clients.
    facts_emitted: int = 0
    #: Events subscriptions dropped, oldest first, because their
    #: consumer fell ``max_pending`` events behind.
    subscriber_events_dropped: int = 0
    #: Poison rows quarantined to the dead-letter file.
    rows_quarantined: int = 0
    #: Quarantined rows the dead-letter file could not record (the
    #: write failed; ``last_error`` holds the latest cause).
    dead_letter_failures: int = 0
    #: Journal ops replayed during crash recovery at startup.
    ops_replayed: int = 0
    #: Journal ops that recovery skipped because they failed to re-apply.
    replay_errors: int = 0
    #: Live gateway subscribers (WebSocket connections).
    gateway_subscribers: int = 0
    #: WebSocket frames delivered to subscribers.
    gateway_frames_sent: int = 0
    #: Dirty-segment marks coalesced because the segment was already
    #: pending on a (slow) connection — each is a frame never built.
    gateway_frames_coalesced: int = 0
    #: Pending updates dropped on overflowing connections (each drop
    #: schedules a full resync snapshot instead).
    gateway_frames_dropped: int = 0
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
        """JSON-ready copy: every counter under its field name (so a
        counter added later cannot be forgotten here), plus
        ``mean_batch_rows`` and the whole process's CPU seconds so far
        (``process_cpu_s``, every thread, read now)."""
        out: Dict[str, object] = asdict(self)
        mean = self.mean_batch_rows
        out["mean_batch_rows"] = round(mean, 2) if mean is not None else None
        out["engine_cpu_s"] = round(self.engine_cpu_s, 4)
        out["process_cpu_s"] = round(time.process_time(), 4)
        return out
