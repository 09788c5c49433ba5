"""Service-layer metrics: ingest queue, micro-batching, shard balance.

:class:`ServiceStats` is the :class:`~repro.metrics.counters.OpCounters`
counterpart for the serving layer — a mutable tally the
:class:`~repro.service.server.StreamServer` updates on every enqueue and
every micro-batch, cheap enough to live on the hot path.  ``snapshot``
renders the derived signals operators actually watch: mean/max batch
size (is coalescing working?), the queue-depth high-water mark (is
backpressure engaging?), and per-shard busy seconds with their spread
(is the subspace partition balanced?).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence


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
    #: Cumulative busy seconds per shard (mirrors
    #: :meth:`ShardedDiscoverer.utilization`; empty for unsharded).
    shard_busy_seconds: List[float] = field(default_factory=list)
    #: Per-shard operational breakdown (key counts, busy seconds, queue
    #: depth, placement EWMA, replica membership — mirrors
    #: :meth:`ShardedDiscoverer.shard_stats`; empty for unsharded).
    #: Until this existed, only aggregate counters reached the TCP
    #: ``stats`` op; the PlacementModel and operators read shard-level
    #: load from here.
    shard_details: List[Dict[str, object]] = field(default_factory=list)
    #: Shard-worker processes restarted by the supervisor.
    worker_restarts: int = 0
    #: Ingest chunks re-sent to a restarted/rebuilt worker.
    chunks_retried: int = 0
    #: Remote replicas dropped with a surviving replica promoted.
    replica_failovers: int = 0
    #: Poison rows quarantined to the dead-letter file.
    rows_quarantined: int = 0
    #: Journal ops replayed during crash recovery at startup.
    ops_replayed: int = 0
    #: 1 once the worker pool degraded to in-router serial execution.
    degraded: int = 0
    #: Query-result-cache hits served (engines with ``query_cache``).
    query_cache_hits: int = 0
    #: Query-result-cache misses (fresh or stale-version probes).
    query_cache_misses: int = 0
    #: Query-result-cache entries evicted by the LRU.
    query_cache_evictions: int = 0
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
    #: Feed-store summary (segments/entries/lag/staleness — mirrors
    #: :meth:`repro.service.feeds.FeedStore.stats`; empty without a
    #: feeds spec).
    feeds: Dict[str, object] = field(default_factory=dict)

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

    def note_shard_utilization(self, busy_seconds: Sequence[float]) -> None:
        self.shard_busy_seconds = list(busy_seconds)

    def note_shard_details(
        self, details: Sequence[Dict[str, object]]
    ) -> None:
        self.shard_details = [dict(entry) for entry in details]

    def note_feeds(self, feed_stats: Dict[str, object]) -> None:
        self.feeds = dict(feed_stats)

    @property
    def mean_batch_rows(self) -> Optional[float]:
        if not self.batches:
            return None
        return self.processed_rows / self.batches

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready copy with the derived signals filled in: every
        scalar counter under its field name (so a counter added later
        cannot be forgotten here), plus ``mean_batch_rows``, the feed
        summary and the per-shard views when there is something to
        show."""
        out: Dict[str, object] = {
            f.name: value
            for f in fields(self)
            if not isinstance(value := getattr(self, f.name), (list, dict))
        }
        mean = self.mean_batch_rows
        out["mean_batch_rows"] = round(mean, 2) if mean is not None else None
        if self.feeds:
            out["feeds"] = dict(self.feeds)
        busy = self.shard_busy_seconds
        if busy:
            total = sum(busy)
            out["shard_busy_seconds"] = [round(b, 4) for b in busy]
            out["shard_utilization"] = [
                round(b / total, 3) if total else 0.0 for b in busy
            ]
        if self.shard_details:
            out["shards"] = [dict(entry) for entry in self.shard_details]
        return out
