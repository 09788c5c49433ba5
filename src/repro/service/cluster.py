"""Replica sets for remote shard clusters.

This is the router-side layer above the socket protocol
(:mod:`repro.service.remote`): each shard of a
:class:`~repro.service.sharding.ShardedDiscoverer` running in
``mode="remote"`` is served not by one pipe worker but by a
**replica set** — a pool of socket workers at the addresses the
``EngineSpec.sharding.remote`` placement map lists for that shard,
every one holding the same deterministic shard state.

Consistency model.  Shard workers are deterministic: identical op
streams produce identical engines, facts, and counters.  A
:class:`ReplicaSet` therefore sends every state-mutating op to every
live replica and serves any other from *any* one of them, round-robin;
a failed replica is dropped and the read retried on the next.  Failover
is promotion by position: replica 0 of the live list is the primary
(the only one the router forwards armed fault specs to, so injected
crashes exercise promotion); when it dies the next replica — already
byte-identical — takes over with zero recovery work.  Only a whole set
lost mid-stream raises :class:`~repro.service.supervisor.WorkerGaveUp`,
which the router handles like an exhausted pipe worker: degrade to
in-router execution, rebuilt from the op log, losing nothing.

Membership is fixed at construction: the set only ever shrinks, by
failover.  The shard key partition is the static one of
:func:`~repro.service.sharding.partition_subspaces`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Sequence

from .remote import SocketLink, probe_worker
from .supervisor import (
    ShardWorker,
    SupervisorPolicy,
    WorkerCrashed,
    WorkerGaveUp,
)
from .worker import _ShardEngine

__all__ = [
    "ReplicaSet",
    "cluster_status",
    "shard_sort_key",
]


def shard_sort_key(name: object):
    """Deterministic shard-name order for placement maps: numeric names
    sort numerically (``"2" < "10"``), the rest lexically after them."""
    text = str(name)
    return (0, int(text), "") if text.isdigit() else (1, 0, text)


class ReplicaSet:
    """All replicas of one shard, presented to the router as a single
    worker with the :class:`~repro.service.supervisor.ShardWorker`
    surface (``submit_rows`` / ``result`` / ``call`` / ``pending_ops``
    / ``close``) over one socket-linked handle per replica.

    Invariants the router relies on:

    * :meth:`submit_rows` **never raises** — the router's submit loop
      runs before any crash handling; a failed send surfaces at the
      next :meth:`result`, which drops that replica, and the chunk
      stays queued in ``_pending`` for the degrade path.
    * :meth:`result` collects one reply from *every* live replica (each
      owes exactly one per submitted chunk, FIFO), so the sockets stay
      in lockstep; the surviving replies are identical by determinism
      and the first is returned.
    * Reads are only issued while no chunk replies are outstanding
      (the router drains ingest before serving queries), so round-robin
      fan-out cannot interleave with chunk replies on a socket.
    """

    def __init__(
        self,
        index: int,
        addresses: Sequence[str],
        spec: Mapping[str, object],
        op_timeout: float = 60.0,
    ) -> None:
        self.index = index
        self.addresses = [str(a) for a in addresses]
        if not self.addresses:
            raise ValueError(f"replica set {index} has no addresses")
        spec = dict(spec)
        armed = spec.pop("faults", None) or []
        self._spec = spec
        # A socket link cannot be re-opened, so each replica's handle
        # gives up at its first crash; the set answers by promotion.
        self._policy = SupervisorPolicy(op_timeout=op_timeout)
        self._pending: Deque[list] = deque()
        self._rr = 0
        self.busy_seconds = 0.0
        self.failovers = 0
        # A set never restarts a replica nor re-sends a chunk (a lost
        # replica is dropped); kept at 0 for the router's fault tallies,
        # which read the same counters off every kind of worker.
        self.restarts = 0
        self.chunks_retried = 0
        self._replicas: List[ShardWorker] = []
        errors = []
        for i, address in enumerate(self.addresses):
            # Armed faults go to the primary only: replicas share the
            # worker index, so forwarding them everywhere would kill
            # the whole set at once and failover could never happen.
            try:
                self._replicas.append(
                    self._connect(address, armed if i == 0 else [])
                )
            except WorkerCrashed as exc:
                errors.append(str(exc))
        if not self._replicas:
            raise WorkerGaveUp(
                index,
                "no replica reachable (" + "; ".join(errors) + ")",
            )

    def _connect(self, address: str, armed: Sequence) -> ShardWorker:
        """Open, handshake and ``configure`` one replica."""
        link = SocketLink(self.index, address, self._policy.op_timeout)
        try:
            link.request("configure", dict(self._spec, faults=list(armed)))
        except WorkerCrashed:
            link.abandon()
            raise
        return ShardWorker(self.index, link, self._policy)

    # -- liveness ----------------------------------------------------
    @property
    def replicas(self) -> List[str]:
        """Addresses of the live replicas, primary first."""
        return [replica.link.address for replica in self._replicas]

    def _drop(self, replica: ShardWorker) -> None:
        self._replicas.remove(replica)
        replica.link.abandon()
        # Promotion is implicit: the next live replica already holds
        # the identical deterministic state.
        self.failovers += 1

    def _all(self, attempt) -> list:
        """``attempt(replica)`` on every live replica, dropping the
        ones that crash; the survivors' replies, in replica order
        (identical by determinism)."""
        replies = []
        for replica in list(self._replicas):
            try:
                replies.append(attempt(replica))
            except WorkerCrashed:
                self._drop(replica)
        return replies

    # -- the worker surface ------------------------------------------
    def submit_rows(self, rows: list) -> None:
        self._pending.append(rows)
        for replica in self._replicas:
            replica.submit_rows(rows)

    def result(self):
        replies = self._all(ShardWorker.result)
        if not replies:
            # Every replica died on this chunk (or earlier); _pending
            # is intact so the router's degrade path replays it
            # faithfully.
            raise WorkerGaveUp(
                self.index,
                f"replica set {self.index} lost every replica mid-chunk",
            )
        self._pending.popleft()
        self.busy_seconds += replies[0][4]
        return replies[0]

    def call(self, op: str, payload: object = None):
        """Write-all / read-any: an op that mutates shard state goes to
        every live replica (one ack suffices — the rest were dropped),
        any other is served by one replica, round-robin, retried on the
        next when that one fails."""
        if _ShardEngine.op(op).writes:
            replies = self._all(lambda replica: replica.call(op, payload))
            if replies:
                return replies[0]
        else:
            while self._replicas:
                replica = self._replicas[self._rr % len(self._replicas)]
                self._rr += 1
                try:
                    return replica.call(op, payload)
                except WorkerCrashed:
                    self._drop(replica)
        raise WorkerGaveUp(
            self.index,
            f"replica set {self.index}: no live replica answered {op!r}",
        )

    def pending_ops(self) -> List[list]:
        return list(self._pending)

    def close(self) -> None:
        for replica in self._replicas:
            replica.close()
        self._replicas = []


# ----------------------------------------------------------------------
# Operator-facing status probe
# ----------------------------------------------------------------------
def cluster_status(
    remote: Mapping[str, Sequence[str]], timeout: float = 2.0
) -> List[Dict[str, object]]:
    """Probe every worker in a placement map; one row per
    ``(shard, replica)`` with liveness, configured-ness, applied rows,
    replication lag (rows behind the most advanced replica of the
    shard), busy-seconds, and ping round-trip.  Unreachable workers get
    ``alive=False`` plus the error — the probe itself never raises."""
    report: List[Dict[str, object]] = []
    for shard in sorted(remote, key=shard_sort_key):
        shard_rows: List[Dict[str, object]] = []
        for address in remote[shard]:
            row: Dict[str, object] = {
                "shard": str(shard),
                "replica": str(address),
                "alive": False,
                "configured": False,
                "rows": None,
                "busy_seconds": None,
                "rtt_ms": None,
                "error": None,
            }
            try:
                stats = probe_worker(address, timeout=timeout)
            except (WorkerCrashed, OSError, ValueError) as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row.update(
                    alive=True,
                    configured=bool(stats.get("configured", False)),
                    rows=int(stats.get("rows", 0)),
                    busy_seconds=stats.get("busy_seconds", 0.0),
                    rtt_ms=round(
                        float(stats.get("rtt_seconds", 0.0)) * 1000.0, 3
                    ),
                )
            shard_rows.append(row)
        head = max((r["rows"] for r in shard_rows if r["alive"]), default=0)
        for row in shard_rows:
            row["lag"] = head - row["rows"] if row["alive"] else None
        report.extend(shard_rows)
    return report
