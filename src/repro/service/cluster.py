"""Replica sets and cost-fed placement for remote shard clusters.

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

Replica join is a deterministic re-observe: the router keeps the same
committed op log the degrade path replays (the in-memory equivalent of
the v3 snapshot + journal suffix — see
:func:`repro.service.journal.recover_engine` for the durable variant),
and :meth:`ReplicaSet.join` streams it to the new worker
(:func:`~repro.service.supervisor.replay_into`) before re-sending any
in-flight chunks.

Placement.  :class:`PlacementModel` replaces the static weights of
:func:`~repro.service.sharding.partition_subspaces` with live,
per-shard cost estimates — an EWMA of observed seconds-per-row and the
current queue depth, fed from the per-chunk worker replies (the same
numbers the router's ``stats()`` surfaces per shard).  It prices
candidate assignments by their predicted slowest shard (the litmus
rough-cost-then-execute idiom) and emits
:class:`Move` plans the router executes as snapshot-handoff
reconfigures.  With no observations it falls back to the static
root-weight prior, so cold-start placement is identical to the
classic partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, List, Mapping, Optional, Sequence

from .remote import SocketLink, probe_worker
from .supervisor import (
    ShardWorker,
    SupervisorPolicy,
    WorkerCrashed,
    WorkerGaveUp,
    replay_into,
)
from .worker import _ShardEngine

__all__ = [
    "Move",
    "PlacementModel",
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
        oplog: Optional[List] = None,
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
        # Shared with the router: the committed prefix joins replay.
        self._oplog: List = oplog if oplog is not None else []
        self._pending: Deque[list] = deque()
        self._rr = 0
        self.busy_seconds = 0.0
        self.failovers = 0
        self.restarts = 0  # replicas joined after construction
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

    def _connect(self, address: str, armed: Sequence = ()) -> ShardWorker:
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

    # -- membership --------------------------------------------------
    def heartbeat(self) -> Dict[str, Optional[float]]:
        """Ping every live replica (round-trip seconds, or ``None`` for
        a replica that just failed the ping and was dropped).  FIFO
        caveat as for reads: only while no chunks are outstanding."""
        out: Dict[str, Optional[float]] = {}
        for replica in list(self._replicas):
            address = replica.link.address
            start = perf_counter()
            try:
                replica.link.request("ping")
            except WorkerCrashed:
                self._drop(replica)
                out[address] = None
            else:
                out[address] = perf_counter() - start
        return out

    def join(self, address: str) -> ShardWorker:
        """Bring a new replica into the set by deterministic
        re-observe: configure it, replay the committed op prefix, then
        re-send any in-flight chunks so it owes the same replies as
        the incumbents."""
        replica = self._connect(address)
        replay_into(replica.call, self._oplog)
        for rows in self._pending:
            replica.submit_rows(rows)
        self.chunks_retried += len(self._pending)
        self._replicas.append(replica)
        self.restarts += 1
        if replica.link.address not in self.addresses:
            self.addresses.append(replica.link.address)
        return replica

    def reconfigure(self, shard_keys: Sequence[int]) -> None:
        """Snapshot-handoff for a rebalance move: install the new key
        partition on every live replica and rebuild it from the
        committed op prefix.  Must only run between batches (no pending
        chunks)."""
        if self._pending:
            raise RuntimeError(
                f"replica set {self.index}: reconfigure with "
                f"{len(self._pending)} chunks outstanding"
            )
        self._spec = dict(self._spec, shard=list(shard_keys))

        def handoff(replica: ShardWorker) -> None:
            replica.link.request("configure", dict(self._spec, faults=[]))
            replay_into(replica.call, self._oplog)

        if not self._all(handoff):
            raise WorkerGaveUp(
                self.index,
                f"replica set {self.index} lost every replica during "
                f"reconfigure",
            )


# ----------------------------------------------------------------------
# Cost-fed placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Move:
    """One rebalance step: move subspace ``key`` from shard ``src`` to
    shard ``dst``."""

    key: int
    src: int
    dst: int


class PlacementModel:
    """Prices shard placements from observed per-shard cost.

    Each per-chunk worker reply feeds :meth:`observe` with the shard's
    busy-seconds for the chunk; the model keeps an EWMA of
    seconds-per-row per shard, normalised by the shard's weighted key
    load into a *unit cost* (seconds per row per weight unit).  A
    candidate assignment is priced at its predicted slowest shard
    (:meth:`price` — ingest is barrier-synchronised per chunk, so the
    slowest shard is the wall-clock), with a queue-depth penalty for
    shards already running behind.

    Unobserved shards price at the mean observed unit cost (or a
    nominal 1.0 before any sample), which makes the cold-start model
    degenerate to the static weighted partition — placement only moves
    once real skew has been measured.
    """

    def __init__(
        self,
        root_weight: float = 2.0,
        alpha: float = 0.25,
        imbalance_threshold: float = 1.25,
        max_moves: int = 8,
        queue_penalty: float = 0.1,
    ) -> None:
        self.root_weight = float(root_weight)
        self.alpha = float(alpha)
        self.imbalance_threshold = float(imbalance_threshold)
        self.max_moves = int(max_moves)
        self.queue_penalty = float(queue_penalty)
        self._rate: Dict[int, float] = {}  # shard -> EWMA seconds/row
        self._weight: Dict[int, float] = {}  # weighted keys at last observe
        self._queue: Dict[int, int] = {}
        self._rows: Dict[int, int] = {}
        self._samples = 0

    def key_weight(self, key: int, root_key: int) -> float:
        return self.root_weight if key == root_key else 1.0

    def observe(
        self,
        shard: int,
        n_rows: int,
        busy_seconds: float,
        weight: float,
        queue_depth: int = 0,
    ) -> None:
        """Fold one chunk's measurement into the shard's EWMA."""
        if n_rows <= 0:
            return
        sample = float(busy_seconds) / n_rows
        prev = self._rate.get(shard)
        self._rate[shard] = (
            sample if prev is None else prev + self.alpha * (sample - prev)
        )
        self._weight[shard] = max(float(weight), 1e-9)
        self._queue[shard] = int(queue_depth)
        self._rows[shard] = self._rows.get(shard, 0) + n_rows
        self._samples += 1

    def rate(self, shard: int) -> Optional[float]:
        """The shard's EWMA seconds-per-row, or ``None`` if unobserved."""
        value = self._rate.get(shard)
        return None if value is None else round(value, 9)

    def unit_cost(self, shard: int) -> float:
        """Seconds per row per weight unit; unobserved shards get the
        mean observed unit cost (the static prior when nothing has been
        observed at all)."""
        rate = self._rate.get(shard)
        if rate is None:
            known = [
                r / self._weight[s] for s, r in self._rate.items()
            ]
            return sum(known) / len(known) if known else 1.0
        return rate / self._weight[shard]

    def _shard_cost(self, shard: int, keys: Sequence[int], root_key: int) -> float:
        load = sum(self.key_weight(key, root_key) for key in keys)
        penalty = 1.0 + self.queue_penalty * self._queue.get(shard, 0)
        return self.unit_cost(shard) * load * penalty

    def price(self, assignment: Sequence[Sequence[int]], root_key: int) -> float:
        """Predicted per-chunk wall-clock of a candidate assignment:
        the cost of its slowest shard (chunks barrier on the stragglers)."""
        return max(
            self._shard_cost(shard, keys, root_key)
            for shard, keys in enumerate(assignment)
        )

    def rebalance_plan(
        self, assignment: Sequence[Sequence[int]], root_key: int
    ) -> List[Move]:
        """Greedy rough-cost plan: while the priciest shard exceeds the
        mean by more than ``imbalance_threshold``, move one of its node
        keys (never the root, never its last key) to the cheapest shard
        — but only if that strictly lowers the predicted wall-clock."""
        shards = [list(keys) for keys in assignment]
        if len(shards) < 2 or self._samples == 0:
            return []
        moves: List[Move] = []
        for _ in range(self.max_moves):
            costs = [
                self._shard_cost(shard, keys, root_key)
                for shard, keys in enumerate(shards)
            ]
            mean = sum(costs) / len(costs)
            if mean <= 0.0:
                break
            src = max(range(len(costs)), key=costs.__getitem__)
            dst = min(range(len(costs)), key=costs.__getitem__)
            if src == dst or costs[src] / mean <= self.imbalance_threshold:
                break
            movable = [key for key in shards[src] if key != root_key]
            if not movable or len(shards[src]) <= 1:
                break
            key = movable[-1]
            before = self.price(shards, root_key)
            shards[src].remove(key)
            shards[dst].append(key)
            if self.price(shards, root_key) >= before:
                shards[dst].remove(key)
                shards[src].append(key)
                break
            moves.append(Move(key=key, src=src, dst=dst))
        return moves

    def snapshot(self) -> Dict[str, object]:
        """Model internals for ``stats`` / ``shard_stats`` reporting."""
        return {
            "samples": self._samples,
            "ewma_seconds_per_row": {
                shard: round(rate, 9) for shard, rate in self._rate.items()
            },
            "queue_depth": dict(self._queue),
            "rows_observed": dict(self._rows),
        }


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
