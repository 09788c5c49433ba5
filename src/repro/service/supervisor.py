"""Router-side shard-worker handle: one surface, three links, one
supervision loop.

:class:`ShardWorker` is what the router holds per shard in every mode:
``submit_rows`` / ``result`` (the pipelined ingest pair),
``call(op, payload)`` (any op of the worker op table,
:attr:`repro.service.worker._ShardEngine.OPS`), ``pending_ops``,
``close``, and the ``busy_seconds`` / ``restarts`` /
``chunks_retried`` / ``failovers`` tallies.  Under it sits an ordered
list of **links**, primary first: one :class:`InlineLink` (serial,
fallen back) or :class:`~repro.service.remote.ProcessLink` (process), or
one :class:`~repro.service.remote.SocketLink` per replica (remote).
The two out-of-process links share one wire (:mod:`repro.service.remote`).
A link:

* ``send(op, payload)`` queues one request and **never raises**: a
  failed send leaves the link broken and the next ``recv`` reports it,
  so the router's submit loop needs no crash handling;
* ``recv(timeout)`` returns the next reply, strictly FIFO, or raises
  :class:`WorkerCrashed` when the worker died or stayed silent past
  ``timeout`` seconds (``None``: only death is a failure);
* ``close()`` shuts down without ever hanging; ``abandon()``, on a
  link that can crash, drops the transport without the polite stop;
* ``reopen`` is ``None``, or a method that discards the transport and
  starts a fresh, empty worker.

Shard workers are deterministic — identical op streams build identical
engines — so the links of one handle need no consensus: ops that write
(:attr:`~repro.service.worker.ShardOp.writes`) go to every link, reads
round-robin across them.  Supervision is written once, in the handle:

* **restart** — a crash on a re-openable link: exponential backoff
  with jitter, then a fresh worker;
* **rebuild** — the discovery state of a shard is a deterministic
  function of the arrival/deletion prefix, so the replacement simply
  re-observes the router's *committed* op log (:func:`replay_into`),
  then has the submitted-but-unmerged chunks re-sent;
* **retry** — the op the crash interrupted is retried exactly once
  (the rebuild erased any partial application, so the resend cannot
  double-apply);
* **failover** — a crash on a link that cannot be re-opened drops it;
  the next link (a replica already holding the identical state) takes
  over with no recovery work;
* **circuit breaker** — past ``max_restarts``, when a restart or its
  rebuild crashes, when the retried op crashes the rebuilt worker too
  (the op itself is the trigger), or when no link is left, the handle
  *falls back*: it abandons its links and rebuilds the shard in the
  router behind one :class:`InlineLink` (the same replay, the same
  re-sent chunks), then answers from it.  Only that shard leaves its
  process; the others keep theirs.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, Deque, List, Mapping, Optional, Sequence, Tuple

from .worker import _build_shard_engine, _ShardEngine

#: Ops per ``replay`` message (bounds message size on long logs).
_REPLAY_SLICE = 128


class WorkerCrashed(RuntimeError):
    """A shard worker died or hung mid-op (recoverable by restart)."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"shard worker {index} crashed: {reason}")
        self.index = index
        self.reason = reason


class WorkerGaveUp(WorkerCrashed):
    """No worker of a shard could be reached at all (a remote pool
    built with no live replica)."""


#: Restart backoff: exponential from ``_BACKOFF_BASE`` seconds, capped
#: at ``_BACKOFF_MAX``, plus up to ``_JITTER`` relative noise so a pool
#: of crashed workers does not restart in lockstep.
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
_JITTER = 0.25


def replay_into(
    call: Callable[[str, object], object],
    oplog: Sequence[Tuple[str, object]],
) -> None:
    """Rebuild a fresh shard engine by deterministic re-observe: feed
    ``call("replay", slice)`` the committed ``(op, payload)`` prefix in
    :data:`_REPLAY_SLICE` batches.  The one rebuild loop — a restart
    and the in-router fallback both go through it."""
    ops = list(oplog)
    for start in range(0, len(ops), _REPLAY_SLICE):
        call("replay", ops[start : start + _REPLAY_SLICE])


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------
class InlineLink:
    """Serial mode: the engine lives in the router.  Compute happens
    lazily at :meth:`recv`, so the router's pipelining logic stays
    mode-blind.  An engine error propagates as itself — there is no
    worker to lose, hence nothing to re-open."""

    reopen = None

    def __init__(self, engine: _ShardEngine) -> None:
        self.engine = engine
        self._queue: Deque[Tuple[str, object]] = deque()

    def send(self, op: str, payload: object) -> None:
        self._queue.append((op, payload))

    def recv(self, timeout=None):
        return self.engine.apply(*self._queue.popleft())

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The handle
# ----------------------------------------------------------------------
#: What :meth:`ShardWorker._reply` returns for a link it dropped.
_LOST = object()


class ShardWorker:
    """One shard as the router sees it (see module docstring): worker
    ``index`` of the pool, built from the worker description ``spec``,
    behind ``links`` (primary first), with a per-op deadline of
    ``op_timeout`` seconds and a budget of ``max_restarts`` restarts.
    ``oplog`` is a live reference to the router's committed op list,
    replayed into every replacement worker before pending chunks are
    re-sent."""

    def __init__(
        self,
        index: int,
        spec: Mapping[str, object],
        links: Sequence,
        oplog: Sequence[Tuple[str, object]] = (),
        op_timeout: float = 60.0,
        max_restarts: int = 3,
    ) -> None:
        self.index = index
        self.spec = spec
        #: Live links, primary first; a lost one is dropped for good.
        self.links = list(links)
        self.op_timeout = op_timeout
        self.max_restarts = max_restarts
        self._oplog = oplog
        #: Cumulative ingest compute seconds the worker reported.
        self.busy_seconds = 0.0
        #: Restarts performed (counted into the router's ``stats()``).
        self.restarts = 0
        #: Chunks re-sent to a replacement worker after a crash.
        self.chunks_retried = 0
        #: Links dropped after a crash they could not re-open from.
        self.failovers = 0
        #: ``None``, or why the shard fell back to in-router execution
        #: (the reason of the crash that tripped the breaker).
        self.degraded: Optional[str] = None
        #: Submitted ``rows`` payloads whose replies are not yet
        #: delivered — the exact set a replacement must be re-sent.
        self._pending: Deque[List[Mapping[str, object]]] = deque()
        self._rr = 0
        self._rng = random.Random(0x5EED ^ index)

    @property
    def replicas(self) -> List[str]:
        """Addresses of the live socket links, primary first."""
        return [link.address for link in self.links]

    def submit_rows(self, rows: List[Mapping[str, object]]) -> None:
        """Queue one chunk on every link for :meth:`result` (FIFO).
        Never raises."""
        self._pending.append(rows)
        for link in self.links:
            link.send("rows", rows)

    def result(self):
        """The oldest outstanding chunk's ingest reply.  Every link owes
        one per chunk, so all are read (keeping them in lockstep); the
        replies are identical by determinism."""
        reply = self._from_all()
        self._pending.popleft()
        self.busy_seconds += reply[4]
        return reply

    def call(self, op: str, payload: object = None):
        """One synchronous op round-trip: a write on every link, a read
        on the next link round-robin (on the one after when it is
        lost).  Issue only while no chunk replies are outstanding — the
        protocol is strictly FIFO."""
        request = (op, payload)
        if _ShardEngine.op(op).writes:  # ValueError before anything is sent
            return self._from_all(request)
        while True:
            link = self.links[self._rr % len(self.links)]
            self._rr += 1
            reply = self._reply(link, request)
            if reply is not _LOST:
                return reply

    def pending_ops(self) -> List[List[Mapping[str, object]]]:
        """Submitted-unmerged chunks, oldest first — what a replacement
        worker must still answer for."""
        return list(self._pending)

    def close(self) -> None:
        for link in self.links:
            link.close()

    def _from_all(self, request=None):
        """Every link's reply (see :meth:`_reply`); the first one."""
        replies = [self._reply(link, request) for link in list(self.links)]
        return next(reply for reply in replies if reply is not _LOST)

    def _reply(self, link, request=None):
        """One reply from ``link`` — to ``request`` if given (sent here,
        and re-sent after a restart), else to the oldest pending chunk
        (which a rebuild re-sends).  A crash restarts a re-openable
        link once; a link that cannot re-open is dropped (failover) and
        :data:`_LOST` returned while another is left.  Otherwise — the
        budget is spent, or the restart or retry crashed too — the
        breaker trips and the in-router fallback answers."""
        for attempt in (1, 2):
            if request is not None:
                link.send(*request)
            try:
                return link.recv(self.op_timeout)
            except WorkerCrashed as crash:
                if link.reopen is None:
                    # The next link already holds the identical state.
                    self.links.remove(link)
                    link.abandon()
                    self.failovers += 1
                    if self.links:
                        return _LOST
                elif attempt == 1 and self.restarts < self.max_restarts:
                    try:
                        self._restart(link, crash)
                    except WorkerCrashed as again:
                        crash = again  # the restart crashed too
                    else:
                        continue
                return self._reply(self._fall_back(crash), request)

    def _restart(self, link, crash: WorkerCrashed) -> None:
        """Backoff, re-open ``link`` (lost to ``crash``) and rebuild its
        fresh worker."""
        self.restarts += 1
        delay = min(_BACKOFF_MAX, _BACKOFF_BASE * 2.0 ** (self.restarts - 1))
        time.sleep(delay * (1.0 + _JITTER * self._rng.random()))
        link.reopen()
        self._rebuild(link)

    def _fall_back(self, crash: WorkerCrashed) -> InlineLink:
        """Trip the breaker: abandon every link and rebuild the shard in
        the router behind one :class:`InlineLink`, which can no longer
        crash on its own."""
        for link in self.links:
            link.abandon()
        inline = InlineLink(_build_shard_engine(self.spec))
        self.links = [inline]
        self.degraded = crash.reason
        self._rebuild(inline)
        return inline

    def _rebuild(self, link) -> None:
        """Bring the fresh, empty worker behind ``link`` up to the
        router's state: replay the committed op log, then re-send the
        pending chunks."""

        def apply(op: str, payload: object) -> None:
            # Replaying a long oplog legitimately exceeds a per-op
            # budget: only death is a failure here (no deadline).
            link.send(op, payload)
            link.recv(None)

        replay_into(apply, self._oplog)
        for payload in self._pending:
            link.send("rows", payload)
        self.chunks_retried += len(self._pending)
