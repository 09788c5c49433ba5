"""The one shard-worker handle over its three links.

Whatever carries the ops — nothing (inline), a pipe to a child process,
a framed socket — a :class:`ShardWorker` must answer the same op stream
with the same replies: the op table lives in one place
(:attr:`_ShardEngine.OPS`) and the links only move bytes.
"""

from __future__ import annotations

import multiprocessing as mp
from contextlib import contextmanager

import pytest

from repro import TableSchema
from repro.service.remote import SocketLink, SocketWorkerServer
from repro.service.sharding import ShardedDiscoverer
from repro.service.supervisor import (
    InlineLink,
    PipeLink,
    ShardWorker,
    WorkerCrashed,
    WorkerGaveUp,
)
from repro.service.worker import ShardOp, _build_shard_engine, _ShardEngine

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))
LINKS = ["inline", "pipe", "socket"]
OP_TIMEOUT = 15

SPEC = {
    "dimensions": SCHEMA.dimensions,
    "measures": SCHEMA.measures,
    "preferences": {},
    "config": {},
    "shard": [3, 1],
    "score": True,
    "worker_index": 0,
}

ROWS = [
    {"d0": d0, "d1": d1, "m0": m0, "m1": m1}
    for d0, d1, m0, m1 in [
        ("a", "x", 1, 4),
        ("b", None, 4, 1),
        ("a", "x", 2, 3),
        (None, "y", 3, 2),
        ("a", "y", 4, 4),
        ("b", "x", 0, 0),
        ("a", None, 3, 3),
        ("c", "x", 2, 1),
    ]
]


def fork_context():
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs the fork start method")
    return mp.get_context("fork")


@contextmanager
def open_worker(kind, spec=SPEC):
    """One :class:`ShardWorker` for ``spec`` over the named link."""
    server = None
    if kind == "inline":
        link = InlineLink(_build_shard_engine(spec))
    elif kind == "pipe":
        link = PipeLink(0, spec, fork_context())
    else:
        server = SocketWorkerServer().start()
        link = SocketLink(0, server.address, OP_TIMEOUT)
        link.request("configure", spec)
    worker = ShardWorker(0, [link], op_timeout=OP_TIMEOUT)
    try:
        yield worker, server
    finally:
        worker.close()
        if server is not None:
            server.stop()


def sans_busy(reply):
    """An ingest reply without its wall-clock field."""
    return tuple(reply[:4])


def drive(submit, result, call):
    """The conformance op stream: pipelined chunks (with ``None``
    dimensions), a delete, every read op, and a ``replay``."""
    submit(ROWS[:3])
    submit(ROWS[3:6])
    out = [sans_busy(result()), sans_busy(result())]
    out.append(call("delete", 1))
    out.append(call("replay", [("rows", ROWS[6:]), ("delete", 4)]))
    for values in (("a", None), (None, None), ("a", "x")):
        out.append(call("skyline", (values, 3)))
        out.append(call("skyband", (values, 1, 2, None)))
        out.append(call("skyband", (values, 3, 2, 1)))
        out.append(call("top_k", (values, 3, 0)))
        out.append(call("top_k", (values, 2, None)))
    out.append(call("counters", None))
    return out


def reference_stream():
    """The stream applied straight to an engine, no handle, no link."""
    engine = _build_shard_engine(SPEC)
    queued = []
    return drive(
        queued.append,
        lambda: engine.apply("rows", queued.pop(0)),
        engine.apply,
    )


@pytest.mark.parametrize("kind", LINKS)
def test_same_op_stream_same_replies_on_every_link(kind):
    with open_worker(kind) as (worker, _server):
        got = drive(worker.submit_rows, worker.result, worker.call)
        assert worker.pending_ops() == []
        assert worker.busy_seconds > 0
        assert (worker.restarts, worker.chunks_retried) == (0, 0)
    # Tuples arrive as tuples on every link (pickle keeps them), so the
    # comparison is exact, not up to list/tuple coercion.
    assert got == reference_stream()


@pytest.mark.parametrize("value", ["auto", "on", "off"])
@pytest.mark.parametrize("kind", LINKS)
def test_worker_spec_from_before_sweep_index_retired(kind, value):
    # Verbatim ``_worker_spec`` of a router at the commit before the
    # store chose its own sweep side.  ``PROTOCOL_VERSION`` did not
    # move, so a new worker must take its ``configure`` / spawn spec.
    spec = {
        "dimensions": ("d0", "d1"),
        "measures": ("m0", "m1"),
        "preferences": {},
        "config": {
            "max_bound_dims": 2,
            "max_measure_dims": 2,
            "tau": None,
            "top_k": None,
        },
        "shard": [3, 1],
        "score": True,
        "sweep_index": value,
        "worker_index": 0,
    }
    with open_worker(kind, spec) as (worker, _server):
        got = drive(worker.submit_rows, worker.result, worker.call)
    assert got == reference_stream()


@pytest.mark.parametrize("kind", LINKS)
def test_unknown_op_is_rejected_before_anything_is_sent(kind):
    with open_worker(kind) as (worker, server):
        worker.submit_rows(ROWS[:3])
        worker.result()
        with pytest.raises(ValueError, match="unknown shard op 'skylin'"):
            worker.call("skylin", (("a", None), 3))
        # Nothing went out, so the FIFO is intact and the worker alive.
        assert worker.call("skyline", (("a", None), 3)) == [0, 2]
        assert worker.restarts == 0
        if server is not None:
            assert "skylin" not in server.op_counts


def test_one_table_entry_adds_an_op_to_every_pool(monkeypatch):
    """ROADMAP item 6's acceptance: a new op is one table entry — the
    handle, both serve loops and the replica set pick it up untouched."""
    fork_context()  # process workers must inherit the patched table
    monkeypatch.setitem(
        _ShardEngine.OPS,
        "applied",
        ShardOp(lambda engine, scale: scale * engine.rows_applied),
    )
    servers = [SocketWorkerServer().start() for _ in range(3)]
    pools = {
        "serial": dict(n_workers=2, mode="serial"),
        "process": dict(n_workers=2, mode="process"),
        # Shard 0 is a two-replica set: a read op goes to one replica.
        "remote": dict(
            remote={
                "0": [servers[0].address, servers[1].address],
                "1": [servers[2].address],
            }
        ),
    }
    try:
        for name, kwargs in pools.items():
            with ShardedDiscoverer(SCHEMA, chunk_size=3, **kwargs) as pool:
                pool.observe_many(ROWS)
                answers = [w.call("applied", 10) for w in pool._workers]
                assert answers == [10 * len(ROWS)] * 2, name
    finally:
        for server in servers:
            server.stop()


# ----------------------------------------------------------------------
# Several links under one handle: write-all, read round-robin, failover
# ----------------------------------------------------------------------
class LosableLink(InlineLink):
    """An in-process replica that cannot re-open (like a socket link):
    once :meth:`lose` is called, every reply it owes raises
    :class:`WorkerCrashed`.  Answers append ``(name, op)`` to ``log``."""

    def __init__(self, name, log) -> None:
        super().__init__(_build_shard_engine(SPEC))
        self.name = name
        self.log = log
        self.lost = False
        self.abandoned = False

    def lose(self) -> None:
        self.lost = True

    def recv(self, timeout=None):
        op, payload = self._queue.popleft()
        if self.lost:
            raise WorkerCrashed(0, f"{self.name} lost")
        self.log.append((self.name, op))
        return self.engine.apply(op, payload)

    def abandon(self) -> None:
        self.abandoned = True


def two_link_worker():
    log = []
    primary, replica = LosableLink("primary", log), LosableLink("replica", log)
    return ShardWorker(0, [primary, replica]), primary, replica, log


def one_engine_prefix():
    """Two chunks and a ``counters`` read, straight on one engine."""
    engine = _build_shard_engine(SPEC)
    return [
        sans_busy(engine.apply("rows", ROWS[:3])),
        sans_busy(engine.apply("rows", ROWS[3:6])),
        engine.apply("counters", None),
    ]


def test_writes_reach_every_link_and_reads_alternate():
    worker, primary, replica, log = two_link_worker()
    worker.submit_rows(ROWS[:4])
    worker.result()
    worker.call("delete", 1)
    worker.call("replay", [("rows", ROWS[4:])])
    assert log == [
        (name, op)
        for op in ("rows", "delete", "replay")
        for name in ("primary", "replica")
    ]
    assert primary.engine.rows_applied == replica.engine.rows_applied == 8
    del log[:]
    reads = [worker.call("counters") for _ in range(4)]
    assert [name for name, _op in log] == ["primary", "replica"] * 2
    assert reads == [reads[0]] * 4
    assert worker.failovers == 0


def test_primary_loss_fails_over_with_pending_intact():
    worker, primary, replica, _log = two_link_worker()
    reference = one_engine_prefix()
    worker.submit_rows(ROWS[:3])
    worker.submit_rows(ROWS[3:6])
    primary.lose()
    # The survivor answers the chunk both links owed.
    assert sans_busy(worker.result()) == reference[0]
    assert worker.links == [replica]
    assert worker.failovers == 1
    assert primary.abandoned
    # The second chunk is still pending, and the survivor answers it.
    assert worker.pending_ops() == [ROWS[3:6]]
    assert sans_busy(worker.result()) == reference[1]
    assert worker.pending_ops() == []
    assert worker.call("counters") == reference[2]
    assert (worker.restarts, worker.chunks_retried) == (0, 0)


def test_losing_every_link_gives_up_and_keeps_pending():
    worker, primary, replica, _log = two_link_worker()
    worker.submit_rows(ROWS[:3])
    worker.submit_rows(ROWS[3:6])
    primary.lose()
    replica.lose()
    with pytest.raises(WorkerGaveUp, match="every link lost"):
        worker.result()
    assert worker.links == []
    assert worker.failovers == 2
    # Both chunks stay queued for the router's degrade path.
    assert worker.pending_ops() == [ROWS[:3], ROWS[3:6]]
