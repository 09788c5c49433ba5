"""A refused row changes nothing.

A row missing an attribute or carrying a non-numeric measure is refused
with :class:`~repro.core.schema.SchemaError` by every composition, and
before anything is mutated: a window evicts nothing for it, an
aggregate creates no group and folds nothing into one.  Checked at the
engine and over the server's NDJSON front end, where such a row is
answered ``quarantined`` and never journaled — so the live state is
also what a restore from the snapshot or the journal brings back.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.api import CheckpointPolicy, EngineSpec, GroupSpec, open_engine
from repro.core.schema import SchemaError, TableSchema
from repro.extensions.snapshot import load_engine
from repro.service import StreamServer
from repro.service.journal import read_ops
from tests.strategies import SERVICE_SCHEMA, make_rows

WINDOWED = EngineSpec(SERVICE_SCHEMA, "svec", window=3)

POINTS = TableSchema(("d",), ("pts",))
AVERAGED = EngineSpec(
    POINTS,
    "svec",
    aggregate=GroupSpec(("d",), {"avg": ("pts", "avg"), "n": ("pts", "count")}),
)

#: Rows each composition must refuse: a non-numeric measure, and a
#: missing attribute.
WINDOW_POISON = [dict(make_rows(1)[0], m0="abc"), {"d0": "a0", "m0": 1, "m1": 1}]
AGGREGATE_POISON = [{"d": "x", "pts": "abc"}, {"d": "y", "pts": "abc"}, {"d": "z"}]


def state(engine):
    """Live tids, version and rows of a windowed engine."""
    return engine.live_tids, engine.version, [r.raw for r in engine.table]


def aggregate_state(engine):
    return engine.group_count(), engine.aggregate_row(("x",))


def restored(engine, tmp_path):
    path = str(tmp_path / "snap.json")
    engine.snapshot(path)
    return load_engine(path)


class TestEngine:
    def test_a_window_evicts_nothing_for_a_refused_row(self, tmp_path):
        engine = open_engine(WINDOWED)
        rows = make_rows(4)
        for row in rows[:3]:
            engine.observe(row)
        before = state(engine)
        for poison in WINDOW_POISON:
            with pytest.raises(SchemaError):
                engine.observe(poison)
            assert state(engine) == before
        assert before[:2] == ([0, 1, 2], (3, 0))
        assert state(restored(engine, tmp_path)) == before
        engine.observe(rows[3])
        assert engine.live_tids == [1, 2, 3]

    def test_an_aggregate_folds_nothing_for_a_refused_row(self, tmp_path):
        engine = open_engine(AVERAGED)
        engine.observe({"d": "x", "pts": 2})
        engine.observe({"d": "x", "pts": 4})
        for poison in AGGREGATE_POISON:
            with pytest.raises(SchemaError):
                engine.observe(poison)
        engine.observe({"d": "x", "pts": 6})
        live = aggregate_state(engine)
        assert live == (1, {"d": "x", "avg": 4.0, "n": 3.0})
        assert aggregate_state(restored(engine, tmp_path)) == live


def serve(spec, rows, poison):
    """Serve ``rows`` then each ``poison`` row over TCP; returns the
    poison replies, the engine and the journal's ops after them."""
    engine = open_engine(spec)

    async def run():
        server = StreamServer(engine)
        await server.start()
        listener = await server.serve_tcp("127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def call(row):
            message = {"op": "ingest", "row": row}
            writer.write(json.dumps(message).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        try:
            replies = []
            for row in rows:
                assert "tid" in await call(row)
            for row in poison:
                replies.append(await call(row))
            journal = read_ops(spec.checkpoint.journal_dir)[0]
        finally:
            writer.close()
            await server.stop()
        return replies, journal

    replies, journal = asyncio.run(run())
    return replies, engine, journal


def durable(spec, tmp_path):
    return replace(
        spec,
        checkpoint=CheckpointPolicy(
            str(tmp_path / "ck.json"), journal_dir=str(tmp_path / "wal")
        ),
    )


class TestServer:
    def test_a_quarantined_row_evicts_nothing(self, tmp_path):
        spec = durable(WINDOWED, tmp_path)
        replies, engine, journal = serve(spec, make_rows(3), WINDOW_POISON)
        assert [reply.get("quarantined") for reply in replies] == [True, None]
        assert replies[0]["error"] == "non-numeric measure values in ('abc', 2)"
        assert state(engine)[:2] == ([0, 1, 2], (3, 0))
        # A crash right after the refusals brings back the live state:
        # the journal holds the three accepted rows only.
        replay = open_engine(WINDOWED)
        for op in journal:
            replay.observe(op["row"])
        assert state(replay) == state(engine)
        assert state(load_engine(spec.checkpoint.path)) == state(engine)

    def test_a_quarantined_row_folds_into_no_group(self, tmp_path):
        spec = durable(AVERAGED, tmp_path)
        rows = [{"d": "x", "pts": 2}, {"d": "x", "pts": 4}]
        replies, engine, _ = serve(spec, rows, AGGREGATE_POISON)
        assert all(reply.get("quarantined") for reply in replies[:2])
        engine.observe({"d": "x", "pts": 6})
        live = aggregate_state(engine)
        assert live == (1, {"d": "x", "avg": 4.0, "n": 3.0})
        assert aggregate_state(restored(engine, tmp_path)) == live
