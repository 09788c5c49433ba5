"""Materialized feed tier: exactness against the query oracle.

The load-bearing property: a :class:`FeedStore` maintained incrementally
off the fact stream holds, per segment, *identical* standings to an
on-demand ``engine.query().batch(...)`` over the same candidate pairs —
under interleaved arrivals and deletions, across single, windowed, and
sharded compositions, and under read-time ``τ`` floors / top-k cuts.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TableSchema
from repro.api import (
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    ShardingSpec,
    open_engine,
)
from repro.core.config import DiscoveryConfig
from repro.core.constraint import Constraint, satisfied_constraints
from repro.service import FeedStore, StreamServer
from tests.strategies import row_strategy

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))

#: Interleaved arrivals (row dict) and deletions (True deletes the
#: oldest still-live tuple, no-op when the table is empty).
op_strategy = st.lists(
    st.one_of(row_strategy, st.just(True)), min_size=1, max_size=18
)


def make_spec(**overrides) -> EngineSpec:
    defaults = dict(
        schema=SCHEMA,
        score=True,
        feeds=FeedSpec(group_by=("d0",)),
    )
    defaults.update(overrides)
    return EngineSpec(**defaults)


def oracle_segments(engine, store):
    """Expected standings, derived on demand from the live engine: one
    ``query().batch`` over every candidate pair of every live tuple."""
    pairs = set()
    for record in engine.table:
        for constraint in satisfied_constraints(record, store._bound_cap):
            for subspace in store._subspaces:
                pairs.add((constraint, subspace))
    if not pairs:
        return {}
    ordered = sorted(pairs, key=lambda p: (repr(p[0].values), p[1]))
    results = engine.query().batch(ordered)
    expected = {}
    for result in results:
        if result.context_size <= 0:
            continue
        key = store.segment_key(result.constraint)
        expected.setdefault(key, {})[
            (result.constraint, result.subspace)
        ] = (result.context_size, result.skyline_size)
    return expected


def store_segments(store):
    """Every standing the store holds, read through its public sidecar
    rendering (``entries_ranked`` applies the spec's read-time cuts)."""
    return {
        segment["key"]: {
            (Constraint(tuple(entry["values"])), entry["subspace"]): (
                entry["ctx"],
                entry["sky"],
            )
            for entry in segment["entries"]
        }
        for segment in store.to_doc((0, 0))["segments"]
        if segment["entries"]
    }


def drive(engine, store, ops):
    """Feed interleaved arrivals/deletions the way NewsFeed and the
    server do: per-arrival event fold, then a repair pass."""
    live = []
    for op in ops:
        if op is True:
            if not live:
                continue
            removed = engine.delete(live.pop(0))
            store.note_retracted(removed)
            store.repair(engine)
        else:
            factset = engine.facts_for(op)
            live.append(factset.record.tid)
            store.apply_event(factset.record, factset)
            store.repair(engine)
    return live


class TestMaterializedParity:
    @settings(max_examples=25, deadline=None)
    @given(op_strategy)
    def test_single_engine_parity(self, ops):
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        drive(engine, store, ops)
        assert store_segments(store) == oracle_segments(engine, store)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(row_strategy, min_size=1, max_size=14))
    def test_windowed_parity(self, rows):
        """Window evictions never surface as explicit deletes — the
        retraction listener hook must still keep standings exact."""
        engine = open_engine(make_spec(window=4))
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        for row in rows:
            factset = engine.facts_for(row)
            store.apply_event(factset.record, factset)
            store.repair(engine)
        assert store_segments(store) == oracle_segments(engine, store)

    @settings(max_examples=10, deadline=None)
    @given(op_strategy)
    def test_sharded_parity(self, ops):
        engine = open_engine(
            make_spec(
                algorithm="svec",
                sharding=ShardingSpec(workers=2, mode="serial"),
            )
        )
        try:
            store = FeedStore.for_engine(engine)
            store.attach(engine)
            drive(engine, store, ops)
            assert store_segments(store) == oracle_segments(engine, store)
        finally:
            engine.close()

    @settings(max_examples=15, deadline=None)
    @given(op_strategy)
    def test_rebuild_equals_incremental(self, ops):
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        drive(engine, store, ops)
        fresh = FeedStore.for_engine(engine)
        fresh.rebuild(engine)
        assert store_segments(store) == store_segments(fresh)

    def test_ranked_read_matches_batch_topk(self):
        """entries_ranked under τ/top-k == the oracle ranked the same
        way (ties at the cut kept, like ``query().batch``)."""
        engine = open_engine(make_spec(feeds=FeedSpec(group_by=("d0",))))
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        rows = [
            {"d0": d0, "d1": d1, "m0": m0, "m1": m1}
            for d0, d1, m0, m1 in [
                ("a", "x", 3, 1), ("a", "y", 1, 3), ("b", "x", 2, 2),
                ("a", "x", 4, 0), ("b", "y", 0, 4), ("a", "y", 2, 2),
            ]
        ]
        drive(engine, store, rows)
        for key in store.segment_keys():
            expected = oracle_segments(engine, store).get(key, {})
            for top_k, tau in [(None, None), (3, None), (None, 1.5), (2, 1.0)]:
                got = store.entries_ranked(key, top_k=top_k, tau=tau)
                standings = sorted(
                    (
                        (ctx / sky, pair)
                        for pair, (ctx, sky) in expected.items()
                    ),
                    reverse=True,
                    key=lambda item: item[0],
                )
                if tau is not None:
                    standings = [s for s in standings if s[0] >= tau]
                if top_k is not None and len(standings) > top_k:
                    cutoff = standings[top_k - 1][0]
                    standings = [
                        s
                        for i, s in enumerate(standings)
                        if i < top_k or s[0] == cutoff
                    ]
                assert sorted(e.prominence for e in got) == sorted(
                    s[0] for s in standings
                ), (key, top_k, tau)


class TestBoundedMemory:
    def test_per_segment_cap_evicts_lowest(self):
        engine = open_engine(
            make_spec(feeds=FeedSpec(group_by=("d0",), max_entries=4))
        )
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        rows = [
            {"d0": "a", "d1": f"v{i}", "m0": i % 5, "m1": (i * 3) % 7}
            for i in range(12)
        ]
        drive(engine, store, rows)
        for summary in store.segments():
            assert summary["entries"] <= 4, summary["segment"]
        assert store.stats()["evicted"] > 0
        key = store.segment_keys()[0]
        page = store.read(key)
        assert page["truncated"] > 0
        # The entries kept are the top-ranked ones.
        kept = store.entries_ranked(key)
        assert all(
            kept[i].prominence >= kept[i + 1].prominence
            for i in range(len(kept) - 1)
        )


class TestCursorPagination:
    def _loaded_store(self):
        engine = open_engine(make_spec(feeds=FeedSpec()))
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        rows = [
            {"d0": f"a{i % 4}", "d1": f"b{i % 3}", "m0": i % 5, "m1": (i * 2) % 5}
            for i in range(10)
        ]
        drive(engine, store, rows)
        return engine, store

    def test_pages_tile_the_feed(self):
        _, store = self._loaded_store()
        key = store.segment_keys()[0]
        full = [
            (e.constraint, e.subspace) for e in store.entries_ranked(key)
        ]
        seen = []
        cursor = None
        while True:
            page = store.read(key, cursor=cursor, limit=3)
            seen.extend(
                (tuple(e["constraint"].items()), tuple(e["measures"]))
                for e in page["entries"]
            )
            if page["next_cursor"] is None:
                break
            cursor = page["next_cursor"]
        assert len(seen) == len(full) == page["total"]
        assert len(set(seen)) == len(seen)

    def test_stale_cursor_restarts(self):
        engine, store = self._loaded_store()
        key = store.segment_keys()[0]
        page = store.read(key, limit=2)
        cursor = page["next_cursor"]
        factset = engine.facts_for({"d0": "zz", "d1": "zz", "m0": 4, "m1": 4})
        store.apply_event(factset.record, factset)
        follow = store.read(key, cursor=cursor, limit=2)
        if follow["version"] != page["version"]:
            assert follow["restarted"] is True
            assert follow["offset"] == 0

    def test_read_errors(self):
        _, store = self._loaded_store()
        key = store.segment_keys()[0]
        assert store.read("no-such-segment") is None
        with pytest.raises(ValueError):
            store.read(key, cursor="not-a-cursor")
        with pytest.raises(ValueError):
            store.read(key, limit=0)


class TestSidecar:
    def test_roundtrip_restores_standings(self, tmp_path):
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        drive(
            engine,
            store,
            [
                {"d0": "a", "d1": "x", "m0": 1, "m1": 2},
                {"d0": "b", "d1": "y", "m0": 3, "m1": 0},
                True,
                {"d0": "a", "d1": "y", "m0": 2, "m1": 2},
            ],
        )
        path = str(tmp_path / "feeds.json")
        store.save_sidecar(path, engine.version)
        fresh = FeedStore.for_engine(engine)
        assert fresh.load_sidecar(path, engine)
        assert store_segments(fresh) == store_segments(store)

    def test_stale_stamp_rejected(self, tmp_path):
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        store.attach(engine)
        factset = engine.facts_for({"d0": "a", "d1": "x", "m0": 1, "m1": 2})
        store.apply_event(factset.record, factset)
        path = str(tmp_path / "feeds.json")
        store.save_sidecar(path, engine.version)
        engine.facts_for({"d0": "b", "d1": "y", "m0": 2, "m1": 1})
        fresh = FeedStore.for_engine(engine)
        assert not fresh.load_sidecar(path, engine)

    def test_sidecar_write_is_crash_consistent(self, tmp_path, monkeypatch):
        """Like the checkpoint: a per-process temp file, then
        ``os.replace``, then a directory fsync; nothing else is left."""
        import os

        from repro.service import journal

        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        factset = engine.facts_for({"d0": "a", "d1": "x", "m0": 1, "m1": 2})
        store.apply_event(factset.record, factset)
        calls = []
        replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda *args: calls.append(args) or replace(*args)
        )
        monkeypatch.setattr(
            journal, "_fsync_dir", lambda directory: calls.append(directory)
        )
        path = str(tmp_path / "feeds.json")
        store.save_sidecar(path, engine.version)
        assert calls == [(f"{path}.tmp.{os.getpid()}", path), str(tmp_path)]
        assert os.listdir(tmp_path) == ["feeds.json"]

    def test_corrupt_sidecar_rejected(self, tmp_path):
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        path = str(tmp_path / "feeds.json")
        path_obj = tmp_path / "feeds.json"
        path_obj.write_text("{not json")
        assert not store.load_sidecar(path, engine)
        assert not store.load_sidecar(str(tmp_path / "missing.json"), engine)


class TestServerIntegration:
    def test_server_feeds_track_engine(self):
        rows = [
            {"d0": f"a{i % 3}", "d1": f"b{i % 2}", "m0": i % 5, "m1": (7 - i) % 5}
            for i in range(20)
        ]

        async def run():
            engine = open_engine(make_spec())
            server = StreamServer(engine, batch_max=4)
            await server.start()
            await server.ingest_many(rows)
            await server.drain()
            await server.delete(0)
            await server.delete(3)
            await server.drain()
            await server.stop()
            return engine, server

        engine, server = asyncio.run(run())
        assert server.feeds is not None
        assert store_segments(server.feeds) == oracle_segments(
            engine, server.feeds
        )
        snap = asyncio.run(server.read_stats())
        assert snap["feeds"]["segments"] == len(server.feeds.segment_keys())
        assert snap["feeds"]["lag"] == 0
        assert snap["feeds"]["repairs"] >= 2

    def test_checkpoint_sidecar_roundtrip(self, tmp_path):
        rows = [
            {"d0": f"a{i % 2}", "d1": "x", "m0": i % 4, "m1": (i * 2) % 4}
            for i in range(8)
        ]
        path = str(tmp_path / "snap.json")

        async def serve(engine, replay):
            server = StreamServer(engine)  # reads engine.spec.checkpoint
            await server.start()
            if replay:
                await server.ingest_many(rows)
                await server.drain()
            await server.stop()  # final checkpoint writes the sidecar
            return server

        engine = open_engine(make_spec(checkpoint=CheckpointPolicy(path)))
        server = asyncio.run(serve(engine, True))
        saved = store_segments(server.feeds)

        from repro.extensions.snapshot import load_engine

        restored = load_engine(path)
        server2 = asyncio.run(serve(restored, False))
        assert store_segments(server2.feeds) == saved
        # Restore really came from the sidecar, not a rebuild: the
        # store's arrival counter survived.
        assert server2.feeds.applied_arrivals == server.feeds.applied_arrivals


class TestFeedSpecValidation:
    def test_roundtrip(self):
        spec = make_spec(
            feeds=FeedSpec(
                group_by=("d0",), top_k=7, tau=1.5, max_entries=99,
            )
        )
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FeedSpec(top_k=0)
        with pytest.raises(ValueError):
            FeedSpec(tau=0.5)
        with pytest.raises(ValueError):
            FeedSpec(max_entries=0)
        with pytest.raises(ValueError):
            FeedSpec(group_by=("d0", "d0"))

    def test_feeds_requires_score(self):
        with pytest.raises(ValueError):
            make_spec(score=False)

    def test_group_by_must_be_discovery_dims(self):
        with pytest.raises(ValueError):
            make_spec(feeds=FeedSpec(group_by=("nope",)))


class TestNewsFeedComposition:
    def test_feed_serves_materialized_state(self):
        from repro.reporting.feed import NewsFeed

        spec = EngineSpec(SCHEMA, config=DiscoveryConfig(tau=2.0))
        feed = NewsFeed(open_engine(spec))
        rows = [
            {"d0": "a", "d1": "x", "m0": 3, "m1": 1},
            {"d0": "a", "d1": "y", "m0": 1, "m1": 3},
            {"d0": "b", "d1": "x", "m0": 2, "m1": 2},
        ]
        feed.run(rows)
        assert store_segments(feed.store) == oracle_segments(
            feed.engine, feed.store
        )
        standings = feed.feed()
        assert standings == [
            e.to_json_dict(feed.store.schema)
            for e in feed.store.entries_ranked(feed.store.segment_keys()[0])
        ]

    def test_windowed_newsfeed_stays_exact(self):
        from repro.reporting.feed import NewsFeed

        engine = open_engine(make_spec(window=3, feeds=FeedSpec(group_by=("d0",))))
        feed = NewsFeed(engine)
        for i in range(9):
            feed.push(
                {"d0": f"a{i % 2}", "d1": "x", "m0": i % 4, "m1": (5 - i) % 4}
            )
        assert store_segments(feed.store) == oracle_segments(engine, feed.store)
