"""Materialized feed tier: exactness against the query oracle.

The load-bearing property: a :class:`FeedStore` maintained incrementally
off the fact stream holds, per segment, *identical* standings to an
on-demand ``engine.query().batch(...)`` over the same candidate pairs —
under interleaved arrivals and deletions, across single, windowed, and
sharded compositions, and under read-time ``τ`` floors / top-k cuts.
"""

import asyncio
import os

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
from repro.service import FeedStore, JournalWriter, StreamServer
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
        """A missing sidecar reads False; an unreadable one raises a
        ``ValueError`` naming the file and leaves the store empty."""
        engine = open_engine(make_spec())
        store = FeedStore.for_engine(engine)
        path = str(tmp_path / "feeds.json")
        path_obj = tmp_path / "feeds.json"
        for text in ("{not json", "[1, 2]"):
            path_obj.write_text(text)
            with pytest.raises(ValueError, match="feeds.json"):
                store.load_sidecar(path, engine)
            assert len(store) == 0 and store.applied_arrivals == 0
        assert not store.load_sidecar(str(tmp_path / "missing.json"), engine)


#: 100 rows over three ``d0`` segments (``d0=a0`` holds every third).
STREAM = [
    {"d0": f"a{i % 3}", "d1": f"b{i % 4}", "m0": (7 * i) % 11, "m1": (5 * i) % 13}
    for i in range(100)
]


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

        spec = make_spec(checkpoint=CheckpointPolicy(path))
        server = asyncio.run(serve(open_engine(spec), True))
        saved = store_segments(server.feeds)

        # A fresh engine on the same policy: start() restores it.
        server2 = asyncio.run(serve(open_engine(spec), False))
        assert store_segments(server2.feeds) == saved
        # Restore really came from the sidecar, not a rebuild: the
        # store's arrival counter survived.
        assert server2.feeds.applied_arrivals == server.feeds.applied_arrivals


    def test_preloaded_engine_feeds_are_rebuilt(self):
        """An engine that holds rows before the server starts, with no
        durable state to restore: ``start()`` rebuilds its feeds (on the
        engine thread), so they describe every pre-loaded row."""

        async def run(engine):
            server = StreamServer(engine)
            await server.start()
            await server.stop()
            return server.feeds

        engine = open_engine(make_spec())
        engine.facts_for_many(STREAM[:12])
        feeds = asyncio.run(run(engine))
        assert len(feeds) and feeds.applied_arrivals == 12
        assert store_segments(feeds) == oracle_segments(engine, feeds)


def serve_and_restore(tmp_path, damage):
    """Serve 6 rows with feeds, a checkpoint and a journal, stop (the
    sidecar is written), ``damage(sidecar_path, policy)`` the durable
    state, then start a server on a fresh engine over it, which
    ``start()`` restores.  Returns its open engine, its feeds and its
    stats, read before stopping."""
    path = str(tmp_path / "ck.json")
    rows = [
        {"d0": f"a{i % 2}", "d1": f"b{i % 3}", "m0": i % 4, "m1": (5 - i) % 4}
        for i in range(6)
    ]

    async def serve(engine, rows):
        server = StreamServer(engine)
        await server.start()
        await server.ingest_many(rows)
        await server.drain()
        snap = await server.read_stats()
        await server.stop()
        return server, snap

    spec = make_spec(
        checkpoint=CheckpointPolicy(path, journal_dir=str(tmp_path / "wal"))
    )
    engine = open_engine(spec)
    asyncio.run(serve(engine, rows))
    engine.close()
    damage(path + ".feeds", spec.checkpoint)
    restored = open_engine(spec)
    server, snap = asyncio.run(serve(restored, []))
    return restored, server.feeds, snap


def tear(path, policy):
    with open(path, "w") as fh:
        fh.write("{torn")


def drop_a_segment_key(path, policy):
    """Keep the stamp, delete one segment's ``"key"``."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    del doc["segments"][0]["key"]
    with open(path, "w") as fh:
        json.dump(doc, fh)


def advance(path, policy):
    """Leave the sidecar stale: one more journaled arrival past the
    checkpoint moves the restored version."""
    with JournalWriter(policy.journal_dir) as journal:
        journal.append_ingest({"d0": "a9", "d1": "b9", "m0": 3, "m1": 3})


def remove(path, policy):
    os.remove(path)


class TestSidecarLoad:
    """At start, an unreadable sidecar is counted in
    ``sidecar_failures`` and the feeds are rebuilt; a stale or missing
    one is rebuilt without a count."""

    @pytest.mark.parametrize("damage", [tear, drop_a_segment_key])
    def test_unreadable_sidecar_is_counted_and_rebuilt(self, tmp_path, damage):
        engine, feeds, snap = serve_and_restore(tmp_path, damage)
        assert snap["sidecar_failures"] == 1
        assert "ck.json.feeds" in snap["failure_causes"]["sidecar_failures"]
        assert snap["last_error"] == snap["failure_causes"]["sidecar_failures"]
        assert store_segments(feeds) == oracle_segments(engine, feeds)
        assert len(feeds)
        engine.close()

    @pytest.mark.parametrize("damage", [advance, remove])
    def test_stale_or_missing_sidecar_is_not_counted(self, tmp_path, damage):
        engine, feeds, snap = serve_and_restore(tmp_path, damage)
        assert snap["sidecar_failures"] == 0
        assert snap["last_error"] is None
        assert store_segments(feeds) == oracle_segments(engine, feeds)
        assert len(feeds)
        engine.close()


class TestCrashRestartFolds:
    """A kill-and-restart folds the journal suffix into the feeds
    through the served batch's own step: 60 ops served one per batch,
    a checkpoint after the first 30, then ``stop(drain=False)`` and a
    fresh engine.  The feeds come back as an unfaulted run left them,
    segment versions included, and nothing is rebuilt."""

    SUFFIXES = {
        "svec": ({"algorithm": "svec"}, STREAM[30:60]),
        "window": ({"algorithm": "svec", "window": 25}, STREAM[30:60]),
        "deletes": (
            {"algorithm": "svec"},
            STREAM[30:40] + [2] + STREAM[40:50] + [31, 40] + STREAM[50:57],
        ),
    }

    @staticmethod
    async def serve(spec, ops, drain=True, cursor_of=None):
        server = StreamServer(open_engine(spec))
        await server.start()
        for op in ops:
            if isinstance(op, int):
                await server.delete(op)
            else:
                await server.ingest_wait(op)
        cursor = None
        if cursor_of is not None:
            cursor = server.feeds.read(cursor_of, limit=1)["next_cursor"]
        await server.stop(drain=drain)
        server.engine.close()
        return server, cursor

    @staticmethod
    def standing(feeds):
        versions = {s["segment"]: s["version"] for s in feeds.segments()}
        return versions, store_segments(feeds)

    def crash(self, tmp_path, composition, suffix):
        """Serve the first 30 ops with a checkpoint, then ``suffix``
        without one; returns the spec and a ``d0=a0`` cursor minted just
        before the kill."""
        spec = make_spec(
            checkpoint=CheckpointPolicy(
                str(tmp_path / "ck.json"), journal_dir=str(tmp_path / "wal")
            ),
            **composition,
        )
        asyncio.run(self.serve(spec, STREAM[:30]))
        _, cursor = asyncio.run(self.serve(spec, suffix, False, "d0=a0"))
        assert cursor is not None
        return spec, cursor

    def restart(self, spec, cursor, d0="a0"):
        """Restore from ``spec``'s durable state, then 40 arrivals into
        segment ``d0``, reading the pre-crash cursor after each.
        Returns the stats, the restored standing and its oracle, and
        whether each read restarted the cursor."""

        async def run():
            server = StreamServer(open_engine(spec))
            await server.start()
            feeds = server.feeds
            restored = self.standing(feeds), oracle_segments(server.engine, feeds)
            # Every later arrival into the segment bumps its version past
            # the cursor's: the cursor restarts, never reads as current.
            restarted = []
            for row in STREAM[60:100]:
                await server.ingest_wait(dict(row, d0=d0))
                page = feeds.read(f"d0={d0}", cursor=cursor, limit=1)
                restarted.append(page.get("restarted", False))
            await server.stop(drain=False)
            server.engine.close()
            return server.stats, restored, restarted

        return asyncio.run(run())

    @pytest.mark.parametrize("case", sorted(SUFFIXES))
    def test_restart_equals_an_unfaulted_run(self, tmp_path, monkeypatch, case):
        composition, suffix = self.SUFFIXES[case]
        rebuilds = []
        rebuild = FeedStore.rebuild
        monkeypatch.setattr(
            FeedStore,
            "rebuild",
            lambda store, engine: rebuilds.append(1) or rebuild(store, engine),
        )
        unfaulted, _ = asyncio.run(
            self.serve(make_spec(**composition), STREAM[:30] + suffix)
        )
        spec, cursor = self.crash(tmp_path, composition, suffix)
        stats, (restored, oracle), restarted = self.restart(spec, cursor)
        assert stats.recovered_from == "checkpoint+journal"
        assert stats.ops_replayed == len(suffix)
        assert rebuilds == []
        assert restored == self.standing(unfaulted.feeds)
        assert restored[1] == oracle
        assert len(restarted) == 40 and all(restarted)

    @pytest.mark.parametrize("case", sorted(SUFFIXES))
    def test_a_rebuild_restarts_every_pre_crash_cursor(self, tmp_path, case):
        """With the sidecar gone the restart rebuilds the feeds, and
        every segment starts above the versions the crashed server
        served.  Versions used to restart at 1, so the 40 arrivals
        walked ``d0=a0`` back up to the cursor's version, and the cursor
        then read as current over different content."""
        composition, suffix = self.SUFFIXES[case]
        spec, cursor = self.crash(tmp_path, composition, suffix)
        os.remove(spec.checkpoint.path + ".feeds")
        stats, (restored, oracle), restarted = self.restart(spec, cursor)
        assert stats.recovered_from == "checkpoint+journal"
        assert restored[1] == oracle
        assert len(restarted) == 40 and all(restarted)

    def test_a_segment_rebuilt_away_restarts_its_cursor(self, tmp_path):
        """A segment whose rows were all deleted before the crash is not
        rebuilt.  When rows come back to it, it starts at the rebuild's
        floor too, so its pre-crash cursor still restarts (from 1 it
        would climb back to the cursor's version 3)."""
        spec, _ = self.crash(tmp_path, {"algorithm": "svec"}, [])
        rows = [dict(row, d0="z") for row in STREAM[30:33]]
        _, cursor = asyncio.run(self.serve(spec, rows, False, "d0=z"))
        asyncio.run(self.serve(spec, [30, 31, 32], False))
        os.remove(spec.checkpoint.path + ".feeds")
        stats, _, restarted = self.restart(spec, cursor, "z")
        assert cursor.startswith("v3:")
        assert stats.recovered_from == "checkpoint+journal"
        assert len(restarted) == 40 and all(restarted)

    def test_a_rebuilt_floor_rides_in_the_sidecar(self, tmp_path):
        """A segment first seen after a rebuild starts at the rebuild's
        floor, on the crashed server and in the journal replay over its
        checkpoint alike."""
        spec, _ = self.crash(tmp_path, {"algorithm": "svec"}, STREAM[30:60])
        os.remove(spec.checkpoint.path + ".feeds")
        asyncio.run(self.serve(spec, []))  # rebuilds, then checkpoints
        new = [dict(row, d0="a9") for row in STREAM[60:65]]
        crashed, _ = asyncio.run(self.serve(spec, new, False))
        versions, _ = self.standing(crashed.feeds)
        assert versions["d0=a9"] > 60

        async def restored():
            server = StreamServer(open_engine(spec))
            await server.start()
            standing = self.standing(server.feeds)
            await server.stop(drain=False)
            server.engine.close()
            return standing

        assert asyncio.run(restored()) == self.standing(crashed.feeds)


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
