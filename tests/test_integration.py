"""Cross-module integration tests: long streams, snapshot mid-stream,
file-backed retraction, end-to-end pipelines."""

import pytest

from repro import Constraint, DiscoveryConfig, FactDiscoverer, TableSchema, make_algorithm
from repro.algorithms import FSTopDown
from repro.datasets import nba_rows, nba_schema, synthetic_rows, synthetic_schema
from repro.extensions import load_engine, save_engine


class TestSnapshotMidStream:
    def test_resume_produces_identical_future(self, tmp_path):
        schema = nba_schema(4, 4)
        config = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2)
        rows = nba_rows(60, d=4, m=4)

        straight = FactDiscoverer(schema, algorithm="stopdown", config=config)
        for row in rows[:40]:
            straight.observe(row)
        path = str(tmp_path / "mid.json")
        save_engine(straight, path)
        resumed = load_engine(path)

        for row in rows[40:]:
            a = {(f.constraint.values, f.subspace) for f in straight.facts_for(row)}
            b = {(f.constraint.values, f.subspace) for f in resumed.facts_for(row)}
            assert a == b


class TestFileBackedRetraction:
    def test_fstopdown_delete_matches_replay(self, tmp_path):
        schema = synthetic_schema(2, 2)
        rows = synthetic_rows(20, 2, 2, cardinalities=[3, 3], seed=6)
        algo = FSTopDown(schema, directory=str(tmp_path / "a"))
        algo.process_stream(rows)
        algo.retract(0)
        algo.retract(5)

        replay = FSTopDown(schema, directory=str(tmp_path / "b"))
        kept = [row for i, row in enumerate(rows) if i not in (0, 5)]
        replay.process_stream(kept)

        def content(a):
            out = {}
            for key, records in a.store.iter_pairs():
                out.setdefault(key, set()).update((r.dims, r.raw) for r in records)
            return out

        assert content(algo) == content(replay)
        algo.close()
        replay.close()


class TestLongStreamStability:
    def test_three_hundred_tuples_all_consistent(self):
        """Longer-run smoke: facts agree between the two families and
        counters/stores stay self-consistent throughout."""
        schema = nba_schema(4, 4)
        config = DiscoveryConfig(max_bound_dims=3, max_measure_dims=3)
        rows = nba_rows(300, d=4, m=4, seed=77)
        a = make_algorithm("sbottomup", schema, config)
        b = make_algorithm("stopdown", schema, config)
        for i, row in enumerate(rows):
            fa = a.process(dict(row)).pairs
            fb = b.process(dict(row)).pairs
            assert fa == fb, f"divergence at tuple {i}"
        assert a.counters.stored_tuples == a.store.stored_tuple_count()
        assert b.stored_tuple_count() <= a.stored_tuple_count()


class TestEndToEndPipeline:
    def test_csv_to_headlines(self, tmp_path):
        """CSV in, narrated prominent headlines out — the full product
        path a newsroom would run."""
        from repro.datasets import save_rows
        from repro.api import EngineSpec, open_engine
        from repro.reporting import NewsFeed

        schema = nba_schema(4, 4)
        path = str(tmp_path / "games.csv")
        save_rows(path, schema, nba_rows(120, d=4, m=4))

        from repro.datasets import load_rows

        config = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2, tau=10.0)
        spec = EngineSpec(schema, config=config)
        feed = NewsFeed(open_engine(spec))
        for row in load_rows(path, schema):
            feed.push(row)
        assert len(feed) > 0
        assert all(h.fact.prominence >= 10.0 for h in feed.headlines)
        assert all(h.text.endswith(".") for h in feed.headlines)
