"""Tests for the sliding-window, aggregate, and snapshot extensions."""

import os

import pytest

from repro import Constraint, DiscoveryConfig, FactDiscoverer, TableSchema
from repro.api import EngineSpec, open_engine
from repro.extensions import GroupSpec, load_engine, save_engine

SCHEMA = TableSchema(("d",), ("m1", "m2"))


def windowed(window, algorithm="stopdown"):
    return open_engine(EngineSpec(SCHEMA, algorithm, window=window))


def aggregate(group, algorithm="stopdown"):
    return open_engine(
        EngineSpec(group.base_schema(), algorithm, aggregate=group)
    )


class TestWindowed:
    def test_window_evicts_oldest(self):
        engine = windowed(3)
        for v in (5, 1, 2, 3):
            engine.observe({"d": "x", "m1": v, "m2": v})
        assert len(engine) == 3
        assert engine.live_tids == [1, 2, 3]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            windowed(0)

    def test_record_breaks_window_after_champion_leaves(self):
        """A value beaten by an evicted champion is a fact *within the
        window* — the whole point of windowed discovery."""
        engine = windowed(2)
        engine.observe({"d": "x", "m1": 100, "m2": 100})  # champion
        engine.observe({"d": "x", "m1": 1, "m2": 1})
        engine.observe({"d": "x", "m1": 2, "m2": 2})  # champion evicted
        facts = engine.observe({"d": "x", "m1": 50, "m2": 50})
        top_full = (Constraint((None,)), SCHEMA.full_measure_mask)
        assert any(f.pair == top_full for f in facts)

    def test_matches_fresh_engine_on_window_contents(self):
        rows = [{"d": "x", "m1": i % 4, "m2": (i * 3) % 5} for i in range(10)]
        probe = {"d": "x", "m1": 2, "m2": 2}
        engine = windowed(4, algorithm="bottomup")
        for row in rows:
            engine.observe(row)
        got = {
            (f.constraint.values, f.subspace)
            for f in engine.observe(probe)
        }
        # The window includes the new arrival: the probe is compared
        # against the window-1 most recent historical rows.
        fresh = FactDiscoverer(SCHEMA, algorithm="bottomup")
        for row in rows[-3:]:
            fresh.observe(row)
        expected = {
            (f.constraint.values, f.subspace) for f in fresh.observe(probe)
        }
        assert got == expected

    def test_observe_many(self):
        engine = windowed(2)
        outs = engine.observe_many(
            {"d": "x", "m1": i, "m2": i} for i in range(4)
        )
        assert len(outs) == 4


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupSpec((), {"t": ("p", "sum")})
        with pytest.raises(ValueError):
            GroupSpec(("g",), {})
        with pytest.raises(ValueError):
            GroupSpec(("g",), {"t": ("p", "median")})


class TestAggregates:
    def _spec(self):
        return GroupSpec(
            ("team",),
            {
                "total": ("pts", "sum"),
                "best": ("pts", "max"),
                "games": ("pts", "count"),
            },
        )

    def test_running_aggregates(self):
        agg = aggregate(self._spec())
        agg.observe({"team": "A", "pts": 10})
        agg.observe({"team": "A", "pts": 30})
        agg.observe({"team": "B", "pts": 25})
        assert agg.aggregate_row(("A",)) == {
            "team": "A", "total": 40.0, "best": 30.0, "games": 2.0,
        }
        assert agg.group_count() == 2

    def test_one_live_aggregate_tuple_per_group(self):
        agg = aggregate(self._spec())
        for i in range(5):
            agg.observe({"team": "A", "pts": i})
        for i in range(3):
            agg.observe({"team": "B", "pts": i})
        assert len(agg.table) == 2  # stale aggregates retracted

    def test_overtaking_group_becomes_fact(self):
        agg = aggregate(GroupSpec(("team",), {"total": ("pts", "sum")}))
        agg.observe({"team": "A", "pts": 50})
        agg.observe({"team": "B", "pts": 30})
        facts = agg.observe({"team": "B", "pts": 40})  # B overtakes: 70 > 50
        top = (Constraint((None,)), 0b1)
        assert any(f.pair == top for f in facts)

    def test_avg_and_min(self):
        spec = GroupSpec(
            ("team",), {"mean": ("pts", "avg"), "low": ("pts", "min")}
        )
        agg = aggregate(spec)
        agg.observe({"team": "A", "pts": 10})
        agg.observe({"team": "A", "pts": 20})
        row = agg.aggregate_row(("A",))
        assert row["mean"] == 15.0
        assert row["low"] == 10.0


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        engine = FactDiscoverer(
            SCHEMA,
            algorithm="stopdown",
            config=DiscoveryConfig(max_bound_dims=1, tau=2.0),
        )
        engine.observe({"d": "x", "m1": 3, "m2": 4})
        engine.observe({"d": "y", "m1": 1, "m2": 9})
        path = str(tmp_path / "snap.json")
        save_engine(engine, path)
        loaded = load_engine(path)
        assert len(loaded.table) == 2
        assert loaded.algorithm.name == "stopdown"
        assert loaded.config.tau == 2.0
        # Same future behaviour: next observation gives identical facts.
        probe = {"d": "x", "m1": 2, "m2": 2}
        expected = {(f.constraint.values, f.subspace) for f in engine.facts_for(probe)}
        got = {(f.constraint.values, f.subspace) for f in loaded.facts_for(probe)}
        assert got == expected

    def test_preferences_preserved(self, tmp_path):
        from repro import MIN

        schema = TableSchema(("d",), ("pts", "fouls"), {"fouls": MIN})
        engine = FactDiscoverer(schema, algorithm="bottomup")
        engine.observe({"d": "x", "pts": 5, "fouls": 2})
        path = str(tmp_path / "snap.json")
        save_engine(engine, path)
        loaded = load_engine(path)
        assert loaded.schema.preference("fouls") == MIN

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format_version": 99}, fh)
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_engine(path)
