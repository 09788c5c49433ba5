"""Tests for narration and the streaming news feed."""

import pytest

from repro import Constraint, DiscoveryConfig, Record, TableSchema
from repro.api import EngineSpec, open_engine
from repro.core.facts import SituationalFact
from repro.reporting import NewsFeed, narrate, narrate_all
from repro.reporting.narrate import context_phrase, measure_phrase, subject_phrase

SCHEMA = TableSchema(("player", "team"), ("points", "rebounds"))


def news_feed(**config):
    """A feed over an in-proc engine on ``SCHEMA``."""
    spec = EngineSpec(SCHEMA, config=DiscoveryConfig(**config))
    return NewsFeed(open_engine(spec))


def fact(constraint_values, subspace, context=100, skyline=1):
    record = Record(0, ("Wesley", "Celtics"), (54.0, 10.0), (54, 10))
    return SituationalFact(
        record, Constraint(constraint_values), subspace, context, skyline
    )


class TestPhrases:
    def test_measure_phrase_single(self):
        f = fact(("Wesley", None), SCHEMA.measure_mask(("points",)))
        assert measure_phrase(f, SCHEMA) == "54 points"

    def test_measure_phrase_multiple_uses_and(self):
        f = fact(("Wesley", None), SCHEMA.full_measure_mask)
        assert measure_phrase(f, SCHEMA) == "54 points and 10 rebounds"

    def test_context_phrase(self):
        f = fact((None, "Celtics"), 0b1)
        assert context_phrase(f, SCHEMA) == "records with team=Celtics"

    def test_context_phrase_top(self):
        f = fact((None, None), 0b1)
        assert context_phrase(f, SCHEMA) == "all records"

    def test_subject_is_entity_attribute(self):
        """The lead entity is the record's first dimension (the entity
        column by schema convention), not the constraint binding."""
        f = fact((None, "Celtics"), 0b1)
        assert subject_phrase(f, SCHEMA) == "Wesley"

    def test_subject_with_top_constraint(self):
        f = fact((None, None), 0b1)
        assert subject_phrase(f, SCHEMA) == "Wesley"


class TestNarrate:
    def test_full_sentence(self):
        f = fact(("Wesley", None), SCHEMA.measure_mask(("points",)), 1203, 1)
        text = narrate(f, SCHEMA)
        assert "Wesley" in text
        assert "54 points" in text
        assert "1,203 on record" in text
        assert "prominence 1,203" in text

    def test_unscored_fact_narrates_without_numbers(self):
        f = fact(("Wesley", None), 0b1, context=None, skyline=None)
        text = narrate(f, SCHEMA)
        assert "Wesley" in text and "prominence" not in text

    def test_narrate_all_limits(self):
        facts = [fact(("Wesley", None), 0b1)] * 5
        digest = narrate_all(facts, SCHEMA, limit=2)
        assert digest.count("\n") == 1


class TestNewsFeed:
    def test_feed_emits_headlines_above_tau(self):
        feed = news_feed(tau=3.0, max_bound_dims=1, max_measure_dims=2)
        rows = [
            {"player": f"P{i}", "team": "T", "points": i % 3, "rebounds": i % 2}
            for i in range(12)
        ]
        # A record-shattering arrival after a dozen mediocre ones.
        rows.append({"player": "Star", "team": "T", "points": 99, "rebounds": 99})
        headlines = feed.run(rows)
        assert headlines, "the star performance must make the news"
        last = headlines[-1]
        assert last.fact.prominence >= 3.0
        assert "Star" in last.text or "T" in last.text

    def test_quiet_stream_stays_quiet(self):
        feed = news_feed(tau=1e6)
        rows = [
            {"player": "A", "team": "T", "points": i, "rebounds": i}
            for i in range(10)
        ]
        assert feed.run(rows) == []
        assert len(feed) == 0

    def test_push_returns_only_new_headlines(self):
        feed = news_feed(tau=2.0, max_bound_dims=1, max_measure_dims=1)
        for i in range(6):
            feed.push({"player": "A", "team": "T", "points": 1, "rebounds": 1})
        out = feed.push({"player": "B", "team": "T", "points": 50, "rebounds": 50})
        assert all(h.tuple_index == 6 for h in out)
