"""Update: the retract-then-observe replacement (§VIII).  Randomized
insert / delete / update schedules, against replay of the live rows,
are ``tests/test_corpus.py``'s.
"""

import pytest

from repro import FactDiscoverer, TableSchema

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


class TestUpdate:
    def test_update_replaces_tuple(self):
        engine = FactDiscoverer(SCHEMA, algorithm="stopdown")
        engine.observe({"d0": "a", "d1": "x", "m0": 9, "m1": 9})
        engine.update(0, {"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        assert len(engine) == 1
        # A mid-range arrival now tops everything (the 9/9 is gone).
        facts = engine.facts_for({"d0": "a", "d1": "x", "m0": 5, "m1": 5})
        assert all(f.skyline_size == 1 for f in facts)

    def test_update_missing_raises(self):
        engine = FactDiscoverer(SCHEMA, algorithm="bottomup")
        with pytest.raises(KeyError):
            engine.update(3, {"d0": "a", "d1": "x", "m0": 1, "m1": 1})
