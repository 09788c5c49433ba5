"""The columnar ``FeedStore`` against the object store it replaced.

``tests/feed_oracle.py`` is the parent's object-per-entry store; every
stream below is folded into both and the two must agree on everything a
caller can see — changed-key sets, segment summaries, stats, ranked pages
under a ``(top_k, τ)`` grid, the checkpoint section — after every single
operation.  The spy tests pin what the columnar layout is *for* (no
per-fact objects on the write path, winners-only reads, bounded tables),
and the two regression classes pin bugs the parent had.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Constraint, TableSchema
from repro.api import EngineSpec, FeedSpec, open_engine
from repro.core.facts import FactSet
from repro.service import FeedGateway, FeedStore
from repro.service import feeds as feeds_module
from repro.service.gateway import SubscriptionFilter, _Subscriber
from tests import feed_oracle
from tests.strategies import none_row_strategy, wide_row_strategy
from tests.test_feeds import oracle_segments, store_segments

SCHEMA = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))

#: Read-time policies compared after every op; ``(None, None)`` under a
#: spec without defaults is "everything".
READ_GRID = [
    (top_k, tau)
    for top_k in (None, 1, 3, 10**6)
    for tau in (None, 1.0, 1.5, 2.5)
]

#: One step of a stream.  ``settle`` runs the repair pass right after
#: the op (what the server does per batch); leaving it off lets
#: retractions and lost arrivals pile up across ops.
rows = st.one_of(none_row_strategy, wide_row_strategy)
op_strategy = st.one_of(
    st.tuples(st.just("arrive"), rows, st.booleans()),
    st.tuples(st.just("arrive"), rows, st.booleans()),
    st.tuples(st.just("lose"), rows, st.booleans()),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40), st.booleans()),
    st.tuples(st.just("restore")),
    st.tuples(st.just("rebuild")),
)


def ranked(store, key, top_k, tau):
    return [
        (e.constraint, e.subspace, e.context_size, e.skyline_size, e.tid)
        for e in store.entries_ranked(key, top_k=top_k, tau=tau)
    ]


def assert_same(new, old):
    assert new.segments() == old.segments()
    assert new.stats() == old.stats()
    assert len(new) == len(old)
    doc = new.to_doc()
    assert doc == old.to_doc()
    # A constraint's table row is released with its last entry.
    assert {constraint.values for constraint in new._cid} == {
        tuple(entry["values"])
        for segment in doc["segments"]
        for entry in segment["entries"]
    }
    for key in old.segment_keys():
        for top_k, tau in READ_GRID:
            assert ranked(new, key, top_k, tau) == ranked(old, key, top_k, tau), (
                key,
                top_k,
                tau,
            )
        assert new.read(key, limit=3) == old.read(key, limit=3)


def run_differential(ops, algorithm, window, max_entries):
    spec = FeedSpec(group_by=("d0",), max_entries=max_entries)
    engine = open_engine(
        EngineSpec(schema=SCHEMA, algorithm=algorithm, score=True, window=window)
    )
    new = FeedStore.for_engine(engine, spec)
    old = feed_oracle.FeedStore.for_engine(engine, spec)
    for store in (new, old):
        store.attach(engine)
    for op in ops:
        kind = op[0]
        if kind in ("arrive", "lose"):
            factset = engine.facts_for(op[1])
            if kind == "lose":
                factset, record = None, factset.record
            else:
                record = factset.record
                # One form for every algorithm: cells over the whole C^t.
                assert len(factset.cells()[0]) == new._lattice_size
            assert new.apply_event(record, factset) == old.apply_event(
                record, factset
            )
        elif kind == "delete":
            table = engine.table
            if not len(table):
                continue
            live = [record.tid for record in table]
            removed = engine.delete(live[op[1] % len(live)])
            for store in (new, old):
                store.note_retracted(removed)
        elif kind == "restore":
            # Pending retractions would die with the replaced stores (as
            # across a real restart, which checkpoints settled): settle.
            assert new.repair(engine) == old.repair(engine)
            doc = json.loads(json.dumps(old.to_doc()))
            new = FeedStore.for_engine(engine, spec)
            old = feed_oracle.FeedStore.for_engine(engine, spec)
            for store in (new, old):
                store.restore_doc(doc)
                store.attach(engine)
        else:
            new.rebuild(engine)
            old.rebuild(engine)
        if kind in ("restore", "rebuild") or op[2]:
            assert new.repair(engine) == old.repair(engine)
        assert_same(new, old)
    assert new.repair(engine) == old.repair(engine)
    assert_same(new, old)
    if max_entries >= 1024:
        # Cap not binding: both are exact, None dimensions included.
        assert store_segments(new) == oracle_segments(engine, new)


class TestDifferentialAgainstObjectStore:
    @pytest.mark.parametrize("max_entries", [4, 1024])
    @pytest.mark.parametrize(
        "algorithm,window",
        [("svec", None), ("svec", 4), ("stopdown", None), ("stopdown", 5)],
    )
    @settings(max_examples=12, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=16))
    def test_every_op_leaves_both_stores_equal(
        self, ops, algorithm, window, max_entries
    ):
        run_differential(ops, algorithm, window, max_entries)

    def test_every_op_kind_once_on_a_none_heavy_stream(self):
        """The deterministic spine of the property above: every op kind
        once, cap binding, on a None-heavy stream."""
        stream = [
            {"d0": "a", "d1": "x", "d2": None, "m0": 3, "m1": 0},
            {"d0": "a", "d1": None, "d2": "p", "m0": 0, "m1": 3},
            {"d0": None, "d1": "x", "d2": "p", "m0": 2, "m1": 2},
            {"d0": "b", "d1": "y", "d2": None, "m0": 1, "m1": 1},
        ]
        ops = [("arrive", row, i % 2 == 0) for i, row in enumerate(stream)]
        ops += [("delete", 1, False), ("lose", stream[0], True), ("restore",)]
        ops += [("arrive", stream[2], True), ("rebuild",), ("delete", 0, True)]
        for algorithm in ("svec", "stopdown"):
            run_differential(ops, algorithm, None, 4)


class TestSidecarCompatibility:
    #: ``json.dumps(store.to_doc())`` of the object store
    #: (``tests/feed_oracle.py``) after three arrivals under
    #: ``max_entries=6``: ``d0=*`` truncated by the cap, ``d0=a`` /
    #: ``d0=b`` whole, every constraint's subspaces sharing one context.
    PARENT_DOC = (
        '{"applied_arrivals": 3, "segments": [{"key": '
        '"d0=*", "version": 3, "last_arrival": 3, "evicted": 7, "entries": '
        '[{"values": [null, null], "subspace": 2, "ctx": 3, "sky": 1, "tid": '
        '1}, {"values": [null, null], "subspace": 1, "ctx": 3, "sky": 1, '
        '"tid": 2}, {"values": [null, null], "subspace": 3, "ctx": 3, "sky": '
        '3, "tid": 2}, {"values": [null, "x"], "subspace": 3, "ctx": 2, '
        '"sky": 2, "tid": 2}, {"values": [null, "x"], "subspace": 1, "ctx": '
        '2, "sky": 1, "tid": 2}]}, {"key": "d0=a", "version": 2, '
        '"last_arrival": 3, "evicted": 0, "entries": [{"values": ["a", null],'
        ' "subspace": 3, "ctx": 2, "sky": 2, "tid": 2}, {"values": ["a", '
        '"x"], "subspace": 3, "ctx": 2, "sky": 2, "tid": 2}, {"values": ["a",'
        ' null], "subspace": 2, "ctx": 2, "sky": 1, "tid": 0}, {"values": '
        '["a", "x"], "subspace": 2, "ctx": 2, "sky": 1, "tid": 0}, {"values":'
        ' ["a", null], "subspace": 1, "ctx": 2, "sky": 1, "tid": 2}, '
        '{"values": ["a", "x"], "subspace": 1, "ctx": 2, "sky": 1, "tid": '
        '2}]}, {"key": "d0=b", "version": 1, "last_arrival": 2, "evicted": 0,'
        ' "entries": [{"values": ["b", null], "subspace": 3, "ctx": 1, "sky":'
        ' 1, "tid": 1}, {"values": ["b", "y"], "subspace": 3, "ctx": 1, '
        '"sky": 1, "tid": 1}, {"values": ["b", null], "subspace": 2, "ctx": '
        '1, "sky": 1, "tid": 1}, {"values": ["b", "y"], "subspace": 2, "ctx":'
        ' 1, "sky": 1, "tid": 1}, {"values": ["b", null], "subspace": 1, '
        '"ctx": 1, "sky": 1, "tid": 1}, {"values": ["b", "y"], "subspace": 1,'
        ' "ctx": 1, "sky": 1, "tid": 1}]}]}'
    )

    def test_parent_document_roundtrips_byte_for_byte(self):
        doc = json.loads(self.PARENT_DOC)
        schema = TableSchema(("d0", "d1"), ("m0", "m1"))
        engine = open_engine(EngineSpec(schema=schema, score=True))
        spec = FeedSpec(group_by=("d0",), max_entries=6)
        for module in (feeds_module, feed_oracle):
            store = module.FeedStore.for_engine(engine, spec)
            store.restore_doc(doc)
            assert json.dumps(store.to_doc()) == self.PARENT_DOC
            assert store.read("d0=*")["truncated"] == 7
            assert "truncated" not in store.read("d0=a")
            top = [e for e in store.entries_ranked("d0=*") if not e.constraint.bound_count]
            assert [e.context_size for e in top] == [3, 3, 3]


class TestUnscoredFactSets:
    """An ``S_t`` without cardinalities used to be stored with
    ``skyline_size = 0`` and every later read of its segment raised
    ``ZeroDivisionError``."""

    ROWS = [
        {"d0": "a", "d1": "x", "d2": "p", "m0": 3, "m1": 1},
        {"d0": "a", "d1": "y", "d2": "p", "m0": 1, "m1": 3},
        {"d0": "b", "d1": "x", "d2": "q", "m0": 2, "m1": 2},
    ]

    def test_unscored_arrival_takes_the_lost_arrival_path(self):
        engine = open_engine(EngineSpec(schema=SCHEMA, score=False))
        store = FeedStore(SCHEMA, engine.config, FeedSpec(group_by=("d0",)))
        factset = engine.facts_for(self.ROWS[0])
        assert factset.columns()[3] is None and len(factset)
        assert store.apply_event(factset.record, factset) == set()
        assert store.entries_ranked("d0=a") == []  # nothing written yet
        changed = store.repair(engine)
        assert changed == {"d0=a", "d0=*"}
        assert store.entries_ranked("d0=a") and store.read("d0=*")["total"]
        for row in self.ROWS[1:]:
            factset = engine.facts_for(row)
            store.apply_event(factset.record, factset)
            store.repair(engine)
        assert store_segments(store) == oracle_segments(engine, store)


class TestShardedCellsMatchTheWalk:
    """A shard worker used to send each fact's *bound* mask, which None
    dimension values collapse: the router then put a constraint's
    collapsed facts at one position, the fold's duplicate check missed
    them, and the sharded feed held every such pair several times."""

    ROWS = [
        {"d0": "a", "d1": None, "d2": None, "m0": i % 3, "m1": (5 - i) % 4}
        for i in range(6)
    ]

    def test_sharded_fact_sets_and_feeds_equal_single_svec(self):
        from repro.api import ShardingSpec

        stores, cells = [], []
        for sharding in (None, ShardingSpec(2, "serial")):
            engine = open_engine(
                EngineSpec(SCHEMA, "svec", score=True, sharding=sharding)
            )
            store = FeedStore.for_engine(engine, FeedSpec(group_by=("d0",)))
            got = []
            for row in self.ROWS:
                factset = engine.facts_for(row)
                store.apply_event(factset.record, factset)
                cons_seq, positions, subspaces = factset.cells()
                got.append(
                    (tuple(cons_seq), positions.tolist(), subspaces.tolist())
                )
            stores.append(store)
            cells.append(got)
            assert store_segments(store) == oracle_segments(engine, store)
            engine.close()
        single, sharded = stores
        assert cells[0] == cells[1]
        assert len(sharded) == len(single) and sharded.stats() == single.stats()


class TestOneLockHoldPerRead:
    """``read`` and the gateway's frame renderer label a page with a
    segment version; a fold landing between "take the version" and
    "rank the entries" must not be able to separate the two."""

    def _page(self, store):
        return [e.to_json_dict(store.schema) for e in store.entries_ranked("*")]

    def _version(self, store):
        return store.segments()[0]["version"]  # independent of version()

    def _raced(self, render, fold_first):
        """``render(store) -> (version, entries)`` with a fold attempted
        from the engine's side right before (or right after) the
        entries are taken — ``entries_ranked`` is wrapped as an instance
        attribute, the way the e2e tracer wraps it."""
        engine = open_engine(EngineSpec(schema=SCHEMA, score=True))
        store = FeedStore.for_engine(engine, FeedSpec())
        for row in TestUnscoredFactSets.ROWS:
            factset = engine.facts_for(row)
            store.apply_event(factset.record, factset)
        pages = {self._version(store): self._page(store)}
        late = engine.facts_for({"d0": "c", "d1": "z", "d2": "r", "m0": 9, "m1": 9})
        fold = threading.Thread(target=store.apply_event, args=(late.record, late))
        inner = store.entries_ranked

        def attempt_fold():
            fold.start()
            fold.join(0.3)  # over at once unless the reader holds the lock

        def entries_ranked(key, **kwargs):
            if fold_first:
                attempt_fold()
            entries = inner(key, **kwargs)
            if not fold_first:
                attempt_fold()
            return entries

        store.entries_ranked = entries_ranked
        version, entries = render(store)
        fold.join(5)
        assert not fold.is_alive()
        del store.entries_ranked
        pages[self._version(store)] = self._page(store)
        assert len(pages) == 2  # the fold landed and changed the page
        assert entries == pages[version]

    def test_read_labels_a_page_with_its_own_version(self):
        def render(store):
            page = store.read("*")
            return page["version"], page["entries"]

        self._raced(render, fold_first=True)

    def test_gateway_frame_carries_its_entries_version(self):
        def render(store):
            class Server:  # what FeedGateway reads off a StreamServer
                feeds = store
                stats = None

            conn = _Subscriber(SubscriptionFilter(), writer=None)
            frame = FeedGateway(Server())._render(conn, "*", False)
            payload = json.loads(frame[frame.index(b"{"):])
            return payload["version"], payload["entries"]

        self._raced(render, fold_first=False)


class TestColumnarFoldBuildsNoObjects:
    """Deterministic de-vectorisation guards for the feed tier."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        init = feeds_module.FeedEntry.__init__

        def spy(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(feeds_module.FeedEntry, "__init__", spy)
        return count

    def _engine(self, d=4, m=4):
        from repro.datasets.synthetic import synthetic_schema

        return open_engine(
            EngineSpec(schema=synthetic_schema(d, m), algorithm="svec", score=True)
        )

    def test_scored_batch_folds_without_entries_or_expansion(
        self, built, monkeypatch
    ):
        from repro.datasets.synthetic import synthetic_rows

        def forbidden(self, *args, **kwargs):
            raise AssertionError("the fold read S_t as per-fact lists")

        engine = self._engine()
        store = FeedStore.for_engine(engine, FeedSpec(group_by=("d0",)))
        fact_sets = engine.facts_for_many(
            synthetic_rows(256, 4, 4, distribution="anticorrelated")
        )
        monkeypatch.setattr(FactSet, "columns", forbidden)
        monkeypatch.setattr(FactSet, "iter_pairs", forbidden)
        monkeypatch.setattr(FactSet, "_build", forbidden)
        for factset in fact_sets:
            assert store.apply_event(factset.record, factset)
        assert built[0] == 0
        assert store.stats()["evicted"] > 0  # the cap ran on columns too

    def test_top_k_read_at_the_cap_builds_only_what_it_returns(self, built):
        from repro.datasets.synthetic import synthetic_rows

        engine = self._engine()
        store = FeedStore.for_engine(
            engine, FeedSpec(group_by=("d0",), max_entries=256)
        )
        for factset in engine.facts_for_many(
            synthetic_rows(200, 4, 4, distribution="anticorrelated")
        ):
            store.apply_event(factset.record, factset)
        key = max(store.segments(), key=lambda s: s["entries"])["segment"]
        assert store.read(key)["truncated"]  # the segment sits at the cap
        assert built[0] == len(store.entries_ranked(key))  # "everything"
        before = built[0]
        page = store.entries_ranked(key, top_k=10)
        assert 10 <= len(page) < 64
        assert built[0] - before == len(page)

    def test_tables_stay_bounded_by_the_live_entries(self):
        """2 000 arrivals whose dimension values never repeat: every
        one founds 2^|D| - 1 constraints nothing will satisfy again, so
        the cap's victims must give their constraint rows, slots and
        entry columns back."""
        schema = TableSchema(("d0", "d1", "d2"), ("m0", "m1"))
        engine = open_engine(EngineSpec(schema=schema, algorithm="svec", score=True))
        store = FeedStore.for_engine(engine, FeedSpec(max_entries=64))
        for i in range(2000):
            factset = engine.facts_for(
                {"d0": f"a{i}", "d1": f"b{i}", "d2": f"c{i}",
                 "m0": i % 7, "m1": (i * 5) % 11}
            )
            store.apply_event(factset.record, factset)
        live = len(store)
        assert live <= 64
        per_arrival = 8 * 3  # |C^t| × subspaces: the most one fold adds
        assert len(store._cid) <= live
        assert store._constraints.count(None) == len(store._free_cids)
        assert len(store._constraints) <= 64 + 8
        assert store._n_entries <= 64 + per_arrival
        assert store._ent.shape[1] <= 4 * (64 + per_arrival)
        assert len(store._ctx) == len(store._slot) <= 4 * (64 + 8)
        assert (store._slot >= 0).sum() == live == store._n_entries - len(store._free)
        assert store.stats()["evicted"] > 2000


class _Reads(np.ndarray):
    """A view that counts the cells every read of it returns (in
    :attr:`cells`, shared by all views)."""

    cells = [0]

    def __getitem__(self, key):
        out = self.view(np.ndarray)[key]
        self.cells[0] += np.size(out)
        return out


class TestFoldWorkPerArrival:
    """What the feed fold costs, counted per arrival: one hash per
    constraint of ``C^t`` (two more per constraint it interns), one
    slot read per fact and no other read of the slot or entry matrix —
    so a silent satisfier costs its constraint's shared context one
    increment, not one per tracked pair, and no segment is re-ranked.
    The first test's cap sits above the working set; the second pins
    the eviction's hysteresis."""

    @staticmethod
    def _folds(spec, n):
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema

        engine = open_engine(
            EngineSpec(synthetic_schema(4, 4), algorithm="svec", score=True)
        )
        store = FeedStore.for_engine(engine, spec)
        rows = synthetic_rows(n, 4, 4, distribution="anticorrelated", seed=3)
        return store, engine.facts_for_many(rows)

    def test_fold_reads_per_constraint_and_per_fact(self, monkeypatch):
        store, fact_sets = self._folds(
            FeedSpec(group_by=("d0",), max_entries=1 << 20), 240
        )
        hashes = [0]
        constraint_hash = Constraint.__hash__

        def counted(self):
            hashes[0] += 1
            return constraint_hash(self)

        # Count reads of the slot matrix and the entry matrix, also
        # once a fold has grown them.
        widened = feeds_module._widened
        monkeypatch.setattr(
            feeds_module,
            "_widened",
            lambda array, *args, **kwargs: widened(array, *args, **kwargs).view(
                type(array)
            ),
        )
        store._slot = store._slot.view(_Reads)
        store._ent = store._ent.view(_Reads)
        silent_arrivals = 0
        for factset in fact_sets:
            cons_seq, positions, _ = factset.cells()
            held = {cons_seq[p] for p in positions.tolist()}
            tracked = set(store._cid)
            silent_arrivals += any(
                c in tracked and c not in held for c in cons_seq
            )
            _Reads.cells[0] = hashes[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(Constraint, "__hash__", counted)
                assert store.apply_event(factset.record, factset)
            interned = len(store._cid) - len(tracked)
            assert hashes[0] == len(cons_seq) + 2 * interned
            # The one gather of the facts' slots, and nothing else.
            assert _Reads.cells[0] == len(factset)
        assert store.stats()["evicted"] == 0
        assert silent_arrivals >= 20

    def test_every_eviction_pass_frees_a_quarter_of_the_cap(self):
        cap = 32
        store, fact_sets = self._folds(
            FeedSpec(group_by=("d0",), max_entries=cap), 160
        )
        passes = 0
        for factset in fact_sets:
            before = [s.evicted for s in store._by_sid]
            store.apply_event(factset.record, factset)
            sizes = store._seg_size
            assert sizes.max() <= cap
            for segment, evicted in zip(store._by_sid, before):
                if segment.evicted > evicted:
                    passes += 1
                    # Hysteresis: down to the low-water mark, so the
                    # next pass waits for cap // 4 fresh entries.
                    assert sizes[segment.sid] == cap - cap // 4
        assert passes >= 10
        assert store.stats()["evicted"] > passes * (cap // 4)
