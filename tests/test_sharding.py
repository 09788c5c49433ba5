"""Sharded subspace-parallel ingestion ≡ the unsharded engines.

The service layer's exactness claim: partitioning the measure-subspace
axis across ``svec`` workers and recombining per-arrival facts must be
*output-invisible* — same facts in the same emission order, same
context/skyline cardinalities, same reportable selections, and the same
op-counter totals as the unsharded ``svec`` engine.  This file pins the
partition, the config knobs, unscored mode and the execution modes;
randomized streams (shard counts, deletions, updates, None dimension
values) are ``tests/test_corpus.py``'s.
"""

import pytest

from repro import DiscoveryConfig, FactDiscoverer, TableSchema
from repro.service.sharding import (
    ShardedDiscoverer,
    canonical_subspace_keys,
    partition_subspaces,
)

SCHEMA = TableSchema(("d0", "d1"), ("m0", "m1"))


def fact_key(fact):
    return (
        fact.record.tid,
        fact.constraint.values,
        fact.subspace,
        fact.context_size,
        fact.skyline_size,
    )


def emitted(facts_list):
    """Per-arrival facts *in emission order* (the sharded merger must
    reproduce the canonical order, not just the set)."""
    return [[fact_key(f) for f in facts] for facts in facts_list]


def reportable(lists):
    return [[fact_key(f) for f in facts] for facts in lists]


class TestPartition:
    def test_canonical_keys_full_space_first(self):
        keys = canonical_subspace_keys(SCHEMA)
        assert keys[0] == SCHEMA.full_measure_mask
        assert sorted(keys) == [1, 2, 3]

    def test_canonical_keys_respect_mhat(self):
        keys = canonical_subspace_keys(
            SCHEMA, DiscoveryConfig(max_measure_dims=1)
        )
        # Full space stays first (the root substrate) even when the m̂
        # cap excludes it from reporting.
        assert keys[0] == SCHEMA.full_measure_mask
        assert set(keys) == {3, 1, 2}

    def test_weighted_partition_lightens_root_shard(self):
        # The root key costs ~2 node keys, so shard 0 carries fewer.
        assert partition_subspaces([7, 1, 2, 4, 3], 2) == [[7, 4], [1, 2, 3]]
        shards = partition_subspaces(list(range(15)), 4)
        assert shards[0][0] == 0  # root key stays on shard 0
        assert len(shards[0]) < max(len(s) for s in shards[1:])

    def test_partition_clamps_to_key_count(self):
        shards = partition_subspaces([3, 1, 2], 8)
        assert shards == [[3], [1], [2]]
        assert all(shards)

    def test_partition_covers_each_key_once(self):
        keys = list(range(1, 16))
        for n in (1, 2, 3, 4, 7):
            shards = partition_subspaces(keys, n)
            flat = [k for shard in shards for k in shard]
            assert sorted(flat) == keys

    def test_worker_count_clamped(self):
        sharded = ShardedDiscoverer(SCHEMA, n_workers=64, mode="serial")
        assert sharded.n_workers == len(canonical_subspace_keys(SCHEMA))
        sharded.close()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ShardedDiscoverer(SCHEMA, mode="fleet")

    def test_unscored_with_tau_rejected(self):
        with pytest.raises(ValueError, match="prominence"):
            ShardedDiscoverer(
                SCHEMA, DiscoveryConfig(tau=2.0), score=False, mode="serial"
            )


class TestShardedEquivalence:
    """sharded(N) ≡ unsharded svec."""

    @pytest.mark.parametrize(
        "config",
        [
            DiscoveryConfig(max_bound_dims=1),
            DiscoveryConfig(max_measure_dims=1),
            DiscoveryConfig(tau=2.0),
            DiscoveryConfig(top_k=3),
        ],
        ids=["dhat", "mhat", "tau", "topk"],
    )
    def test_config_knobs(self, config):
        rows = [
            {"d0": d0, "d1": d1, "m0": m0, "m1": m1}
            for d0, d1, m0, m1 in [
                ("a", "x", 3, 1),
                ("a", "y", 1, 3),
                ("b", "x", 2, 2),
                ("a", "x", 3, 3),
                ("c", "y", 0, 4),
                ("b", "x", 4, 0),
            ]
        ]
        svec = FactDiscoverer(SCHEMA, algorithm="svec", config=config)
        with ShardedDiscoverer(
            SCHEMA, config, n_workers=2, mode="serial"
        ) as sharded:
            assert reportable(sharded.observe_many(rows)) == reportable(
                svec.observe_many(rows)
            )
            assert sharded.counters.snapshot() == svec.counters.snapshot()

    def test_unscored_mode(self):
        rows = [
            {"d0": "a", "d1": "x", "m0": i % 3, "m1": (5 - i) % 4}
            for i in range(10)
        ]
        svec = FactDiscoverer(SCHEMA, algorithm="svec", score=False)
        with ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="serial", score=False, chunk_size=4
        ) as sharded:
            got = sharded.facts_for_many(rows)
            expected = svec.facts_for_many(rows)
            assert [
                [(f.constraint.values, f.subspace) for f in facts]
                for facts in got
            ] == [
                [(f.constraint.values, f.subspace) for f in facts]
                for facts in expected
            ]
            assert all(
                f.context_size is None and f.skyline_size is None
                for facts in got
                for f in facts
            )
            assert sharded.counters.snapshot() == svec.counters.snapshot()


class TestExecutionModes:
    """Process mode produces exactly the serial merge (the per-link
    conformance of the worker handle is in ``tests/test_worker_links.py``)."""

    ROWS = [
        {"d0": d0, "d1": d1, "m0": m0, "m1": m1}
        for d0, d1, m0, m1 in [
            ("a", "x", 1, 4),
            ("b", "y", 4, 1),
            ("a", "x", 2, 3),
            ("c", "y", 3, 2),
            ("a", "y", 4, 4),
            ("b", "x", 0, 0),
            ("a", "x", 3, 3),
            ("c", "x", 2, 1),
        ]
    ]

    def test_mode_equivalence_with_deletions(self):
        svec = FactDiscoverer(SCHEMA, algorithm="svec")
        with ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="process", chunk_size=3
        ) as sharded:
            assert emitted(sharded.facts_for_many(self.ROWS[:6])) == emitted(
                svec.facts_for_many(self.ROWS[:6])
            )
            sharded.delete(2)
            svec.delete(2)
            assert emitted(sharded.facts_for_many(self.ROWS[6:])) == emitted(
                svec.facts_for_many(self.ROWS[6:])
            )
            assert sharded.counters.snapshot() == svec.counters.snapshot()

    def test_close_is_idempotent_and_final(self):
        sharded = ShardedDiscoverer(SCHEMA, n_workers=2, mode="serial")
        sharded.observe({"d0": "a", "d1": "x", "m0": 1, "m1": 1})
        sharded.close()
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.observe({"d0": "a", "d1": "x", "m0": 1, "m1": 1})

    def test_bad_row_mid_chunk_does_not_desync(self):
        """A malformed row must raise without corrupting the router/
        worker tid alignment — later output stays identical."""
        from repro.core.schema import SchemaError

        svec = FactDiscoverer(SCHEMA, algorithm="svec")
        with ShardedDiscoverer(
            SCHEMA, n_workers=2, mode="serial", chunk_size=4
        ) as sharded:
            sharded.facts_for_many(self.ROWS[:3])
            svec.facts_for_many(self.ROWS[:3])
            bad = {"d0": "a", "d1": "x", "m0": "not-a-number", "m1": 1}
            with pytest.raises(SchemaError):
                sharded.facts_for_many([self.ROWS[3], bad, self.ROWS[4]])
            # Admission is chunk-atomic: the failing chunk left nothing
            # behind, on the router or the workers.
            assert [r.tid for r in sharded.table] == [0, 1, 2]
            sharded.facts_for(self.ROWS[3])
            svec.facts_for(self.ROWS[3])
            assert emitted(sharded.facts_for_many(self.ROWS[5:])) == emitted(
                svec.facts_for_many(self.ROWS[5:])
            )
            assert sharded.counters.snapshot() == svec.counters.snapshot()

    def test_update_matches_engine(self):
        svec = FactDiscoverer(SCHEMA, algorithm="svec")
        with ShardedDiscoverer(SCHEMA, n_workers=2, mode="serial") as sharded:
            for row in self.ROWS[:4]:
                sharded.observe(row)
                svec.observe(row)
            new_row = {"d0": "c", "d1": "x", "m0": 4, "m1": 4}
            assert reportable([sharded.update(1, new_row)]) == reportable(
                [svec.update(1, new_row)]
            )
