"""Tests for operation counters and memory accounting."""

import dataclasses

import pytest

from repro import OpCounters, TableSchema, make_algorithm
from repro.core.record import Record
from repro.metrics.memory import approximate_store_bytes, record_bytes
from repro.metrics.service import FAILURE_CLASSES, ServiceStats


class TestOpCounters:
    def test_reset(self):
        c = OpCounters(comparisons=5, traversed_constraints=2)
        c.reset()
        assert c.comparisons == 0 and c.traversed_constraints == 0

    def test_snapshot(self):
        c = OpCounters(comparisons=3, file_reads=1)
        snap = c.snapshot()
        assert snap["comparisons"] == 3
        assert snap["file_reads"] == 1
        c.comparisons = 99
        assert snap["comparisons"] == 3  # snapshot is detached

    def test_addition(self):
        a = OpCounters(comparisons=1, stored_tuples=2)
        b = OpCounters(comparisons=3, file_writes=4)
        c = a + b
        assert c.comparisons == 4
        assert c.stored_tuples == 2
        assert c.file_writes == 4


class TestServiceStatsSnapshot:
    def test_every_scalar_field_is_in_the_snapshot(self):
        """The snapshot is built from the dataclass fields, so a counter
        added later cannot be left off the ``stats`` op — and the fields
        are the server's and gateway's own tallies, nothing the engine
        counts."""
        tallies = {"failures", "failure_causes", "last_error"}
        names = [
            f.name for f in dataclasses.fields(ServiceStats)
            if f.name not in tallies
        ]
        assert set(names) == {
            "enqueued", "processed_rows", "batches", "batch_rows_max",
            "queue_depth_max", "deletes", "checkpoints", "facts_emitted",
            "ops_replayed", "recovered_from", "torn_tail",
            "gateway_subscribers", "gateway_frames_sent",
            "gateway_frames_coalesced", "gateway_http_requests",
            "start_rss_mb", "engine_cpu_s",
        }
        assert {f.name for f in dataclasses.fields(ServiceStats)} >= tallies
        stats = ServiceStats(**{name: i + 1 for i, name in enumerate(names)})
        snap = stats.snapshot()
        assert {name: snap[name] for name in names} == {
            name: i + 1 for i, name in enumerate(names)
        }

    def test_every_failure_class_is_flat_in_the_snapshot(self):
        """``fail`` is the one way a failure is counted: each class is
        a flat key (the six older names included), its latest cause
        sits under ``failure_causes``, and the latest cause of any
        class is ``last_error``.  A class that is not declared is an
        error, not a new key."""
        assert set(FAILURE_CLASSES) == {
            "rows_quarantined", "rows_lost", "dead_letter_failures",
            "checkpoint_failures", "journal_failures",
            "replay_errors", "request_errors", "subscriber_events_dropped",
            "gateway_frames_dropped",
        }
        stats = ServiceStats()
        snap = stats.snapshot()
        assert {name: snap[name] for name in FAILURE_CLASSES} == dict.fromkeys(
            FAILURE_CLASSES, 0
        )
        assert snap["failure_causes"] == dict.fromkeys(FAILURE_CLASSES)
        assert snap["last_error"] is None
        stats.fail("checkpoint_failures", OSError("disk full"))
        stats.fail("gateway_frames_dropped", n=3)
        stats.fail("rows_lost", ValueError("gone"))
        snap = stats.snapshot()
        assert (snap["checkpoint_failures"], snap["gateway_frames_dropped"],
                snap["rows_lost"]) == (1, 3, 1)
        assert snap["failure_causes"]["checkpoint_failures"] == "disk full"
        assert snap["failure_causes"]["gateway_frames_dropped"] is None
        assert snap["last_error"] == "gone"
        assert "failures" not in snap
        # A client's bad request keeps its cause but hides no server
        # failure behind it.
        stats.fail("request_errors", "invalid JSON")
        snap = stats.snapshot()
        assert snap["request_errors"] == 1
        assert snap["failure_causes"]["request_errors"] == "invalid JSON"
        assert snap["last_error"] == "gone"
        with pytest.raises(KeyError):
            stats.fail("no_such_class", "x")

    def test_cpu_seconds(self):
        """The engine thread's tally beside the whole process's CPU
        time, which every snapshot reads afresh."""
        import time

        stats = ServiceStats(engine_cpu_s=0.123456)
        before = time.process_time()
        snap = stats.snapshot()
        assert snap["engine_cpu_s"] == 0.1235
        assert before - 1e-4 <= snap["process_cpu_s"] <= time.process_time() + 1e-4
        assert stats.snapshot()["process_cpu_s"] >= snap["process_cpu_s"]

    def test_mean_batch_rows(self):
        stats = ServiceStats()
        assert stats.snapshot()["mean_batch_rows"] is None
        stats.note_batch(3, 5)
        stats.note_batch(2, 0)
        snap = stats.snapshot()
        assert snap["mean_batch_rows"] == 2.5
        assert snap["facts_emitted"] == 5 and snap["batch_rows_max"] == 3


class TestMemoryAccounting:
    def test_record_bytes_positive(self):
        r = Record(0, ("a", "b"), (1.0, 2.0), (1.0, 2.0))
        assert record_bytes(r) > 0

    def test_shared_records_counted_once(self):
        r = Record(0, ("a",), (1.0,), (1.0,))
        single = approximate_store_bytes([(("k1", 1), [r])])
        double = approximate_store_bytes([(("k1", 1), [r]), (("k2", 1), [r])])
        # The second reference costs a key + pointer, not a full record.
        assert double < 2 * single

    def test_empty(self):
        assert approximate_store_bytes([]) == 0


class TestCountersFlowThroughAlgorithms:
    def test_comparisons_counted(self, gamelog_schema, gamelog_rows):
        for name in ("bruteforce", "baselineseq", "bottomup", "topdown",
                     "sbottomup", "stopdown", "ccsc"):
            algo = make_algorithm(name, gamelog_schema)
            algo.process_stream(gamelog_rows)
            assert algo.counters.comparisons > 0, name
            assert algo.counters.traversed_constraints > 0, name

    def test_stored_tuples_gauge_tracks_store(self, gamelog_schema, gamelog_rows):
        algo = make_algorithm("bottomup", gamelog_schema)
        algo.process_stream(gamelog_rows)
        assert algo.counters.stored_tuples == algo.store.stored_tuple_count()

    def test_tuple_reduction_does_fewer_comparisons(
        self, gamelog_schema, gamelog_rows
    ):
        """BottomUp compares only against skyline tuples; BruteForce
        against everything (§IV idea 1)."""
        bf = make_algorithm("bruteforce", gamelog_schema)
        bu = make_algorithm("bottomup", gamelog_schema)
        bf.process_stream(gamelog_rows)
        bu.process_stream(gamelog_rows)
        assert bu.counters.comparisons < bf.counters.comparisons

    def test_sharing_traverses_fewer_constraints_than_topdown(self):
        """Fig. 11b: STopDown skips pruned non-skyline constraints."""
        from repro.datasets import synthetic_rows, synthetic_schema

        schema = synthetic_schema(3, 3)
        rows = synthetic_rows(80, 3, 3, "independent", cardinalities=[4, 4, 4], seed=1)
        td = make_algorithm("topdown", schema)
        std = make_algorithm("stopdown", schema)
        td.process_stream(rows)
        std.process_stream(rows)
        assert std.counters.comparisons < td.counters.comparisons
