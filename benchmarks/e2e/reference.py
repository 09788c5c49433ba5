"""In-process reference every round's output is checked against.

One pass replays a workload's stream through ``open_engine`` of the
*unsharded, uncached* spec — so ``live`` and ``sharded`` share a pass
and must emit identical facts — plus an in-process ``FeedStore`` fold
mirroring ``StreamServer._feeds_fold``.  A sample of the measured
arrivals, spread evenly over the stream, is additionally re-derived with
``algorithm="bruteforce"``, whose relation follows every eviction and
delete.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.api import open_engine
from repro.core.prominence import select_reportable
from repro.service.feeds import FeedStore

from estimators import canonical_entries, canonical_facts, digest
from workloads import Stream, Workload

#: The server preloads its CSV through 256-row micro-batches.
PRELOAD_BATCH = 256
#: Measured arrivals re-derived by brute force, evenly spaced from the
#: first to the last, so late-stream state (after every eviction and
#: delete before it) is checked too.  One costs 250–350 ms at these
#: history sizes (scalar dominance scans plus a from-scratch skyline per
#: fact); the issue's 150 would take longer than all five rounds
#: together.
BRUTEFORCE_ROWS = 8


@dataclass
class Reference:
    #: Canonical fact list per measured arrival.
    acks: List[list] = field(default_factory=list)
    #: Sorted skyline tids per query.
    queries: List[List[int]] = field(default_factory=list)
    #: ``(segment, version) -> (arrival that produced it, entries)``.
    frames: Dict[Tuple[str, int], Tuple[int, list]] = field(default_factory=dict)
    #: ``segment -> (version, entries)`` after the history preload: the
    #: snapshot frames a fresh subscriber is sent.
    snapshots: Dict[str, Tuple[int, list]] = field(default_factory=dict)
    #: ``segment -> version`` after the last measured arrival.
    final_versions: Dict[str, int] = field(default_factory=dict)
    facts_digest: str = ""
    feed_digest: str = ""
    #: Full ``S_t`` size per measured arrival.
    facts_per_row: float = 0.0

    def produced_by(self) -> Dict[Tuple[str, int], int]:
        return {key: arrival for key, (arrival, _) in self.frames.items()}


def _ranked(feeds: FeedStore, key: str) -> list:
    return canonical_entries(
        entry.to_json_dict(feeds.schema) for entry in feeds.entries_ranked(key)
    )


def _version(feeds: FeedStore, key: str) -> int:
    return next(s["version"] for s in feeds.segments() if s["segment"] == key)


def feed_digest(final: Dict[str, Tuple[int, list]]) -> str:
    """Digest of the last ``(version, entries)`` seen per segment — the
    same for every round however its frames were coalesced."""
    return digest(sorted(final.items()))


def build_reference(workload: Workload, stream: Stream) -> Reference:
    spec = replace(
        workload.spec(), sharding=None, query_cache=None, checkpoint=None, feeds=None
    )
    ref = Reference()
    total_facts = 0
    step = max(1, (stream.arrivals - 1) // (BRUTEFORCE_ROWS - 1))
    oracle_at = set(range(0, stream.arrivals, step))
    with open_engine(spec) as engine, open_engine(
        replace(spec, algorithm="bruteforce", window=None)
    ) as brute:
        schema, config = engine.discovery_schema, engine.config
        feeds = None
        if workload.full_stack:
            feeds = FeedStore.for_engine(engine, workload.spec().feeds)
            feeds.attach(engine)
        history = stream.history
        for at in range(0, len(history), PRELOAD_BATCH):
            for factset in engine.facts_for_many(history[at : at + PRELOAD_BATCH]):
                if feeds is not None:
                    feeds.apply_event(factset.record, factset)
            if feeds is not None:
                feeds.repair(engine)
        for row in history:
            # Seed the oracle's relation without discovering history
            # (its per-arrival cost is what the oracle is slow at).
            brute.context_counter.register(brute.table.append(row))
        if feeds is not None:
            for key in feeds.segment_keys():
                ref.snapshots[key] = (_version(feeds, key), _ranked(feeds, key))
        final = dict(ref.snapshots)
        for op in stream.ops:
            if op.kind == "ingest":
                (factset,) = engine.facts_for_many([op.row])
                total_facts += len(factset)
                facts = select_reportable(factset, config)
                ref.acks.append(
                    canonical_facts(f.to_json_dict(schema) for f in facts)
                )
                if op.evicts is not None:
                    brute.delete(op.evicts)
                if op.index in oracle_at:
                    oracle = canonical_facts(
                        f.to_json_dict(schema) for f in brute.observe(op.row)
                    )
                    if oracle != ref.acks[-1]:
                        raise AssertionError(
                            f"{workload.name}: svec and bruteforce disagree "
                            f"on measured arrival {op.index}"
                        )
                else:
                    brute.context_counter.register(brute.table.append(op.row))
                if feeds is not None:
                    changed = feeds.apply_event(factset.record, factset)
                    changed |= feeds.repair(engine)
                    for key in changed:
                        version, entries = _version(feeds, key), _ranked(feeds, key)
                        ref.frames[(key, version)] = (op.index, entries)
                        final[key] = (version, entries)
            elif op.kind == "query":
                if not op.repeat:
                    skyline = engine.query().skyline_text(op.text)
                    ref.queries.append(sorted(record.tid for record in skyline))
            else:
                engine.delete(op.tid)
                brute.delete(op.tid)
        ref.final_versions = {key: version for key, (version, _) in final.items()}
        ref.facts_digest = digest(ref.acks)
        ref.feed_digest = feed_digest(final) if feeds is not None else ""
        ref.facts_per_row = total_facts / max(1, stream.arrivals)
    return ref
