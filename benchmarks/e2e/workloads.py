"""The four workloads: their streams, engine specs and op schedules.

Everything is derived from ``--seed``; the server only ever sees the
generated CSV (history) and NDJSON ops (measured phase).  The row
generator is the benchmark's own, so a change to
``repro.datasets.synthetic`` cannot silently change what is measured.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import CheckpointPolicy, EngineSpec, FeedSpec, ShardingSpec
from repro.core.config import DiscoveryConfig
from repro.core.schema import TableSchema

#: Domain size of every dimension attribute (the repo's standard cell).
CARDINALITY = 8
#: Reporting policy of every workload: each ack carries its top-5 facts.
TOP_K = 5
#: One skyline query (a back-to-back pair when the engine has a query
#: cache) after every this many arrivals, on every workload.
QUERY_EVERY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_dims: int
    n_measures: int
    distribution: str
    #: Rows loaded through the server's own CSV preload before timing.
    history: int
    #: Timed arrivals per round at ``--seconds 10`` (scaled linearly).
    rows_at_10s: int
    #: Delete a live tid after every this many arrivals (0 = never).
    delete_every: int = 0
    full_stack: bool = False
    shard_workers: int = 0
    windowed: bool = False
    query_cache: Optional[int] = None

    @property
    def stream_key(self) -> Tuple[int, int, str]:
        """Workloads with the same key replay the same rows."""
        return (self.n_dims, self.n_measures, self.distribution)

    def schema(self) -> TableSchema:
        return TableSchema(
            tuple(f"d{i}" for i in range(self.n_dims)),
            tuple(f"m{i}" for i in range(self.n_measures)),
        )

    def rows_measured(self, seconds: float) -> int:
        return max(20, round(self.rows_at_10s * seconds / 10.0))

    def spec(self, scratch: Optional[str] = None) -> EngineSpec:
        """The spec the server is started with (``scratch`` holds the
        journal and checkpoint of a full-stack round)."""
        checkpoint = feeds = None
        if self.full_stack:
            feeds = FeedSpec(group_by=("d0",), top_k=10)
            if scratch is not None:
                # fsync "batch": one fsync per ack in closed loop.  The
                # contract keeps the run inside its checkout, so it goes
                # to the checkout's disk and not to tmpfs.
                checkpoint = CheckpointPolicy(
                    path=f"{scratch}/checkpoint.json",
                    journal_dir=f"{scratch}/journal",
                    journal_fsync="batch",
                )
        return EngineSpec(
            schema=self.schema(),
            algorithm="svec",
            config=DiscoveryConfig(top_k=TOP_K),
            sharding=(
                ShardingSpec(workers=self.shard_workers, mode="process")
                if self.shard_workers
                else None
            ),
            window=self.history if self.windowed else None,
            query_cache=self.query_cache,
            checkpoint=checkpoint,
            feeds=feeds,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="live",
            why="full serving stack (journal, feeds, gateway, one WebSocket "
            "subscriber) on the standard d=4 m=4 cell: the service tier does "
            "most of the work",
            n_dims=4, n_measures=4, distribution="anticorrelated",
            history=1000, rows_at_10s=120, full_stack=True,
        ),
        Workload(
            name="wide",
            why="bare server on independent d=5 m=5 (992 constraint x subspace "
            "pairs vs 240): algorithms, storage and scoring do most of the "
            "work, the service tier little",
            n_dims=5, n_measures=5, distribution="independent",
            history=400, rows_at_10s=120,
        ),
        Workload(
            name="sharded",
            why="the live stream through 2 process shards on a bare server: "
            "the only workload crossing service.sharding (pipe, pickle, "
            "merge, router-side scoring)",
            n_dims=4, n_measures=4, distribution="anticorrelated",
            history=1000, rows_at_10s=120, shard_workers=2,
        ),
        Workload(
            name="window_rw",
            why="full sliding window with a query cache: every arrival evicts "
            "a tuple, queries and deletes interleave, so inserts, retraction "
            "repair and read kernels share one store",
            n_dims=4, n_measures=4, distribution="anticorrelated",
            history=1000, rows_at_10s=100, delete_every=10,
            windowed=True, query_cache=64,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One request of the measured phase."""

    kind: str  # "ingest" | "query" | "delete"
    #: ingest: index among the measured arrivals; query: index among the
    #: queries; delete: unused.
    index: int = 0
    row: Optional[dict] = None
    #: tid the ingest is acked with / the delete removes.
    tid: Optional[int] = None
    #: tid the sliding window evicts to admit this arrival.
    evicts: Optional[int] = None
    text: Optional[str] = None
    #: A repeat of the previous query, sent back to back: a cache hit.
    repeat: bool = False


@dataclass(frozen=True)
class Stream:
    history: List[dict]
    ops: List[Op]
    arrivals: int


def generate_rows(workload: Workload, n: int, seed: int) -> List[dict]:
    """Börzsönyi-style rows: uniform categorical dimensions, measures
    independent or traded off against each other around a noisy budget
    (anticorrelated: large skylines, the stress case)."""
    rng = random.Random(f"e2e:{workload.stream_key}:{seed}")
    n_measures = workload.n_measures
    rows = []
    for _ in range(n):
        row: dict = {
            f"d{i}": f"v{rng.randrange(CARDINALITY)}"
            for i in range(workload.n_dims)
        }
        values = [rng.random() for _ in range(n_measures)]
        if workload.distribution == "anticorrelated":
            budget = rng.gauss(n_measures / 2.0, 0.12)
            scale = budget / sum(values)
            values = [min(1.0, max(0.0, v * scale)) for v in values]
        for i, value in enumerate(values):
            row[f"m{i}"] = round(value, 6)
        rows.append(row)
    return rows


def build_stream(workload: Workload, seed: int, seconds: float) -> Stream:
    """History rows plus the seeded op schedule of one round.

    Tuple ids are arrival indexes, so the schedule can name the tid each
    ack must carry, the tid each eviction removes and a live tid for
    each delete without asking the server.
    """
    arrivals = workload.rows_measured(seconds)
    rows = generate_rows(workload, workload.history + arrivals, seed)
    history, measured = rows[: workload.history], rows[workload.history :]
    rng = random.Random(f"e2e-ops:{workload.stream_key}:{seed}")
    window = workload.history if workload.windowed else None
    live = deque(range(workload.history))
    ops: List[Op] = []
    queries = 0
    for i, row in enumerate(measured):
        tid = workload.history + i
        evicts = None
        if window is not None and len(live) >= window:
            evicts = live.popleft()
        live.append(tid)
        ops.append(Op("ingest", index=i, row=row, tid=tid, evicts=evicts))
        if (i + 1) % QUERY_EVERY == 0:
            # Alternate a 2-bound and a 1-bound constraint.
            bound = rng.sample(range(workload.n_dims), 2 - queries % 2)
            constraint = " & ".join(
                f"d{d}=v{rng.randrange(CARDINALITY)}" for d in sorted(bound)
            )
            measures = ", ".join(
                f"m{m}" for m in sorted(rng.sample(range(workload.n_measures), 2))
            )
            text = f"{constraint} | {measures}"
            ops.append(Op("query", index=queries, text=text))
            if workload.query_cache:
                ops.append(Op("query", index=queries, text=text, repeat=True))
            queries += 1
        if workload.delete_every and (i + 1) % workload.delete_every == 0:
            # A tid from the newer half, so the window was not about to
            # evict it anyway.
            victim = live[rng.randrange(len(live) // 2, len(live) - 1)]
            live.remove(victim)
            ops.append(Op("delete", tid=victim))
    return Stream(history, ops, arrivals)
