"""Materialized per-segment feeds — the read fan-out tier (ROADMAP 1).

A :class:`FeedStore` keeps, per *segment* (the projection of a fact's
constraint onto ``FeedSpec.group_by``), the current standings of every
constraint–measure pair that has ever produced a fact: its exact
context / skyline cardinalities, hence its prominence.  Subscribers and
the HTTP/WebSocket gateway (:mod:`repro.service.gateway`) read ranked
top-k pages from this state — reads never touch the engine, so fan-out
scales with subscriber count instead of engine throughput.

Maintenance is incremental off the same :class:`FactEvent` stream
subscribers see, and *exact* (property-tested against
``engine.query().batch(...)`` over the same pairs):

* **fact upsert** — an event's ``S_t`` carries exact context/skyline
  sizes for every pair the new tuple entered the skyline of; those
  overwrite the entry in place.
* **silent-satisfier increment** — an arrival that satisfies a tracked
  constraint *without* a fact for some pair provably left that pair's
  skyline unchanged (anything dominating a skyline member would itself
  be undominated, i.e. a fact); maintenance is exactly ``ctx += 1``.
  The arrival's candidate constraints are ``C^t`` itself (``O(2^d̂)``,
  independent of store size).
* **retraction repair** — deletions and window evictions emit no
  events, but every pair they can affect has a constraint the removed
  tuple satisfied; those tracked pairs are refreshed in one
  ``query().batch`` against the live engine (the planner answers
  indexed pairs from statistics alone).  Pairs whose context empties
  are dropped.  Entry *existence* is monotone with a non-empty context
  — a pair's first satisfier is always its sole-context skyline, so
  the entry was created when the pair first became non-empty — which
  is why repair never needs to invent entries.

Standings live in columns, not objects:

* per **constraint** (``_cid`` interns it to a recycled row id):
  ``_ctx`` holds ``|σ_C(table)|`` once for all its subspaces — a silent
  satisfier is one increment per constraint, not per pair — ``_cseg``
  its segment id (a segment holds every subspace of its constraints)
  and ``_slot[cid, subspace]`` the entry id of each tracked pair
  (``-1`` = none):
  ``16 + 4·2^|M|`` bytes per constraint;
* per **entry** (one recycled column of the ``int64`` matrix ``_ent``):
  constraint id, subspace, skyline size, newest skyline tid, insertion
  sequence number, segment id — 48 bytes;
* per **segment**: a :class:`FeedSegment` and a live-entry count.

An arrival costs one dict probe per constraint of ``C^t`` (``≤ 2^d̂``),
one gather for its facts' slots and one scatter per column —
:meth:`FeedStore.apply_event` reads the lattice walker's cells and score
columns as they are, building nothing per fact.  The cap and both
read-time cuts are partitions of the ``ctx / sky`` column;
:class:`FeedEntry` values exist only for what a read returns.

Memory is bounded by ``FeedSpec.max_entries`` per segment (lowest
prominence evicted first, tallied per segment); ``τ`` / top-k are
read-time filters so entries below the floor can rise again without an
event.  Each segment carries a monotone ``version`` (bumped on any
content change) that drives gateway change feeds and cursor pagination,
and the store snapshots to a sidecar JSON next to the engine checkpoint,
stamped with the engine version ``(arrivals, deletions)`` — a stamp
mismatch on restore triggers :meth:`FeedStore.rebuild` instead of
serving stale standings.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import UNBOUND, Constraint, satisfied_constraints
from ..core.facts import FactSet
from ..core.record import Record
from ..core.schema import TableSchema
from ..api.spec import FeedSpec

#: Sidecar snapshot format version.
SIDECAR_FORMAT = 1

Pair = Tuple[Constraint, int]

#: Rows of the entry matrix ``FeedStore._ent`` (one column per entry).
CID, SUB, SKY, TID, SEQ, SEG = range(6)


def engine_version(engine) -> Tuple[int, int]:
    """``(arrivals, deletions)`` — the same monotone stamp the query
    cache keys on; equality proves engine state is unchanged."""
    arrivals = engine.arrivals
    return arrivals, arrivals - len(engine)


@dataclass(slots=True)
class FeedEntry:
    """The standing of one tracked ``(C, M)`` pair as a read saw it — a
    plain value built for what :meth:`FeedStore.entries_ranked`
    returns, never stored."""

    constraint: Constraint
    subspace: int
    context_size: int
    skyline_size: int
    #: Most recent arrival known to sit in this pair's skyline.
    tid: int

    @property
    def prominence(self) -> float:
        return self.context_size / self.skyline_size

    def to_json_dict(self, schema: TableSchema) -> dict:
        return {
            "constraint": self.constraint.to_mapping(schema),
            "measures": list(schema.measure_names(self.subspace)),
            "prominence": self.prominence,
            "context_size": self.context_size,
            "skyline_size": self.skyline_size,
            "tid": self.tid,
        }


@dataclass(slots=True)
class FeedSegment:
    """One materialized feed: a monotone content version over the
    entries whose ``SEG`` column names :attr:`sid`."""

    key: str
    sid: int
    #: Bumped on every content change; drives gateway updates and
    #: cursor invalidation.  Monotone for the segment's lifetime.
    version: int = 0
    #: Store-level arrival count when this segment last changed.
    last_arrival: int = 0
    #: Entries dropped by the per-segment cap (truncation marker).
    evicted: int = 0


def _rank_key(entry: FeedEntry):
    """Descending prominence; ties to the more general constraint then
    the smaller subspace (mirrors ``FactSet.ranked``), then a stable
    textual tiebreak so pagination order is deterministic."""
    constraint = entry.constraint
    subspace = entry.subspace
    return (
        -entry.context_size / entry.skyline_size,
        constraint.bound_count,
        bin(subspace).count("1"),
        repr(constraint.values),
        subspace,
    )


def _widened(array: np.ndarray, size: int, fill: int, axis: int = 0) -> np.ndarray:
    """``array`` grown to ``size`` along ``axis``, new cells ``fill``."""
    shape = list(array.shape)
    shape[axis] = size
    out = np.full(shape, fill, dtype=array.dtype)
    out[tuple(slice(n) for n in array.shape)] = array
    return out


class FeedStore:
    """Segmented materialized feeds over one engine's fact stream.

    Not thread-safe by construction — an internal lock serialises
    mutation (which the :class:`~repro.service.server.StreamServer`
    runs in its engine executor) against reads (which the gateway runs
    on the event loop).
    """

    def __init__(
        self,
        schema: TableSchema,
        config: DiscoveryConfig,
        spec: Optional[FeedSpec] = None,
    ) -> None:
        self.schema = schema
        self.config = config
        self.spec = spec or FeedSpec()
        self._group_positions = tuple(
            schema.dimension_index(name) for name in self.spec.group_by
        )
        self._bound_cap = config.effective_bound_cap(schema.n_dimensions)
        #: ``|C^t|`` under this store's ``d̂``: a walker cell set whose
        #: constraint sequence has this length *is* ``C^t``.
        self._lattice_size = sum(
            comb(schema.n_dimensions, k) for k in range(self._bound_cap + 1)
        )
        self._subspaces = tuple(
            mask
            for mask in range(1, 1 << schema.n_measures)
            if config.allows_subspace(mask)
        )
        #: Removed records awaiting a repair pass (explicit deletions,
        #: window evictions, aggregate group retractions).
        self._pending_retractions: List[Record] = []
        #: Applied arrivals whose ``S_t`` was lost (salvage path) or
        #: came unscored: repair refreshes their *full* candidate-pair
        #: set, since such an arrival may have founded pairs no entry
        #: tracks yet.
        self._pending_unknown: List[Record] = []
        self._lock = threading.RLock()
        #: Arrivals folded in (equals ``engine.arrivals`` when the
        #: store has been attached since the first row).
        self.applied_arrivals = 0
        #: Retraction-repair passes executed.
        self.repairs = 0
        #: Pairs refreshed by repair passes.
        self.repaired_pairs = 0
        self._reset()

    def _reset(self) -> None:
        """Empty standings (the layout is in the module docstring)."""
        #: key -> segment in creation order, the same objects by id,
        #: and their live-entry counts.  One segment per distinct
        #: ``group_by`` value combination ever fed: a segment is never
        #: removed, not even when its last entry leaves (only a reset
        #: empties these), so they grow with the distinct values seen,
        #: not with the live rows.
        self._segments: Dict[str, FeedSegment] = {}
        self._by_sid: List[FeedSegment] = []
        self._seg_size = np.zeros(8, dtype=np.int64)
        #: Constraint table; a row whose slots empty goes back on
        #: ``_free_cids`` (``_constraints[cid]`` is then ``None``), so
        #: ``_cid`` holds exactly the constraints with a live entry.
        self._cid: Dict[Constraint, int] = {}
        self._constraints: List[Optional[Constraint]] = []
        self._free_cids: List[int] = []
        self._ctx = np.zeros(64, dtype=np.int64)
        self._cseg = np.full(64, -1, dtype=np.int64)
        self._slot = np.full((64, 1 << self.schema.n_measures), -1, dtype=np.int32)
        #: Entry matrix; ids below ``_n_entries`` are live or on
        #: ``_free`` (their ``SEG`` is ``-1``).  ``_seq`` numbers
        #: insertions, the order the cap's ties and the sidecar keep.
        self._ent = np.full((6, 256), -1, dtype=np.int64)
        self._n_entries = 0
        self._free: List[int] = []
        self._seq = 0

    @classmethod
    def for_engine(cls, engine, spec: Optional[FeedSpec] = None) -> "FeedStore":
        """A store over ``engine``'s discovery relation; ``spec``
        defaults to the engine spec's ``feeds`` section."""
        if spec is None:
            try:
                spec = engine.spec.feeds
            except (AttributeError, NotImplementedError):
                spec = None
        schema = getattr(engine, "discovery_schema", engine.schema)
        return cls(schema, engine.config, spec)

    # ------------------------------------------------------------------
    # Segmentation
    # ------------------------------------------------------------------
    def segment_key(self, constraint: Constraint) -> str:
        """The segment every ``(C, M)`` pair of ``C`` belongs to: ``C``
        projected on ``group_by`` (unbound positions render ``*``)."""
        parts = [
            f"{name}={'*' if constraint.values[pos] is UNBOUND else constraint.values[pos]}"
            for name, pos in zip(self.spec.group_by, self._group_positions)
        ]
        return ",".join(parts) if parts else "*"

    def _segment(self, key: str) -> FeedSegment:
        segment = self._segments.get(key)
        if segment is None:
            sid = len(self._by_sid)
            segment = self._segments[key] = FeedSegment(key, sid)
            self._by_sid.append(segment)
            if sid == len(self._seg_size):
                self._seg_size = _widened(self._seg_size, 2 * sid, 0)
        return segment

    # ------------------------------------------------------------------
    # Column primitives
    # ------------------------------------------------------------------
    def _intern(self, constraint: Constraint) -> int:
        """The constraint's table row, allocated on first sight."""
        cid = self._cid.get(constraint)
        if cid is None:
            if self._free_cids:
                cid = self._free_cids.pop()
                self._constraints[cid] = constraint
            else:
                cid = len(self._constraints)
                self._constraints.append(constraint)
                if cid == len(self._ctx):
                    self._ctx = _widened(self._ctx, 2 * cid, 0)
                    self._cseg = _widened(self._cseg, 2 * cid, -1)
                    self._slot = _widened(self._slot, 2 * cid, -1)
            self._cid[constraint] = cid
            self._cseg[cid] = self._segment(self.segment_key(constraint)).sid
        return cid

    def _alloc(self, n: int) -> np.ndarray:
        """``n > 0`` entry ids: freed columns first, then fresh ones."""
        free = self._free
        eids = free[-n:]
        del free[-n:]
        short = n - len(eids)
        if short:
            top = self._n_entries
            self._n_entries = top + short
            if self._n_entries > self._ent.shape[1]:
                self._ent = _widened(
                    self._ent, max(2 * top, self._n_entries), -1, axis=1
                )
            eids.extend(range(top, top + short))
        return np.array(eids, dtype=np.intp)

    def _upsert(self, cids, subspaces, contexts, skylines, tids) -> np.ndarray:
        """Write the standings of the distinct pairs ``(cids[i],
        subspaces[i])`` — one gather for their slots, one scatter per
        column; untracked pairs become entries in argument order.
        Returns the pairs' entry ids."""
        slots = self._slot[cids, subspaces]
        fresh = np.flatnonzero(slots < 0)
        n = fresh.size
        if n:
            new_cids, new_subs = cids[fresh], subspaces[fresh]
            sids = self._cseg[new_cids]
            eids = self._alloc(n)
            ent = self._ent
            ent[CID, eids] = new_cids
            ent[SUB, eids] = new_subs
            ent[SEQ, eids] = np.arange(self._seq, self._seq + n)
            ent[SEG, eids] = sids
            self._seq += n
            self._slot[new_cids, new_subs] = eids
            self._seg_size += np.bincount(sids, minlength=len(self._seg_size))
            slots[fresh] = eids
        # Exact overwrite — every pair of one constraint carries the
        # same context size.
        self._ctx[cids] = contexts
        self._ent[SKY, slots] = skylines
        self._ent[TID, slots] = tids
        return slots

    def _drop(self, eids: np.ndarray) -> None:
        """Free live entries; constraints left without one leave the
        table (their context row, slot row and id are reusable)."""
        ent = self._ent
        cids = ent[CID, eids]
        self._slot[cids, ent[SUB, eids]] = -1
        self._seg_size -= np.bincount(ent[SEG, eids], minlength=len(self._seg_size))
        ent[SEG, eids] = -1
        self._free.extend(eids.tolist())
        cids = np.unique(cids)
        for cid in cids[(self._slot[cids] < 0).all(axis=1)].tolist():
            del self._cid[self._constraints[cid]]
            self._constraints[cid] = None
            self._free_cids.append(cid)

    def _members(self, sid: int) -> np.ndarray:
        """Entry ids of one segment (ascending id, not insertion)."""
        return np.flatnonzero(self._ent[SEG, : self._n_entries] == sid)

    def _in_order(self, eids: np.ndarray) -> np.ndarray:
        """``eids`` by insertion sequence — the order the old
        per-segment dict iterated in, which ties fall back on."""
        return eids[np.argsort(self._ent[SEQ, eids])]

    def _prominence(self, eids: np.ndarray) -> np.ndarray:
        """``|σ_C| / |λ_M(σ_C)|`` as ``float64`` — bit-equal to the
        entries' ``int / int`` below 2^53."""
        return self._ctx[self._ent[CID, eids]] / self._ent[SKY, eids]

    def _entries(self, eids: np.ndarray) -> List[FeedEntry]:
        cids, subs, skys, tids = self._ent[:SEQ, eids].tolist()
        contexts = self._ctx[self._ent[CID, eids]].tolist()
        constraints = self._constraints
        return [
            FeedEntry(constraints[cid], sub, ctx, sky, tid)
            for cid, sub, ctx, sky, tid in zip(cids, subs, contexts, skys, tids)
        ]

    def _sids_of(self, cids) -> Set[int]:
        """Segments holding an entry of any of the constraints."""
        cids = list(cids)
        if not cids:
            return set()
        return set(self._cseg[cids].tolist())

    def _settle(self, sids) -> Set[str]:
        """Cap, bump and name the segments a mutation touched."""
        changed: Set[str] = set()
        for sid in sids:
            segment = self._by_sid[sid]
            self._enforce_cap(segment)
            segment.version += 1
            segment.last_arrival = self.applied_arrivals
            changed.add(segment.key)
        return changed

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Hook internal retractions (window evictions, aggregate group
        updates) on every middleware layer of ``engine`` so repair sees
        removals that never surface as server ops."""
        layer = engine
        while layer is not None:
            hook = getattr(layer, "add_retraction_listener", None)
            if callable(hook):
                hook(self.note_retracted)
            layer = getattr(layer, "inner", None)

    def apply_event(self, record: Record, factset: Optional[FactSet]) -> Set[str]:
        """Fold one arrival in; returns the keys of changed segments.

        ``factset`` is the arrival's full ``S_t`` (not the reportable
        selection).  ``None`` marks a salvage-path arrival whose facts
        were lost — queue it for a repair-style refresh instead; so is
        an ``S_t`` without exact cardinalities (an engine run with
        ``score=False``), which has nothing a feed could rank by.
        """
        with self._lock:
            self.applied_arrivals += 1
            scores = None
            if factset is not None and len(factset):
                scores = factset.scores()
                if scores is None or scores[1].min() < 1:
                    factset = None
            if factset is None:
                self._pending_unknown.append(record)
                return set()
            # One dict probe per constraint of ``C^t``: the cells carry
            # the whole lattice, so the tracked constraints the arrival
            # satisfies fall out of the pass that resolves its facts.  A
            # set cut differently from this store's lattice has ``C^t``
            # enumerated beside it.
            probe = self._cid.get
            cons_seq, positions, subspaces = factset.cells()
            whole = len(cons_seq) == self._lattice_size
            cid_at = [probe(constraint, -1) for constraint in cons_seq]
            satisfied = cid_at
            if not whole:
                lattice = satisfied_constraints(record, self._bound_cap)
                satisfied = [probe(constraint, -1) for constraint in lattice]
            with_fact: Set[int] = set()
            if scores is not None:
                held = list(dict.fromkeys(positions.tolist()))
                for position in held:
                    if cid_at[position] < 0:
                        cid_at[position] = self._intern(cons_seq[position])
                with_fact.update(cid_at[position] for position in held)
                cids = np.array(cid_at, dtype=np.intp)[positions]
                contexts, skylines = scores
                if len(with_fact) < len(held):
                    # Equal constraints at several positions (None
                    # dimensions collapse masks): keep each pair once.
                    pairs = cids * self._slot.shape[1] + subspaces
                    first = np.sort(np.unique(pairs, return_index=True)[1])
                    cids, subspaces = cids[first], subspaces[first]
                    contexts, skylines = contexts[first], skylines[first]
                self._upsert(cids, subspaces, contexts, skylines, record.tid)
            # Silent satisfiers: the arrival matches a tracked
            # constraint without a fact for it — every such pair's
            # skyline is provably unchanged and the shared context grew
            # by exactly one (once per distinct constraint: a None
            # dimension collapses several masks onto one).  Constraints
            # that *did* produce a fact were overwritten with the exact
            # context above (which also covers their fact-less sibling
            # subspaces); their segments still need the version bump.
            silent = [
                c
                for c in dict.fromkeys(satisfied)
                if c >= 0 and c not in with_fact
            ]
            if silent:
                np.add.at(self._ctx, silent, 1)
            return self._settle(self._sids_of(with_fact.union(silent)))

    def note_retracted(self, removed) -> None:
        """Queue removed record(s) for the next repair pass (explicit
        deletes, window evictions, aggregate retractions)."""
        with self._lock:
            if isinstance(removed, Record):
                self._pending_retractions.append(removed)
            else:
                self._pending_retractions.extend(removed)

    def repair(self, engine) -> Set[str]:
        """Refresh every pair a pending retraction (or lost arrival)
        could have touched, in one batch query against the live engine.
        Returns the keys of changed segments.

        Retracted records refresh only *tracked* pairs — entry
        existence is monotone with a non-empty context, so any pair a
        removal resurrects already has an entry.  Lost arrivals refresh
        their full candidate set, because they may have founded pairs
        nothing tracks yet.
        """
        with self._lock:
            retracted = self._pending_retractions
            unknown = self._pending_unknown
            if not retracted and not unknown:
                return set()
            self._pending_retractions = []
            self._pending_unknown = []
            affected: Dict[Pair, None] = {}
            for record in retracted:
                for constraint in satisfied_constraints(record, self._bound_cap):
                    cid = self._cid.get(constraint)
                    if cid is not None:
                        for subspace in np.flatnonzero(self._slot[cid] >= 0).tolist():
                            affected[(constraint, subspace)] = None
            affected.update(self._candidates(unknown))
            self.repairs += 1
            if not affected:
                return set()
            self.repaired_pairs += len(affected)
            return self._settle(self._refresh(engine, list(affected)))

    def _candidates(self, records) -> Dict[Pair, None]:
        """Every pair a record of ``records`` could stand in — ``C^t`` ×
        the allowed subspaces — once each, in first-seen order."""
        return dict.fromkeys(
            (constraint, subspace)
            for record in records
            for constraint in satisfied_constraints(record, self._bound_cap)
            for subspace in self._subspaces
        )

    def _refresh(self, engine, pairs: List[Pair]) -> Set[int]:
        """Overwrite the standings of ``pairs`` with the engine's exact
        answers (one planner batch): non-empty contexts are upserted in
        argument order, emptied ones dropped.  Returns the ids of the
        segments written to."""
        gone: List[int] = []
        rows: List[Tuple[int, ...]] = []
        for result in engine.query().batch(pairs):
            if result.context_size <= 0:
                cid = self._cid.get(result.constraint)
                eid = -1 if cid is None else int(self._slot[cid, result.subspace])
                if eid >= 0:
                    gone.append(eid)
                continue
            rows.append(
                (
                    self._intern(result.constraint),
                    result.subspace,
                    result.context_size,
                    result.skyline_size,
                    max((r.tid for r in result.skyline), default=-1),
                )
            )
        sids: Set[int] = set()
        if rows:
            slots = self._upsert(*np.array(rows, dtype=np.int64).T)
            sids.update(self._ent[SEG, slots].tolist())
        if gone:
            eids = np.array(gone, dtype=np.intp)
            sids.update(self._ent[SEG, eids].tolist())
            self._drop(eids)
        return sids

    def _enforce_cap(self, segment: FeedSegment) -> None:
        max_entries = self.spec.max_entries
        size = int(self._seg_size[segment.sid])
        if size <= max_entries:
            return
        # Hysteresis: evict down to a low-water mark below the cap, so
        # the O(n) victim scan amortizes over the arrivals that refill
        # the slack instead of re-running on every arrival once the
        # segment sits at the cap.  The memory bound stays strict
        # (never above ``max_entries`` after a fold); the slack only
        # evicts entries the cap would have evicted shortly anyway.
        low_water = max(1, max_entries - (max_entries >> 2))
        drop = size - low_water
        # Victims are a partition of the prominence column: everything
        # below the drop-th smallest goes, ties at the threshold by
        # insertion order (deterministic for a given stream; the tied
        # entries are equally prominent, so the ranked content is
        # unaffected by which of them survive).
        eids = self._members(segment.sid)
        proms = self._prominence(eids)
        threshold = np.partition(proms, drop - 1)[drop - 1]
        below = eids[proms < threshold]
        tied = self._in_order(eids[proms == threshold])
        self._drop(np.concatenate((below, tied[: drop - below.size])))
        segment.evicted += drop

    # ------------------------------------------------------------------
    # Reads (gateway / NewsFeed)
    # ------------------------------------------------------------------
    def segment_keys(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def segments(self) -> List[dict]:
        """Summary row per segment (the gateway's ``GET /feeds``)."""
        with self._lock:
            sizes = self._seg_size.tolist()
            return [
                {
                    "segment": segment.key,
                    "version": segment.version,
                    "entries": sizes[segment.sid],
                    "staleness": self.applied_arrivals - segment.last_arrival,
                    "evicted": segment.evicted,
                }
                for _, segment in sorted(self._segments.items())
            ]

    def version(self, key: str) -> int:
        """Content version of one segment (``0`` while unknown).  Take
        it under the same ``_lock`` hold as the entries it labels."""
        with self._lock:
            segment = self._segments.get(key)
            return segment.version if segment is not None else 0

    def entries_ranked(
        self,
        key: str,
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
    ) -> List[FeedEntry]:
        """Ranked entries of one segment under the read-time ``τ`` /
        top-k policy (ties at the cut kept, like ``query().batch``).
        Arguments default to the spec's values.  Both cuts are taken
        on the prominence column; :class:`FeedEntry` values are built
        for the winners only."""
        if top_k is None:
            top_k = self.spec.top_k
        if tau is None:
            tau = self.spec.tau
        with self._lock:
            segment = self._segments.get(key)
            if segment is None:
                return []
            eids = self._members(segment.sid)
            proms = self._prominence(eids)
            if tau is not None:
                keep = proms >= tau
                eids, proms = eids[keep], proms[keep]
            if top_k is not None and eids.size > top_k:
                cut = eids.size - top_k
                eids = eids[proms >= np.partition(proms, cut)[cut]]
            entries = self._entries(eids)
        # The key is a total order (its tail names the pair), so the
        # result does not depend on the order the winners come in.
        entries.sort(key=_rank_key)
        return entries

    def read(
        self,
        key: str,
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
        cursor: Optional[str] = None,
        limit: int = 100,
    ) -> Optional[dict]:
        """One cursor page of a segment's ranked feed, or ``None`` for
        an unknown segment.

        The cursor is ``"v<version>:<offset>"``.  A cursor minted
        against an older version restarts the page walk from offset 0
        (``"restarted": true``) — versions are monotone, so a stale
        cursor can never silently skip or duplicate entries.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            # One hold across both reads: the page is labelled with the
            # version its entries came from.
            segment = self._segments.get(key)
            if segment is None:
                return None
            version = segment.version
            evicted = segment.evicted
            entries = self.entries_ranked(key, top_k=top_k, tau=tau)
        offset = 0
        restarted = False
        if cursor:
            try:
                v_part, o_part = cursor.split(":", 1)
                cursor_version = int(v_part.lstrip("v"))
                offset = max(0, int(o_part))
            except ValueError:
                raise ValueError(f"malformed cursor {cursor!r}")
            if cursor_version != version:
                offset = 0
                restarted = True
        page = entries[offset : offset + limit]
        next_offset = offset + len(page)
        out = {
            "segment": key,
            "version": version,
            "total": len(entries),
            "offset": offset,
            "entries": [e.to_json_dict(self.schema) for e in page],
            "next_cursor": (
                f"v{version}:{next_offset}"
                if next_offset < len(entries)
                else None
            ),
        }
        if restarted:
            out["restarted"] = True
        if evicted:
            out["truncated"] = evicted
        return out

    def stats(self) -> dict:
        with self._lock:
            staleness = [
                self.applied_arrivals - s.last_arrival
                for s in self._by_sid
            ]
            return {
                "segments": len(self._by_sid),
                "entries": len(self),
                "applied_arrivals": self.applied_arrivals,
                "repairs": self.repairs,
                "repaired_pairs": self.repaired_pairs,
                "evicted": sum(s.evicted for s in self._by_sid),
                "max_staleness": max(staleness) if staleness else 0,
            }

    def __len__(self) -> int:
        with self._lock:
            return self._n_entries - len(self._free)

    # ------------------------------------------------------------------
    # Snapshot sidecar / rebuild
    # ------------------------------------------------------------------
    def to_doc(self, version: Tuple[int, int]) -> dict:
        """Plain-data rendering stamped with the engine version the
        standings describe."""
        with self._lock:
            # Every live entry once, grouped by segment id and in
            # insertion order within a segment (one sort, not a scan per
            # segment); the live counts give each segment's run.
            seg, seq = self._ent[SEG, : self._n_entries], self._ent[SEQ]
            live = np.flatnonzero(seg >= 0)
            live = live[np.lexsort((seq[live], seg[live]))]
            entries = iter(self._entries(live))
            sizes = self._seg_size.tolist()
            return {
                "format": SIDECAR_FORMAT,
                "engine_version": list(version),
                "feed_spec": self.spec.to_dict(),
                "applied_arrivals": self.applied_arrivals,
                "segments": [
                    {
                        "key": segment.key,
                        "version": segment.version,
                        "last_arrival": segment.last_arrival,
                        "evicted": segment.evicted,
                        "entries": [
                            {
                                "values": list(entry.constraint.values),
                                "subspace": entry.subspace,
                                "ctx": entry.context_size,
                                "sky": entry.skyline_size,
                                "tid": entry.tid,
                            }
                            for entry in itertools.islice(
                                entries, sizes[segment.sid]
                            )
                        ],
                    }
                    for segment in self._by_sid
                ],
            }

    def save_sidecar(self, path: str, version: Tuple[int, int]) -> bool:
        """Write the sidecar crash-consistently next to the engine
        checkpoint.  Best-effort: non-JSON dimension values (or disk
        trouble) skip the sidecar — restore then rebuilds instead."""
        try:
            payload = json.dumps(self.to_doc(version))
        except (TypeError, ValueError):
            return False
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False

    def restore_doc(self, doc: dict, version: Tuple[int, int]) -> bool:
        """Load standings from a sidecar doc iff its stamp matches the
        live engine version; returns whether it applied."""
        if doc.get("format") != SIDECAR_FORMAT:
            return False
        if list(doc.get("engine_version") or ()) != list(version):
            return False
        if doc.get("feed_spec") != self.spec.to_dict():
            return False
        with self._lock:
            self._reset()
            self.applied_arrivals = int(doc.get("applied_arrivals", 0))
            for seg_doc in doc.get("segments", ()):
                segment = self._segment(seg_doc["key"])
                segment.version = int(seg_doc.get("version", 0))
                segment.last_arrival = int(seg_doc.get("last_arrival", 0))
                segment.evicted = int(seg_doc.get("evicted", 0))
                rows = [
                    (
                        self._intern(Constraint(tuple(entry_doc["values"]))),
                        int(entry_doc["subspace"]),
                        int(entry_doc["ctx"]),
                        int(entry_doc["sky"]),
                        int(entry_doc["tid"]),
                    )
                    for entry_doc in seg_doc.get("entries", ())
                ]
                if rows:
                    self._upsert(*np.array(rows, dtype=np.int64).T)
        return True

    def load_sidecar(self, path: str, engine) -> bool:
        """Restore from ``path`` when its stamp matches ``engine``'s
        live version; stale/missing/corrupt sidecars report False (the
        caller rebuilds)."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return False
        return self.restore_doc(doc, engine_version(engine))

    def rebuild(self, engine) -> None:
        """Recompute standings from the live engine (recovery path when
        no matching sidecar exists): enumerate every candidate pair of
        every live tuple, answer them in one planner batch, keep the
        non-empty ones.  Equal to the incrementally maintained store —
        entries exist exactly while their context is non-empty."""
        with self._lock:
            self._reset()
            self._pending_retractions = []
            self._pending_unknown = []
            table = engine.table
            pairs = self._candidates(table[i] for i in range(len(table)))
            self.applied_arrivals = engine.arrivals
            if not pairs:
                return
            ordered = sorted(
                pairs, key=lambda p: (repr(p[0].values), p[1])
            )
            self._refresh(engine, ordered)
            self._settle(range(len(self._by_sid)))
