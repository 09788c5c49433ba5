"""The object-per-entry ``FeedStore`` of PR 10–22, kept as the test oracle.

This is ``src/repro/service/feeds.py`` as it stood before the store went
columnar, moved here verbatim (imports made absolute) so
``tests/test_feed_columns.py`` can drive both implementations with the
same streams and demand identical changed-key sets, summaries, ranked
pages and checkpoint documents.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import DiscoveryConfig
from repro.core.constraint import UNBOUND, Constraint, satisfied_constraints
from repro.core.facts import FactSet
from repro.core.record import Record
from repro.core.schema import TableSchema
from repro.api.spec import FeedSpec

Pair = Tuple[Constraint, int]


def engine_version(engine) -> Tuple[int, int]:
    """``(arrivals, deletions)`` — the same monotone stamp the query
    cache keys on; equality proves engine state is unchanged."""
    arrivals = engine.arrivals
    return arrivals, arrivals - len(engine)


class FeedEntry:
    """Current standing of one tracked ``(C, M)`` pair.

    The context cardinality lives in a one-element list *shared by every
    entry of the same constraint* (``|σ_C(table)|`` does not depend on
    the measure subspace) — a silent satisfier costs one increment per
    constraint instead of one per tracked pair, which is what keeps feed
    maintenance a few percent of discovery itself."""

    __slots__ = (
        "constraint",
        "subspace",
        "skyline_size",
        "tid",
        "ctx_cell",
        "_rank_tail",
    )

    def __init__(
        self,
        constraint: Constraint,
        subspace: int,
        ctx_cell: List[int],
        skyline_size: int,
        tid: int,
    ) -> None:
        self.constraint = constraint
        self.subspace = subspace
        self.ctx_cell = ctx_cell
        self.skyline_size = skyline_size
        #: Most recent arrival known to sit in this pair's skyline.
        self.tid = tid
        # Static part of the rank key (everything but the prominence),
        # built lazily on the first rank evaluation — the repr tiebreak
        # is too costly for entry creation, and most entries are never
        # ranked between updates.
        self._rank_tail = None

    @property
    def context_size(self) -> int:
        return self.ctx_cell[0]

    @property
    def prominence(self) -> float:
        return self.ctx_cell[0] / self.skyline_size

    def to_json_dict(self, schema: TableSchema) -> dict:
        return {
            "constraint": self.constraint.to_mapping(schema),
            "measures": list(schema.measure_names(self.subspace)),
            "prominence": self.prominence,
            "context_size": self.context_size,
            "skyline_size": self.skyline_size,
            "tid": self.tid,
        }


class FeedSegment:
    """One materialized feed: entries + a monotone content version."""

    __slots__ = ("key", "version", "entries", "last_arrival", "evicted")

    def __init__(self, key: str) -> None:
        self.key = key
        #: Bumped on every content change; drives gateway updates and
        #: cursor invalidation.  Monotone for the segment's lifetime.
        self.version = 0
        self.entries: Dict[Pair, FeedEntry] = {}
        #: Store-level arrival count when this segment last changed.
        self.last_arrival = 0
        #: Entries dropped by the per-segment cap (truncation marker).
        self.evicted = 0


def _rank_key(entry: FeedEntry):
    """Descending prominence; ties to the more general constraint then
    the smaller subspace (mirrors ``FactSet.ranked``), then a stable
    textual tiebreak so pagination order is deterministic.  Only the
    prominence head is built per evaluation; the tail is cached on the
    entry."""
    tail = entry._rank_tail
    if tail is None:
        constraint = entry.constraint
        subspace = entry.subspace
        tail = entry._rank_tail = (
            constraint.bound_count,
            bin(subspace).count("1"),
            repr(constraint.values),
            subspace,
        )
    return (-entry.ctx_cell[0] / entry.skyline_size,) + tail


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
        self._subspaces = tuple(
            mask
            for mask in range(1, 1 << schema.n_measures)
            if config.allows_subspace(mask)
        )
        self._segments: Dict[str, FeedSegment] = {}
        #: Constraint -> {(segment_key, subspace)} for the O(2^d̂)
        #: silent-satisfier and repair lookups.
        self._by_constraint: Dict[Constraint, Set[Tuple[str, int]]] = {}
        #: Constraint -> shared ``[|σ_C(table)|]`` cell (see
        #: :class:`FeedEntry`); keyed exactly by the tracked
        #: constraints.
        self._ctx: Dict[Constraint, List[int]] = {}
        #: Constraint interning table: every entry key reuses the
        #: first-seen object, so pair lookups resolve on the tuple
        #: identity shortcut instead of a value compare per fact.
        self._canon: Dict[Constraint, Constraint] = {}
        #: Constraint -> segment key, hot-path cache (the key is a
        #: pure function of the constraint); pruned when a constraint
        #: loses its last entry.
        self._key_cache: Dict[Constraint, str] = {}
        #: Removed records awaiting a repair pass (explicit deletions,
        #: window evictions, aggregate group retractions).
        self._pending_retractions: List[Record] = []
        #: Applied arrivals whose ``S_t`` was lost (salvage path):
        #: repair refreshes their *full* candidate-pair set, since a
        #: lost arrival may have founded pairs no entry tracks yet.
        self._pending_unknown: List[Record] = []
        self._lock = threading.RLock()
        #: Arrivals folded in (equals ``engine.arrivals`` when the
        #: store has been attached since the first row).
        self.applied_arrivals = 0
        #: Retraction-repair passes executed.
        self.repairs = 0
        #: Pairs refreshed by repair passes.
        self.repaired_pairs = 0
        #: The version a new segment starts at (set by a rebuild).
        self._version_floor = 0

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
            segment = self._segments[key] = FeedSegment(key)
            segment.version = self._version_floor
        return segment

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
        were lost — queue it for a repair-style refresh instead.
        """
        with self._lock:
            self.applied_arrivals += 1
            changed: Set[str] = set()
            if factset is None:
                self._pending_unknown.append(record)
                return changed
            touched: Dict[str, FeedSegment] = {}
            tid = record.tid
            constraints, subspaces, contexts, skylines = factset.columns()
            # ``S_t`` holds one fact per (C, M) but shares constraint
            # *objects* across subspaces — resolve the per-constraint
            # state (canonical object, shared context cell, segment)
            # once per distinct object via an identity-keyed scratch
            # map, so the per-fact loop stays free of value-hashed
            # lookups.
            resolved: Dict[int, tuple] = {}
            for i, constraint in enumerate(constraints):
                state = resolved.get(id(constraint))
                if state is None:
                    canon = self._canon.get(constraint)
                    if canon is None:
                        canon = self._canon[constraint] = constraint
                    cell = self._ctx.get(canon)
                    if cell is None:
                        cell = self._ctx[canon] = [0]
                    key = self._key_cache.get(canon)
                    if key is None:
                        key = self._key_cache[canon] = self.segment_key(canon)
                    segment = self._segment(key)
                    touched[key] = segment
                    resolved[id(constraint)] = state = (
                        canon, cell, key, segment
                    )
                canon, cell, key, segment = state
                subspace = subspaces[i]
                # Exact overwrite — every pair of one constraint
                # carries the same post-arrival context size.
                cell[0] = (contexts[i] if contexts is not None else None) or 0
                sky = (skylines[i] if skylines is not None else None) or 0
                pair = (canon, subspace)
                entry = segment.entries.get(pair)
                if entry is None:
                    segment.entries[pair] = FeedEntry(
                        canon, subspace, cell, sky, tid
                    )
                    self._by_constraint.setdefault(canon, set()).add(
                        (key, subspace)
                    )
                else:
                    entry.skyline_size = sky
                    entry.tid = tid
            # Silent satisfiers: the arrival matches a tracked
            # constraint without a fact for it — every such pair's
            # skyline is provably unchanged and the shared context grew
            # by exactly one (once per distinct constraint: a None
            # dimension collapses several masks onto one).  Constraints
            # that *did* produce a fact were overwritten with the exact
            # context above (which also covers their fact-less sibling
            # subspaces); their segments still need the version bump.
            seen = set(constraints)
            for constraint in dict.fromkeys(
                satisfied_constraints(record, self._bound_cap)
            ):
                cell = self._ctx.get(constraint)
                if cell is None:
                    continue
                if constraint not in seen:
                    cell[0] += 1
                for key, _subspace in self._by_constraint[constraint]:
                    touched[key] = self._segments[key]
            for key, segment in touched.items():
                self._enforce_cap(segment)
                self._bump(segment)
                changed.add(key)
            return changed

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
            affected: List[Pair] = []
            seen: Set[Pair] = set()
            for record in retracted:
                for constraint in satisfied_constraints(record, self._bound_cap):
                    targets = self._by_constraint.get(constraint)
                    if not targets:
                        continue
                    for _key, subspace in targets:
                        pair = (constraint, subspace)
                        if pair not in seen:
                            seen.add(pair)
                            affected.append(pair)
            for record in unknown:
                for constraint in satisfied_constraints(record, self._bound_cap):
                    for subspace in self._subspaces:
                        pair = (constraint, subspace)
                        if pair not in seen:
                            seen.add(pair)
                            affected.append(pair)
            self.repairs += 1
            if not affected:
                return set()
            self.repaired_pairs += len(affected)
            results = engine.query().batch(affected)
            changed: Set[str] = set()
            touched: Dict[str, FeedSegment] = {}
            for pair, result in zip(affected, results):
                constraint, subspace = pair
                key = self.segment_key(constraint)
                if result.context_size <= 0:
                    segment = self._segments.get(key)
                    if segment is None or pair not in segment.entries:
                        continue
                    self._drop_entry(segment, pair)
                else:
                    segment = self._segment(key)
                    tid = (
                        max(r.tid for r in result.skyline)
                        if result.skyline
                        else -1
                    )
                    canon = self._canon.get(constraint)
                    if canon is None:
                        canon = self._canon[constraint] = constraint
                    cell = self._ctx.get(canon)
                    if cell is None:
                        cell = self._ctx[canon] = [result.context_size]
                    else:
                        cell[0] = result.context_size
                    pair = (canon, subspace)
                    entry = segment.entries.get(pair)
                    if entry is None:
                        segment.entries[pair] = FeedEntry(
                            canon,
                            subspace,
                            cell,
                            result.skyline_size,
                            tid,
                        )
                        self._by_constraint.setdefault(canon, set()).add(
                            (key, subspace)
                        )
                    else:
                        entry.skyline_size = result.skyline_size
                        entry.tid = tid
                touched[key] = segment
            for key, segment in touched.items():
                self._enforce_cap(segment)
                self._bump(segment)
                changed.add(key)
            return changed

    def _drop_entry(self, segment: FeedSegment, pair: Pair) -> None:
        segment.entries.pop(pair, None)
        targets = self._by_constraint.get(pair[0])
        if targets is not None:
            targets.discard((segment.key, pair[1]))
            if not targets:
                del self._by_constraint[pair[0]]
                self._ctx.pop(pair[0], None)
                self._key_cache.pop(pair[0], None)
                self._canon.pop(pair[0], None)

    def _enforce_cap(self, segment: FeedSegment) -> None:
        max_entries = self.spec.max_entries
        if len(segment.entries) <= max_entries:
            return
        # Hysteresis: evict down to a low-water mark below the cap, so
        # the O(n) victim scan amortizes over the arrivals that refill
        # the slack instead of re-running on every arrival once the
        # segment sits at the cap.  The memory bound stays strict
        # (never above ``max_entries`` after a fold); the slack only
        # evicts entries the cap would have evicted shortly anyway.
        low_water = max(1, max_entries - (max_entries >> 2))
        drop = len(segment.entries) - low_water
        # Victim selection on bare prominence floats (C-speed listcomp
        # + partial sort), never on the full rank key: everything below
        # the drop-th smallest prominence goes, ties at the threshold
        # are broken by insertion order (deterministic for a given
        # stream; the tied entries are equally prominent, so the feed's
        # ranked content is unaffected by which of them survive).
        entries = list(segment.entries.values())
        proms = [e.ctx_cell[0] / e.skyline_size for e in entries]
        threshold = heapq.nsmallest(drop, proms)[-1]
        victims = [e for e, p in zip(entries, proms) if p < threshold]
        need = drop - len(victims)
        if need > 0:
            victims.extend(
                e for e, p in zip(entries, proms) if p == threshold
            )
            del victims[drop:]
        for entry in victims:
            self._drop_entry(segment, (entry.constraint, entry.subspace))
        segment.evicted += drop

    def _bump(self, segment: FeedSegment) -> None:
        segment.version += 1
        segment.last_arrival = self.applied_arrivals

    # ------------------------------------------------------------------
    # Reads (gateway / NewsFeed)
    # ------------------------------------------------------------------
    def segment_keys(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def segments(self) -> List[dict]:
        """Summary row per segment (the gateway's ``GET /feeds``)."""
        with self._lock:
            return [
                {
                    "segment": segment.key,
                    "version": segment.version,
                    "entries": len(segment.entries),
                    "staleness": self.applied_arrivals - segment.last_arrival,
                    "evicted": segment.evicted,
                }
                for _, segment in sorted(self._segments.items())
            ]

    def entries_ranked(
        self,
        key: str,
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
    ) -> List[FeedEntry]:
        """Ranked entries of one segment under the read-time ``τ`` /
        top-k policy (ties at the cut kept, like ``query().batch``).
        Arguments default to the spec's values."""
        if top_k is None:
            top_k = self.spec.top_k
        if tau is None:
            tau = self.spec.tau
        with self._lock:
            segment = self._segments.get(key)
            if segment is None:
                return []
            entries = sorted(segment.entries.values(), key=_rank_key)
        if tau is not None:
            entries = [e for e in entries if e.prominence >= tau]
        if top_k is not None and len(entries) > top_k:
            cutoff = entries[top_k - 1].prominence
            cut = top_k
            while cut < len(entries) and entries[cut].prominence == cutoff:
                cut += 1
            entries = entries[:cut]
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
                for s in self._segments.values()
            ]
            return {
                "segments": len(self._segments),
                "entries": sum(len(s.entries) for s in self._segments.values()),
                "applied_arrivals": self.applied_arrivals,
                "repairs": self.repairs,
                "repaired_pairs": self.repaired_pairs,
                "evicted": sum(s.evicted for s in self._segments.values()),
                "max_staleness": max(staleness) if staleness else 0,
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s.entries) for s in self._segments.values())

    # ------------------------------------------------------------------
    # Checkpoint section / rebuild
    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """Plain-data rendering: the ``feeds`` section of a checkpoint."""
        with self._lock:
            doc = {
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
                            for entry in segment.entries.values()
                        ],
                    }
                    for segment in self._segments.values()
                ],
            }
            if self._version_floor:
                doc["version_floor"] = self._version_floor
            return doc

    def restore_doc(self, doc: dict) -> None:
        """Replace the standings with a :meth:`to_doc` rendering."""
        with self._lock:
            self._segments.clear()
            self._by_constraint.clear()
            self._ctx.clear()
            self._key_cache.clear()
            self._canon.clear()
            self.applied_arrivals = int(doc.get("applied_arrivals", 0))
            self._version_floor = int(doc.get("version_floor", 0))
            for seg_doc in doc.get("segments", ()):
                segment = FeedSegment(seg_doc["key"])
                segment.version = int(seg_doc.get("version", 0))
                segment.last_arrival = int(seg_doc.get("last_arrival", 0))
                segment.evicted = int(seg_doc.get("evicted", 0))
                for entry_doc in seg_doc.get("entries", ()):
                    constraint = Constraint(tuple(entry_doc["values"]))
                    constraint = self._canon.setdefault(constraint, constraint)
                    subspace = int(entry_doc["subspace"])
                    cell = self._ctx.setdefault(constraint, [0])
                    cell[0] = int(entry_doc["ctx"])
                    segment.entries[(constraint, subspace)] = FeedEntry(
                        constraint,
                        subspace,
                        cell,
                        int(entry_doc["sky"]),
                        int(entry_doc["tid"]),
                    )
                    self._by_constraint.setdefault(constraint, set()).add(
                        (segment.key, subspace)
                    )
                self._segments[segment.key] = segment

    def rebuild(self, engine) -> None:
        """Recompute standings from the live engine (recovery path when
        the checkpoint holds no loadable feeds section): enumerate every candidate pair of
        every live tuple, answer them in one planner batch, keep the
        non-empty ones.  Equal to the incrementally maintained store —
        entries exist exactly while their context is non-empty."""
        with self._lock:
            self._segments.clear()
            self._by_constraint.clear()
            self._ctx.clear()
            self._key_cache.clear()
            self._canon.clear()
            self._pending_retractions = []
            self._pending_unknown = []
            # Versions start above any an earlier state of this engine
            # history could have served (feeds.py's rebuild says why).
            self._version_floor = sum(engine_version(engine))
            pairs: Set[Pair] = set()
            for record in engine.table:
                for constraint in satisfied_constraints(record, self._bound_cap):
                    for subspace in self._subspaces:
                        pairs.add((constraint, subspace))
            self.applied_arrivals = engine.arrivals
            if not pairs:
                return
            ordered = sorted(
                pairs, key=lambda p: (repr(p[0].values), p[1])
            )
            results = engine.query().batch(ordered)
            for result in results:
                if result.context_size <= 0:
                    continue
                key = self.segment_key(result.constraint)
                segment = self._segment(key)
                tid = (
                    max(r.tid for r in result.skyline)
                    if result.skyline
                    else -1
                )
                constraint = self._canon.setdefault(
                    result.constraint, result.constraint
                )
                cell = self._ctx.setdefault(constraint, [0])
                cell[0] = result.context_size
                segment.entries[(constraint, result.subspace)] = FeedEntry(
                    constraint,
                    result.subspace,
                    cell,
                    result.skyline_size,
                    tid,
                )
                self._by_constraint.setdefault(constraint, set()).add(
                    (key, result.subspace)
                )
            for segment in self._segments.values():
                self._enforce_cap(segment)
                self._bump(segment)
