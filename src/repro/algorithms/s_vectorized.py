"""SVectorized — Alg. 6 on columnar storage ("svec").

STopDown (Alg. 6) already shares work *across measure subspaces*: one
full-space partition ``(M>, M<, M=)`` per historical tuple answers
dominance in every subspace via Proposition 4.  This algorithm adds the
orthogonal sharing axis of :class:`~repro.algorithms.vectorized.\
VectorizedBaseline` — *across tuples* — while keeping STopDown's
materialised stores and output semantics:

* the whole history lives column-wise in a
  :class:`~repro.storage.columnar_store.ColumnarSkylineStore`, so the
  per-arrival ``(M<, M>, agreement)`` partition against **every**
  historical tuple is three NumPy matrix expressions — and so does
  ``µ``: the store's anchor-bit matrix (bit ``m`` of cell
  ``(subspace, row)`` ⇔ the row is stored there under its constraint
  with bound mask ``m``) is the only record of membership, so this
  algorithm talks to its store in masks and bitsets, never in
  ``Constraint`` objects;
* the Prop. 4 pruned matrix is assembled for every subspace at once
  from the vectorized dominator set, OR-ing the submask closures of the
  dominators' agreement masks;
* the lattice passes themselves run as one **bitset-matrix walk**, the
  only discovery body: the per-subspace pruned bitsets form a
  ``(subspaces × constraints)`` visit/survive matrix, fact emission and
  maximal-constraint promotion are batched matrix reductions, ``µ``
  bucket occupancy along ``C^t`` is one slice of the anchor-bit matrix
  ANDed with the agreement submask closure (so the comparison counters
  and the demotion candidates come out of popcounts, not bucket loops),
  and the store is written once per arrival: the promotion at the
  arrival's maximal constraints and every demotion — a bit move inside
  one cell, worked out by :meth:`_demoted_anchors` from the cell as it
  stood before the arrival — are collected in a local
  ``{(subspace, row): anchors}`` dict and leave as one batch of cell
  transitions (:meth:`ColumnarSkylineStore.apply_cells`).  The walk is
  output-equivalent to scalar ``stopdown`` — facts, Invariant-2 store
  contents, *and* operation counters;
* every lattice bitset of the walk (pruned, visited, closures, bucket
  members, parents) is in the store's own cell-word form —
  ``2^|D| / 32`` little-endian ``uint32`` words, one up to five
  dimensions — so the walk has one representation at every
  dimensionality, and the O(subspaces × constraints) tail works on the
  unpacked boolean matrix;
* a None dimension value of the arrival is data, not a detour: it can
  be bound by no constraint, so a raw mask ``m`` of the walk stands for
  the constraint at its *canonical* mask ``m & B`` (``B`` the arrival's
  bindable positions).  The arrival's probe agrees with no row at a
  None position, which keeps every agreement closure, bucket and
  demotion inside the canonical masks; pruning is read at the canonical
  mask; and a constraint several raw masks collapse onto is visited
  once per raw mask, as scalar ``stopdown`` does — the first visit
  scans the bucket as it stood, the repeats see the demoted rows gone
  and the arrival's own anchor present (:meth:`_collapse` holds the
  per-``B`` tables; an arrival without None values is the case where
  every mask is visited once);
* the walk splits the history at the store's sweep-index watermark
  ``w``: rows ``[0, w)`` are answered from the index's packed bitsets
  (O(m·log n) rank lookups plus a few words per cell), rows ``[w, n)``
  densely.  The store arms the index from its own row count
  (:meth:`ColumnarSkylineStore.folded_sweep`) — ``w`` stays 0 on
  short histories, where the dense side is the faster one — so there
  is one walk and nothing for a caller to select;
* facts leave the walk as its emission *cells* (positions along
  ``C^t`` × subspace, see :meth:`FactSet.add_cells`), and the skyline
  half of prominence scoring is one read of the store's
  skyline-cardinality counts for all of ``C^t``
  (:meth:`ColumnarSkylineStore.skyline_counts`) gathered at the cells
  (:meth:`skyline_column`), so scored batch ingestion — the engine's
  default — keeps columnar speed without building a single per-fact
  list or fact object;
* retraction repair is columnar too (see
  :func:`~repro.algorithms.retraction.retract_top_down_columnar`):
  the victim's cells are cleared, re-anchor candidates come from one
  dominance sweep over the columns, and the clears and re-anchors are
  one store write per victim — None-carrying victims included, whose
  affected up-set is cut to their canonical masks — instead of per-mask
  skyline recomputation from the full table.

Why precomputing the pruned matrix is sound: STopDown's node passes
already rely on the root-pass bits being *exact* — a constraint survives
iff the new tuple is undominated there (the paper's covering argument:
any dominator in a context is covered by a full-space skyline tuple
anchored at an ancestor, which the root pass meets in level order).  The
vectorized sweep computes those exact bits directly from the full
history, so per-mask decisions come out identical.

Why the walker's bucket arithmetic is exact: a stored row ``r`` sits in
the walk's bucket at ``(C^t_m, M)`` iff ``r`` is anchored in ``M`` at a
constraint with bound mask ``m`` *and* ``r`` agrees with the arrival on
every position of ``m`` (the anchor's values then coincide with
``C^t_m``'s).  With the anchor-bit matrix that membership is
``cells[M, r] & closure[agree[r]]`` — one gather and one AND for the
whole history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import bindable_positions
from ..core.facts import FactSet
from ..core.lattice import (
    bit_positions,
    popcount,
    popcount_array,
    submask_closure_table,
)
from ..core.prominence import ABSENT_ID
from ..core.record import Record
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..storage.columnar_store import (
    WORD,
    WORD_BITS,
    ColumnTable,
    cell_ints,
    cell_words,
)
from .base import DiscoveryAlgorithm


#: A bitset word with every mask set.
_EVERY_MASK = np.iinfo(WORD).max


class SVectorized(DiscoveryAlgorithm):
    """Alg. 6 on columnar storage."""

    name = "svec"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
        shard_subspaces: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(schema, config, counters)
        self.store = self.table.store
        self._closure = submask_closure_table(schema.n_dimensions)
        # Subspace-axis sharding (the service layer's parallel unit):
        # when ``shard_subspaces`` is given, this instance maintains only
        # that subset of the measure-subspace keys.  Sound because every
        # per-subspace decision — Prop. 4 pruning, fact emission, maximal
        # promotion, demotion repair, the scoring index — is derived
        # from the arrival sweep over the *registered* history (which
        # every shard keeps in full), never from another subspace's
        # store.  The shard holding the full measure space runs it as
        # the root pass (visit-all semantics); shards without it run
        # pure node passes, so op-counter totals across a partition sum
        # to the unsharded engine's exactly.
        self._shard: Optional[Tuple[int, ...]] = None
        self._has_root = True
        if shard_subspaces is not None:
            shard = list(dict.fromkeys(shard_subspaces))
            valid = set(self.subspaces)
            valid.add(self.full_space)
            unknown = [s for s in shard if s not in valid]
            if unknown:
                raise ValueError(
                    f"shard subspaces {unknown} are not maintained keys "
                    f"of this schema/config"
                )
            self._shard = tuple(shard)
            shard_set = set(shard)
            self._has_root = self.full_space in shard_set
            self.subspaces = [s for s in self.subspaces if s in shard_set]
        # The raw dominance sweep lives on the store
        # (ColumnarSkylineStore.partition_bitmasks); the algorithm only
        # keeps the subspace-key column used to broadcast Prop. 4.
        measure_dtype = np.int32 if schema.n_measures <= 30 else np.int64
        allowed_bits = 0
        for mask in self.masks_top_down:
            allowed_bits |= 1 << mask
        #: Bitset (over constraint masks) of the d̂-allowed lattice.
        self._allowed_bits = allowed_bits
        #: Maintained subspace keys; the full space (sharing substrate)
        #: comes first when this shard owns it.
        if self._has_root:
            self._subspace_keys = [self.full_space] + [
                s for s in self.subspaces if s != self.full_space
            ]
        else:
            self._subspace_keys = list(self.subspaces)
        #: Column vector of the keys, for one broadcast Prop. 4 test.
        self._keys_column = np.asarray(self._subspace_keys, dtype=measure_dtype)[
            :, None
        ]
        #: Lazily-built ancestor tables for batched demotion repair:
        #: ``_anc_tbl[child][j]`` is the bitset of masks that are proper
        #: ancestors of ``child`` binding attribute ``j`` — "is the
        #: demoted tuple already anchored above this candidate child?"
        #: becomes one AND against the anchor-mask bitset.
        self._anc_tbl: Dict[int, Tuple[int, ...]] = {}
        #: Walk tables.  Lattice bitsets are in the store's cell-word
        #: form at every dimensionality (:func:`cell_words`).
        n_masks = 1 << schema.n_dimensions
        self._masks_arr = np.asarray(self.masks_top_down, dtype=np.int64)
        #: parent_words[m]: bitset of the parent masks of mask ``m`` —
        #: "all parents pruned" is one AND+compare per cell.  One row
        #: per bit of a cell: the bits past ``2^|D|`` of a narrow
        #: lattice's single word have no parents and never anchor.
        self._parent_words = cell_words(
            [
                sum(1 << (m & ~(1 << i)) for i in bit_positions(m))
                if m < n_masks
                else 0
                for m in range(max(n_masks, WORD_BITS))
            ],
            schema.n_dimensions,
        )
        report = np.ones((len(self._subspace_keys), 1), dtype=bool)
        if self._has_root:
            report[0, 0] = self.config.allows_subspace(self.full_space)
        self._report_col = report
        #: The subspace keys as a gather index (measure-mask subset DP
        #: of the prefix stage) and the emitted subspace column.
        self._keys_index = np.asarray(self._subspace_keys, dtype=np.int32)
        #: Memo of :meth:`_collapse`, by bindable mask.
        self._collapse_tbl: Dict[int, tuple] = {}

    def maintained_subspaces(self) -> List[int]:
        """The walker's keys: the full space — the sharing substrate —
        first, even when the m̂ cap excludes it from reporting.  A
        shard-restricted instance maintains exactly its keys, the full
        space among them only for the shard that owns the root pass
        (other shards never touch full-space stores)."""
        return list(self._subspace_keys)

    # ------------------------------------------------------------------
    # Streaming hooks
    # ------------------------------------------------------------------
    def reserve(self, extra: int) -> None:
        self.store.reserve(extra)

    def _repair_after_retract(self, record: Record) -> None:
        # Invariant-2 repair first, then drop the row from the columns —
        # the sweep must no longer see the retracted tuple.
        from .retraction import retract_top_down_columnar

        retract_top_down_columnar(
            self.store, record, self.masks_top_down, self.maintained_subspaces()
        )
        self.store.unregister(record.tid)

    def retract_many(self, tids) -> List[Record]:
        # Repair stays sequential (each retraction must see the state
        # the previous one left) but the store's tombstone compaction is
        # deferred to one grouped pass at the end.
        with self.store.deferred_compaction():
            return super().retract_many(tids)

    def stored_tuple_count(self) -> int:
        return self.store.stored_tuple_count()

    def approx_bytes(self) -> int:
        return self.store.approx_bytes()

    def reset(self) -> None:
        super().reset()
        self.store = self.table.store

    def _new_table(self) -> ColumnTable:
        """The rows live only in the store's columns."""
        return ColumnTable(self.schema, self.context_counter, self.counters)

    # ------------------------------------------------------------------
    # Discovery — the bitset-matrix walk
    # ------------------------------------------------------------------
    def _discover(self, record: Record) -> FactSet:
        """One bitset-matrix walk of ``C^t`` over every maintained
        subspace, in three steps.

        *Prefix stage* — rows ``[0, w)`` below the sweep-index watermark
        (skipped while ``w == 0``, i.e. until the store arms the index),
        every O(n) dense expression replaced by packed-bitset
        arithmetic:

        * per-subspace dominator/demotable row bitsets come from a
          subset-DP union of the per-measure rank partitions;
        * Prop. 4 pruning intersects those with the per-(subspace, mask)
          anchor planes — exact by the Invariant-2 covering argument:
          a dominator ``r`` in context ``C^t_m`` is dominated-or-
          equalled by a tuple ``s`` of that context's skyline, and ``s``
          is anchored at an ancestor constraint along ``C^t`` (its
          anchor binds a submask of ``m``, where its values coincide
          with the probe's), so a dominator exists iff an *anchored*
          dominator with agreement ⊇ ``m`` does (``s`` is met here when
          it lies below the watermark and by the dense stage otherwise);
        * µ bucket sizes along ``C^t`` are popcounts of (anchor plane ∩
          agreement) per (subspace, mask) cell, and the demotion
          candidates the nonzero words of (anchor planes ∩ agreement ∩
          demotable).

        *Dense stage* — rows ``[w, n)``, the whole history while
        ``w == 0``: one elementwise partition sweep, the Prop. 4
        closure-OR, and the per-row met matrix.

        *Shared tail* — survive / traversed / emit, comparison counter,
        maximal-constraint promotion, demotion repair in pass order.
        Where the watermark sits changes the cost of an arrival, never
        its facts, store state or op counters.

        Every lattice bitset is in the store's cell-word form, and an
        arrival's None dimension values are handled as data throughout
        (see :meth:`_collapse` and the module docstring): there is no
        other discovery body.
        """
        store = self.store
        facts = FactSet(record)
        keys = self._subspace_keys
        n_keys = len(keys)
        cons_seq = self._constraint_sequence(record)
        n = store.n_rows
        sweep = store.folded_sweep()
        w = sweep.watermark if sweep is not None else 0
        probe_values = np.asarray(record.values, dtype=np.float64)
        unbound, canonical, anchorable, visits, repeats = self._collapse(
            bindable_positions(record.dims)
        )
        # None as data: at an unbindable position the arrival agrees
        # with no row, so every bucket, pruning family and demotion
        # below carries canonical masks only.
        probe_dims = store.intern_dims(record.dims)
        probe_dims[unbound] = ABSENT_ID
        #: pruned[k]: bitset (cell words) of the masks Prop. 4 prunes in
        #: subspace k.
        pruned = np.zeros((n_keys, self._parent_words.shape[1]), dtype=WORD)

        if w:
            sweep.ensure_planes(keys)
            packed_lt, packed_gt = sweep.measure_partitions(probe_values)
            dom, dem = self._packed_dominators(packed_lt, packed_gt)
            agreement = self._packed_agreement(sweep, probe_dims)
            planes = sweep.anchor_planes(keys)
            # Per subspace k and mask, planes[k, mask] & agreement[mask]
            # is the walk's bucket at (C^t_mask, k) restricted to the
            # prefix: met_any[k] is its union over the masks, and its
            # popcount the bucket's prefix size.  Reduced one subspace
            # at a time so the full (keys × masks × words) tensor is
            # never materialised — at n = 30k it is ~1 MB and streaming
            # it through memory several times per arrival was the last
            # O(n) term with a visible constant.  The per-k temporary
            # stays cache-resident.
            met_any = np.empty((n_keys, planes.shape[2]), dtype=np.uint64)
            bucket_bits = np.empty(planes.shape, dtype=np.uint8)
            for k in range(n_keys):
                cell = planes[k] & agreement
                np.bitwise_or.reduce(cell, axis=0, out=met_any[k])
                bucket_bits[k] = popcount_array(cell)
            # Prop. 4 pruning from the met dominators.  met_dom is
            # genuinely dense under anticorrelated streams (hundreds of
            # occupied words per arrival), so this reduction stays
            # vectorised — only the (keys × masks × words) tensor above
            # was worth breaking up.
            met_dom = met_any & dom
            packed = np.packbits(
                np.bitwise_or.reduce(
                    met_dom[:, None, :] & agreement[None, :, :], axis=2
                )
                != 0,
                axis=1,
                bitorder="little",
            )
            pruned.view(np.uint8)[:, : packed.shape[1]] |= packed

        delta = n - w
        if delta:
            # --- One batched sweep: partition bitmasks vs rows [w, n)
            # (see ColumnarSkylineStore.partition_bitmasks for the
            # orientation contract).
            lt, gt, agree = store.partition_suffix(
                probe_values, probe_dims, w, n
            )
            # Prop. 4 broadcast over every maintained subspace at once:
            # row r dominates the probe in key k iff lt[r] hits the
            # subspace and gt[r] misses it (and vice versa for rows the
            # probe dominates — the demotion candidates).
            keys_col = self._keys_column
            lt_hit = (lt & keys_col) != 0
            gt_hit = (gt & keys_col) != 0
            dominated = lt_hit & ~gt_hit
            demote_mat = gt_hit & ~lt_hit
            # pruned[M] = ⋃ closure(C^{t,t'}) over t' dominating t in M
            # — a dense-stage dominator prunes its own agreement closure
            # directly, so the prefix/suffix union is the exact pruned
            # set.  The per-row closure gather is shared with the
            # µ-occupancy arithmetic below.  (closure · dominated)
            # zeroes non-dominator cells, so one plain bitwise-or
            # reduction yields every subspace's pruned bitset (masked
            # reductions are an order of magnitude slower than this
            # multiply) — one word of the cells at a time: reducing
            # over rows with the short word axis innermost is as slow.
            closure_of_agree = store.closure_words()[agree]
            for word in range(pruned.shape[1]):
                pruned[:, word] |= np.bitwise_or.reduce(
                    closure_of_agree[:, word] * dominated, axis=1
                )

        # The O(keys × masks) tail runs on the unpacked matrix; a walked
        # mask reads its pruning at its canonical mask.
        pruned_cell = np.unpackbits(
            pruned.view(np.uint8), axis=1, bitorder="little"
        ).view(bool)
        survive = ~pruned_cell.take(canonical, axis=1)
        # The root pass visits every constraint; node passes skip pruned
        # ones outright (Fig. 11b counts them as not traversed).  A
        # shard without the full space runs node passes only.
        if self._has_root:
            traversed = canonical.shape[0] + survive[1:].sum()
        else:
            traversed = survive.sum()
        self.counters.traversed_constraints += int(traversed)

        # Fact emission: surviving cells, subspace-major / level-minor —
        # np.nonzero's row-major order reproduces the scalar pass order.
        emit = survive & self._report_col
        ks, cs = np.nonzero(emit)
        facts.add_cells(cons_seq, cs.astype(np.int32), self._keys_index[ks])

        # Demotions and the comparison counter: row r occupies the
        # walk's bucket at mask m iff it is anchored there and
        # m ⊆ agree[r].  Node passes skip pruned masks outright; the
        # root pass scans every bucket along C^t.  Both stages read the
        # anchors as they stood *before* this arrival's own store
        # mutations (``anchored``: all subspaces' cells as one slice of
        # the store's anchor-bit matrix) and count each bucket member
        # once per visit of its mask.
        anchored = store.anchor_cells(keys)
        visited = ~pruned
        if self._has_root:
            visited[0] = _EVERY_MASK
        comparisons = 0
        # The demoted cells as three parallel columns: position of the
        # subspace in ``keys``, row, and the bitset of bucket masks the
        # row is demoted at.
        demoted_ks: List[int] = []
        demoted_rows: List[int] = []
        demoted_at: List[int] = []
        if w:
            visited_cell = np.unpackbits(
                visited.view(np.uint8),
                axis=1,
                count=sweep.n_masks,
                bitorder="little",
            ).view(bool)
            sizes = bucket_bits.sum(axis=2, dtype=np.uint32)
            comparisons += int(
                (sizes * visited_cell).sum(axis=0, dtype=np.int64) @ visits
            )
            # Only the conjunction with the demotable rows is sparse:
            # gather the bucket cells of its few nonzero words.
            met_dem = met_any & dem
            dk, dw = np.nonzero(met_dem)
            if dk.size:
                hit = planes[dk, :, dw] & agreement[:, dw].T
                hit &= met_dem[dk, dw][:, None]
                hit[~visited_cell[dk]] = 0
                at, hit_masks = np.nonzero(hit)
                demoted: Dict[Tuple[int, int], int] = {}
                for k, mask, word_at, word in zip(
                    dk[at].tolist(),
                    hit_masks.tolist(),
                    dw[at].tolist(),
                    hit[at, hit_masks].tolist(),
                ):
                    base_row = word_at << 6
                    while word:
                        bit = word & -word
                        word ^= bit
                        cell = k, base_row + bit.bit_length() - 1
                        demoted[cell] = demoted.get(cell, 0) | 1 << mask
                for (k, row), masks in demoted.items():
                    demoted_ks.append(k)
                    demoted_rows.append(row)
                    demoted_at.append(masks)
        if delta:
            met_mat = anchored[:, w:n] & closure_of_agree[None, :, :]
            met_mat &= visited[:, None, :]
            comparisons += int(popcount_array(met_mat).sum())
            for extra, _, group in repeats:
                comparisons += extra * int(
                    popcount_array(met_mat & group).sum()
                )
            # Demotion candidates: cells whose bucket bitset meets a
            # row the arrival dominates there.  Both masks are dense
            # on their own; only their conjunction is sparse — one
            # flat boolean AND + flatnonzero (an order of magnitude
            # faster than 2-D nonzero) finds the handful of hits.
            occupied = met_mat[:, :, 0] != 0
            for word in range(1, met_mat.shape[2]):
                occupied |= met_mat[:, :, word] != 0
            occupied &= demote_mat
            hits = np.flatnonzero(occupied)
            hit_ks, hit_rows = np.divmod(hits, delta)
            demoted_ks += hit_ks.tolist()
            demoted_rows += (hit_rows + w).tolist()
            demoted_at += cell_ints(
                met_mat.reshape(-1, met_mat.shape[2])[hits]
            )

        # Maximal-constraint promotion (Invariant 2): insert where the
        # constraint survives and every parent is pruned — with no
        # pruning at all only ⊤ qualifies (no parents).  A raw mask
        # collapsed onto another's constraint is not anchorable: one of
        # its parents collapses onto the surviving constraint itself.
        parents = self._parent_words
        maximal = ~pruned_cell
        maximal &= anchorable
        for word in range(parents.shape[1]):
            maximal &= (
                pruned[:, None, word] & parents[:, word]
            ) == parents[:, word]
        anchors = cell_ints(
            np.packbits(maximal, axis=1, bitorder="little").view(WORD)
        )
        # A constraint several raw masks collapse onto is visited once
        # per raw mask: the first visit scanned the bucket as it stood
        # (counted above), the repeats see the demoted rows gone and
        # the arrival's own anchor present.
        for extra, group, _ in repeats:
            comparisons += extra * (
                sum(popcount(bits & group) for bits in anchors)
                - sum(popcount(at & group) for at in demoted_at)
            )
        self.counters.comparisons += comparisons

        # The arrival enters the columns, stored or not (the next
        # arrival's sweep runs against the full history; its record is
        # the table's once ``process`` appends it).  Every cell this
        # arrival changes — its own promotion row here, the demoted
        # cells below — is collected in ``cells`` and handed to the
        # store as one write.
        row = store.register(record)
        cells: Dict[Tuple[int, int], int] = {
            (keys[k], row): bits for k, bits in enumerate(anchors) if bits
        }

        # Demotion repair (Procedure *Dominates*, Alg. 5), one demoted
        # cell at a time against its anchors as they stood before this
        # arrival — repairs of distinct cells are independent, so the
        # final state is that of the scalar inline repairs.  Anchor
        # cells, and the positions with no child (agreeing with the
        # arrival, or None), are gathered for the handful of demoted
        # cells only: a full agree column would cost the O(n) pass the
        # prefix stage exists to avoid.
        if demoted_rows:
            for k, row, at, bits, fixed in zip(
                demoted_ks,
                demoted_rows,
                demoted_at,
                cell_ints(anchored[demoted_ks, demoted_rows]),
                store.fixed_bits_rows(demoted_rows, probe_dims).tolist(),
            ):
                cells[keys[k], row] = self._demoted_anchors(
                    self._in_pass_order(at), bits, fixed
                )
        if cells:
            store.apply_cells(*zip(*cells), list(cells.values()))
        return facts

    def _collapse(self, bindable: int) -> tuple:
        """How ``C^t`` folds for an arrival whose bindable positions are
        ``bindable`` (memoised; at most ``2^|D|`` entries).

        A None dimension value cannot be bound, so a raw mask ``m`` of
        the walk stands for the constraint at its canonical mask
        ``m & bindable`` and several raw masks may share one.  Returns

        * ``unbound`` — the unbindable positions (index array);
        * ``canonical`` — the canonical mask of every walked mask;
        * ``anchorable`` — per bit of a cell, whether the mask is walked
          and its own canonical mask (the visit that may anchor);
        * ``visits`` — per mask, how many walked masks collapse onto it;
        * ``repeats`` — ``(times - 1, bitset, bitset in cell words)`` of
          the masks visited ``times > 1`` times, one entry per distinct
          count.

        An arrival without None values is the case ``canonical ==
        masks``: every walked mask visited once, no repeats.
        """
        tables = self._collapse_tbl.get(bindable)
        if tables is None:
            n_dimensions = self.schema.n_dimensions
            canonical = self._masks_arr & bindable
            anchorable = np.zeros(self._parent_words.shape[0], dtype=bool)
            anchorable[canonical] = True
            visits = np.bincount(canonical, minlength=1 << n_dimensions)
            by_times: Dict[int, int] = {}
            for mask, times in enumerate(visits.tolist()):
                if times > 1:
                    by_times[times] = by_times.get(times, 0) | 1 << mask
            tables = self._collapse_tbl[bindable] = (
                np.flatnonzero(bindable >> np.arange(n_dimensions) & 1 == 0),
                canonical,
                anchorable,
                visits,
                [
                    (times - 1, group, cell_words([group], n_dimensions)[0])
                    for times, group in by_times.items()
                ],
            )
        return tables

    def _packed_dominators(self, packed_lt, packed_gt):
        """Per-subspace packed dominator/demotable row bitsets: with
        ``U_k = ∪_{i∈k} lt_i`` and ``V_k = ∪_{i∈k} gt_i``, a row
        dominates the probe in subspace ``k`` iff it wins some measure
        of ``k`` and loses none (``U & ~V``) — and the probe dominates
        it under the converse.  Subset DP over the measure masks, then
        one gather into walker key order."""
        n_measures = self.schema.n_measures
        cap = packed_lt.shape[1]
        if n_measures <= 6:
            size = 1 << n_measures
            wins = np.zeros((size, cap), dtype=np.uint64)
            loses = np.zeros((size, cap), dtype=np.uint64)
            for mask in range(1, size):
                j = (mask & -mask).bit_length() - 1
                wins[mask] = wins[mask & (mask - 1)] | packed_lt[j]
                loses[mask] = loses[mask & (mask - 1)] | packed_gt[j]
            wins = wins[self._keys_index]
            loses = loses[self._keys_index]
        else:
            n_keys = len(self._subspace_keys)
            wins = np.zeros((n_keys, cap), dtype=np.uint64)
            loses = np.zeros((n_keys, cap), dtype=np.uint64)
            for k, key in enumerate(self._subspace_keys):
                bits = key
                while bits:
                    low = bits & -bits
                    bits ^= low
                    j = low.bit_length() - 1
                    wins[k] |= packed_lt[j]
                    loses[k] |= packed_gt[j]
        return wins & ~loses, loses & ~wins

    def _packed_agreement(self, sweep, probe_dims):
        """``A[m]`` = packed prefix rows agreeing with the probe on every
        position of constraint mask ``m``: subset DP down the walked
        lattice over the index's posting bitsets (masks outside the
        walk stay zero — no anchors exist there, so every consumer
        intersects them away)."""
        agreement = np.zeros((sweep.n_masks, sweep.cap_words), dtype=np.uint64)
        agreement[0] = ~np.uint64(0)
        for mask in self.masks_top_down:
            if mask:
                j = (mask & -mask).bit_length() - 1
                agreement[mask] = agreement[mask & (mask - 1)] & sweep.posting(
                    j, int(probe_dims[j])
                )
        return agreement

    def _make_anc_row(self, child: int) -> Tuple[int, ...]:
        closure = self._closure
        row = tuple(
            ((closure[child] & ~closure[child & ~(1 << j)]) & ~(1 << child))
            if child & (1 << j)
            else 0
            for j in range(self.schema.n_dimensions)
        )
        self._anc_tbl[child] = row
        return row

    def _in_pass_order(self, masks: int) -> List[int]:
        """The masks of a bitset in walk (level-major) order."""
        out = bit_positions(masks)
        if len(out) > 1:  # rare: most cells are demoted at one mask
            out.sort(key=self.context_counter.position_of.__getitem__)
        return out

    def _demoted_anchors(self, masks, anchors: int, no_child: int) -> int:
        """Procedure *Dominates* (Alg. 5) on one anchor cell: the
        bitset ``anchors`` of a row after the arrival demoted it at
        each of ``masks`` (bound masks, in pass order).

        Bitset counterpart of :func:`repair_demoted_tuple`: bit ``j`` of
        ``no_child`` is set where the row agrees with the arrival or
        holds the unbound marker (None cannot be bound), so the
        candidate children of each mask are the set bits of one
        integer, and "ancestor already anchored?" is one AND of the
        cell against a memoised ancestor table — no child
        ``Constraint`` is built and no record is read.  A row demoted
        at two masks sees its first repair, so the resulting cell is
        identical to the inline scalar repairs'.
        """
        allowed_bits = self._allowed_bits
        anc_tbl = self._anc_tbl
        for mask in masks:
            anchors &= ~(1 << mask)
            cand = ~mask & ~no_child & self.dim_universe
            while cand:
                bit = cand & -cand
                cand ^= bit
                child = mask | bit
                if not (allowed_bits >> child) & 1:
                    continue
                j = bit.bit_length() - 1
                tbl = anc_tbl.get(child)
                if tbl is None:
                    tbl = self._make_anc_row(child)
                if anchors & tbl[j]:
                    continue
                anchors |= 1 << child
        return anchors

    # ------------------------------------------------------------------
    # Prominence: the skyline column off the store's count index
    # ------------------------------------------------------------------
    def skyline_column(self, facts: FactSet) -> np.ndarray:
        """``|λ_M(σ_C(R))|`` for every fact of ``S_t`` as one integer
        column in insertion order.

        The columnar store answers the skyline cardinality of ``C^t`` in
        every subspace with one call
        (:meth:`ColumnarSkylineStore.skyline_counts`; a constraint
        without a fact goes in as ``None``, so no row is counted for
        it), and the column is one gather of that matrix at the fact
        set's emission cells — no per-fact list or object.  The engine's
        scoring call and the shard workers' ingest replies both read
        it.
        """
        cons_seq, positions, subspaces = facts.cells()
        emitting = np.bincount(positions, minlength=len(cons_seq)).tolist()
        counts = self.store.skyline_counts(
            facts.record.dims,
            [
                constraint.bound_mask if hit else None
                for constraint, hit in zip(cons_seq, emitting)
            ],
        )
        return counts[positions, subspaces]
