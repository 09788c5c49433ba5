"""SweepIndex — incremental dominance partitions behind a watermark.

Every arrival sweep (`ColumnarSkylineStore.partition_bitmasks`) pays an
elementwise ``lt``/``gt``/``agree`` comparison against the *entire*
registered history, even though the stored prefix is unchanged between
deletions.  This module maintains cheap ordered summaries of that
prefix — litmus's rough-cost-then-execute idiom applied to the sweep —
so a probe is answered with rank lookups instead of compares:

* per measure, a **sorted ordering** of the prefix rows (values +
  row ids) plus **suffix-block bitsets**: ``suffix[b]`` is the packed
  row-bitset of every row whose sorted position is ``>= b*B``.  "Which
  rows beat the probe on measure i" is then one ``searchsorted``, one
  block copy and one partial-block scatter — O(log n + B) instead of
  O(n);
* per dimension, **posting bitsets** keyed by interned value id,
  demand-built from the columns — "which rows agree with the probe at
  position j" is a dict probe;
* per ``(subspace, constraint-mask)``, **anchor-plane bitsets** — the
  store's anchor-bit matrix transposed and packed over the prefix,
  folded from its cells and kept in step by the store's one write
  kernel — the lattice walker's bucket arithmetic becomes bitset
  intersections over the prefix.

All bitsets are little-endian packed ``uint64`` words over rows
``[0, watermark)`` and are rebuilt *lazily*: arrivals past the
watermark live in the un-indexed suffix (handled densely by callers)
until :data:`DEFAULT_FOLD_BATCH` of them accumulate, at which point one
fold merges them into the orderings — O(watermark) work amortised over
the batch.  The index itself only comes into being once the store
holds :data:`ARM_ROWS` rows (:meth:`SweepIndex.arm`): below that the
dense sweep is the faster side, so short histories never build, probe
or maintain an index at all.

Invalidation never rebuilds the index: a deletion tombstones its row
(one cleared bit in an alive mask; the store wipes the anchor planes
through the hook before unregistering), window eviction is just a
deletion, and a demotion re-anchor patches the affected plane words.
Stale ``lt``/``gt``/``agree`` bits of tombstoned rows are harmless to
the walker (every consumer intersects with anchor planes, which are
cleared eagerly) and are masked out of dense reconstructions with the
tombstone bitset.  Store compaction remaps every row, so the store
drops the index; it re-arms by the same :data:`ARM_ROWS` rule and
rebuilds from the compacted columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Suffix rows folded into an armed index per batch.
DEFAULT_FOLD_BATCH = 256

#: Rows a store must hold before it gets an index (again, after a
#: compaction dropped it).  Measured, not configured: the
#: smallest power of two at which the indexed side of the ``svec`` walk
#: is no slower than the dense side on both reference shapes (d=4 m=4
#: anticorrelated, d=5 m=5 independent) — see the crossover table in
#: ``docs/api.md``, re-checked by ``benchmarks/bench_lattice.py``.
ARM_ROWS = 8192

#: Widest schema that gets an index.  The anchor planes — one packed
#: row-bitset per (subspace, constraint mask) — are folded from, and
#: kept in step with, one word of each anchor-bit cell, i.e. 2^5 masks;
#: a wider store keeps answering densely at any row count.
ARM_DIMENSIONS = 5

#: Sorted-position block size of the per-measure suffix bitsets.  A
#: probe pays one partial-block scatter (< B rows) per measure bound;
#: a fold pays one packed-bitset pass per block.
_BLOCK = 1024

_ONE = np.uint64(1)
_FULL = ~np.uint64(0)


def _pack_rows(rows: np.ndarray, cap_words: int, buf: np.ndarray) -> np.ndarray:
    """Little-endian packed uint64 bitset with ``rows`` set, via a
    reusable boolean scatter buffer (reset after packing)."""
    out = np.zeros(cap_words, dtype=np.uint64)
    if rows.size:
        buf[rows] = True
        packed = np.packbits(buf[: cap_words * 64], bitorder="little")
        out[:] = packed.view(np.uint64)
        buf[rows] = False
    return out


class _MeasureOrder:
    """One measure's sorted ordering + suffix-block bitsets."""

    __slots__ = ("vals", "rows", "suffix")

    def __init__(self) -> None:
        self.vals = np.empty(0, dtype=np.float64)
        self.rows = np.empty(0, dtype=np.int64)
        self.suffix: Optional[np.ndarray] = None  # (nb + 1, cap_words)


class SweepIndex:
    """Incremental sweep summaries for one :class:`ColumnarSkylineStore`.

    Created by :meth:`arm` for, and owned by, the store; all row/word
    layouts are the store's.  ``n_masks`` is the size of
    the bound-mask lattice (``2^|D|``) — one anchor plane per mask and
    subspace, read off one word of each matrix cell, which is why
    :meth:`arm` stops at :data:`ARM_DIMENSIONS`.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._n_measures = store._n_measures
        self._n_dimensions = store._n_dimensions
        self.n_masks = 1 << self._n_dimensions
        #: Rows ``[0, watermark)`` are indexed; the rest is suffix.
        self.watermark = 0
        self.cap_words = 0
        self._orders = [_MeasureOrder() for _ in range(self._n_measures)]
        #: (dim position, interned value id) → packed posting bitset,
        #: demand-built over the current prefix; cleared at every fold.
        self._postings: Dict[Tuple[int, int], np.ndarray] = {}
        #: subspace key → plane row in :attr:`_anch`.
        self._planes: Dict[int, int] = {}
        self._anch = np.zeros((0, self.n_masks, 0), dtype=np.uint64)
        #: Tombstoned prefix rows (packed) — masked out of dense
        #: reconstructions; purged from the orderings at the next fold.
        self._dead = np.zeros(0, dtype=np.uint64)
        self._dead_rows: List[int] = []
        self._scatter = np.zeros(0, dtype=bool)
        self.folds = 0

    # ------------------------------------------------------------------
    # Store hooks (anchor mutations + tombstones)
    # ------------------------------------------------------------------
    def anchor_sync(self, subspaces, rows, old, new) -> None:
        """Apply a batch of cell writes (``old[i] → new[i]`` at
        ``(subspaces[i], rows[i])``, the columns of the store's
        :meth:`~ColumnarSkylineStore.apply_cells`) to the planes — only
        the changed masks of prefix rows are touched."""
        prefix = np.flatnonzero(rows < self.watermark)
        if not prefix.size:
            return
        after = new[prefix, 0]
        at, masks = np.nonzero(
            np.unpackbits(
                (old[prefix, 0] ^ after).view(np.uint8).reshape(-1, 4),
                axis=1,
                bitorder="little",
            )
        )
        planes = np.asarray(
            [self._plane_of(subspaces[i]) for i in prefix.tolist()],
            dtype=np.int64,
        )[at]
        hit_rows = rows[prefix[at]]
        words = hit_rows >> 6
        bits = _ONE << (hit_rows & 63).astype(np.uint64)
        gained = (after[at] >> masks.astype(np.uint32)) & 1 != 0
        lost = ~gained
        np.bitwise_or.at(
            self._anch, (planes[gained], masks[gained], words[gained]), bits[gained]
        )
        np.bitwise_and.at(
            self._anch, (planes[lost], masks[lost], words[lost]), ~bits[lost]
        )

    def on_unregister(self, row: int) -> None:
        """Tombstone a prefix row (suffix rows never entered the index;
        the store's column neutralisation covers them)."""
        if row >= self.watermark:
            return
        self._dead[row >> 6] |= _ONE << np.uint64(row & 63)
        self._dead_rows.append(row)

    # ------------------------------------------------------------------
    # Arming and folding
    # ------------------------------------------------------------------
    @classmethod
    def arm(cls, store) -> Optional["SweepIndex"]:
        """An index folded over all of ``store``'s rows once it holds
        enough of them for the index to win (:data:`ARM_ROWS`) on a
        schema whose planes fit (:data:`ARM_DIMENSIONS`); ``None``
        otherwise."""
        n = store.n_rows
        if n < ARM_ROWS or store._n_dimensions > ARM_DIMENSIONS:
            return None
        index = cls(store)
        index._fold(n)
        return index

    def ensure_folded(self) -> None:
        """Fold the suffix in when a batch has accumulated."""
        n = self._store.n_rows
        if n - self.watermark >= DEFAULT_FOLD_BATCH:
            self._fold(n)

    def _fold(self, n: int) -> None:
        store = self._store
        old_w = self.watermark
        cap = (((n + 63) >> 6) + 63) & ~63  # word capacity, chunked
        if cap != self.cap_words:
            self._dead = self._grown(self._dead, cap)
            anch = np.zeros(
                (self._anch.shape[0], self.n_masks, cap), dtype=np.uint64
            )
            anch[:, :, : self._anch.shape[2]] = self._anch
            self._anch = anch
            self.cap_words = cap
        if self._scatter.shape[0] < cap * 64:
            self._scatter = np.zeros(cap * 64, dtype=bool)

        # Purge tombstoned rows from the orderings (their packed bits
        # elsewhere are anchor-gated or dead-masked, so only the sorted
        # arrays — which searchsorted walks — need cleaning).
        if self._dead_rows:
            alive = np.ones(old_w, dtype=bool)
            alive[np.asarray(self._dead_rows, dtype=np.int64)] = False
            for order in self._orders:
                keep = alive[order.rows]
                if not keep.all():
                    order.vals = order.vals[keep]
                    order.rows = order.rows[keep]
            self._dead_rows = []

        # Merge the live suffix rows into each measure's ordering (a
        # tombstone's NaN measures drop out).
        new_rows = np.arange(old_w, n, dtype=np.int64)
        for i, order in enumerate(self._orders):
            if new_rows.size:
                vals = store._values[new_rows, i]
                ok = ~np.isnan(vals)
                vals, rows = vals[ok], new_rows[ok]
                # Pre-sort the batch: np.insert keeps equal insertion
                # points in argument order, so the merge stays sorted.
                sorter = np.argsort(vals, kind="stable")
                vals, rows = vals[sorter], rows[sorter]
                at = np.searchsorted(order.vals, vals)
                order.vals = np.insert(order.vals, at, vals)
                order.rows = np.insert(order.rows, at, rows)
            self._rebuild_suffix(order)

        # Extend the anchor planes with the new rows' current anchors
        # (read straight off the store's anchor-bit matrix; one word
        # per cell within ARM_DIMENSIONS).
        for subspace, slot in store._slots.items():
            plane = self._plane_of(subspace)
            col = store._cells[slot, old_w:n, 0]
            if not col.any():
                continue
            for mask in range(self.n_masks):
                rows = old_w + np.nonzero((col >> mask) & 1)[0]
                if rows.size:
                    seg = _pack_rows(rows, self.cap_words, self._scatter)
                    self._anch[plane, mask] |= seg

        self._postings.clear()
        self.watermark = n
        self.folds += 1

    def _rebuild_suffix(self, order: _MeasureOrder) -> None:
        total = order.rows.shape[0]
        nb = (total + _BLOCK - 1) // _BLOCK
        suffix = np.zeros((nb + 1, self.cap_words), dtype=np.uint64)
        for b in range(nb - 1, -1, -1):
            block = order.rows[b * _BLOCK : (b + 1) * _BLOCK]
            suffix[b] = suffix[b + 1] | _pack_rows(
                block, self.cap_words, self._scatter
            )
        order.suffix = suffix

    def _grown(self, arr: np.ndarray, cap: int) -> np.ndarray:
        out = np.zeros(cap, dtype=np.uint64)
        out[: arr.shape[0]] = arr
        return out

    def _plane_of(self, subspace: int) -> int:
        """The plane row of ``subspace``, added on first use."""
        plane = self._planes.get(subspace)
        return self._add_plane(subspace) if plane is None else plane

    def _add_plane(self, subspace: int) -> int:
        plane = len(self._planes)
        self._planes[subspace] = plane
        anch = np.zeros((plane + 1, self.n_masks, self.cap_words), np.uint64)
        anch[:plane] = self._anch
        self._anch = anch
        return plane

    def ensure_planes(self, subspaces: Sequence[int]) -> None:
        """Pre-register planes in walker key order, so
        :meth:`anchor_planes` is a zero-copy view for that order."""
        for subspace in subspaces:
            if subspace not in self._planes:
                self._add_plane(subspace)

    def anchor_planes(self, subspaces: Sequence[int]) -> np.ndarray:
        """``(len(subspaces), n_masks, cap_words)`` anchor planes in the
        requested order (a view when the registration order matches —
        the walker path — a gathered copy otherwise)."""
        idx = [self._planes.get(s) for s in subspaces]
        if any(i is None for i in idx):
            self.ensure_planes(subspaces)
            idx = [self._planes[s] for s in subspaces]
        if idx == list(range(len(self._planes))):
            return self._anch
        return self._anch[np.asarray(idx, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def measure_partitions(
        self, probe_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed ``(L, G)`` over the prefix: ``L[i]`` the rows whose
        measure ``i`` beats ``probe_values[i]``, ``G[i]`` the rows it
        beats — each one ``searchsorted`` + one suffix-block copy + one
        partial-block scatter.  NaN probes partition nothing (dense
        comparisons with NaN are always False)."""
        cap = self.cap_words
        L = np.zeros((self._n_measures, cap), dtype=np.uint64)
        G = np.zeros((self._n_measures, cap), dtype=np.uint64)
        for i, order in enumerate(self._orders):
            v = probe_values[i]
            if np.isnan(v):
                continue
            total = order.rows.shape[0]
            suffix = order.suffix
            # Rows with value > v: sorted positions (pos_r, total).
            pos = int(np.searchsorted(order.vals, v, side="right"))
            b = (pos + _BLOCK - 1) // _BLOCK
            L[i] = suffix[min(b, suffix.shape[0] - 1)]
            part = order.rows[pos : b * _BLOCK]
            if part.size:
                L[i] |= _pack_rows(part, cap, self._scatter)
            # Rows with value < v: present rows minus positions >= pos_l.
            pos = int(np.searchsorted(order.vals, v, side="left"))
            b = (pos + _BLOCK - 1) // _BLOCK
            ge = suffix[min(b, suffix.shape[0] - 1)].copy()
            part = order.rows[pos : b * _BLOCK]
            if part.size:
                ge |= _pack_rows(part, cap, self._scatter)
            G[i] = suffix[0] & ~ge
        return L, G

    def posting(self, position: int, vid: int) -> np.ndarray:
        """Packed bitset of prefix rows whose interned dimension value
        at ``position`` equals ``vid`` (demand-built; tombstoned rows
        auto-excluded at build time by their ``-1`` sentinel)."""
        key = (position, vid)
        packed = self._postings.get(key)
        if packed is None:
            w = self.watermark
            hit = self._store._dims[:w, position] == np.int32(vid)
            packed = np.zeros(self.cap_words, dtype=np.uint64)
            bits = np.packbits(hit, bitorder="little")
            packed.view(np.uint8)[: bits.shape[0]] = bits
            self._postings[key] = packed
        return packed

    def dead_mask_u8(self) -> Optional[np.ndarray]:
        """Per-row 0/1 tombstone flags over the prefix (``None`` when
        nothing died) — reconstruction clears those rows."""
        if not self._dead[: (self.watermark + 63) >> 6].any():
            return None
        return np.unpackbits(
            self._dead.view(np.uint8), count=self.watermark, bitorder="little"
        )

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Prefix-length uint8 0/1 view of one packed bitset."""
        return np.unpackbits(
            packed.view(np.uint8), count=self.watermark, bitorder="little"
        )
