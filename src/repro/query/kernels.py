"""Columnar read kernels for the forward query direction (PR 8).

The write path is vectorized end to end (PRs 1-3, 7), but the seed-era
query engine still answered reads with per-Record Python loops: an
O(n) ``satisfied_by`` scan per selection and an O(n²) double loop for
k-skybands.  This module reuses the write path's columnar machinery for
reads over any algorithm that registers its full history into a
:class:`~repro.storage.columnar_store.ColumnarSkylineStore` (``svec``):

* **selection** — the context ``σ_C`` as row indices: one dense
  ``dims == id`` reduction per bound dimension, with the query's values
  looked up, never interned (a read leaves the store as it found it);
* **k-skyband** — dominance *counting* as chunked NumPy broadcast
  reductions over the selected measure rows instead of the scalar
  ``dominates`` pair loop;
* **maintained skyline** — Invariant 2's reconstruction as one
  anchor-closure test on the store's anchor-bit matrix intersected with
  the selection (a skyline tuple of ``(C, M)`` satisfies ``C`` and is
  anchored at ``C`` or an ancestor), instead of one bucket read per
  ancestor;
* **skyline size** — one probe of the PR-2 scoring index
  (``|λ_M(σ_C)|`` per Invariant 2) for maintained subspaces, so the
  planner prices queries without materialising anything.

Every kernel is property-identical to the scalar
:class:`~repro.query.contextual.ContextualQueryEngine` path, which
remains the fallback for non-columnar algorithms
(``tests/test_query_planner.py`` fuzzes the equivalence).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.constraint import UNBOUND, Constraint
from ..core.record import Record

#: Element budget for one ``(chunk, selection, measures)`` dominance
#: broadcast — bounds peak memory at a few MB regardless of context size.
_CHUNK_ELEMS = 1 << 22


class ColumnarQueryKernels:
    """Vectorized selection / skyband / statistics over one columnar store.

    Valid only for algorithms whose store registers *every* live row
    (``svec`` does: the shared dominance sweep needs the full history).
    :meth:`for_algorithm` returns ``None`` for anything else, at which
    point callers keep the scalar path.
    """

    def __init__(self, store, interner) -> None:
        self.store = store
        #: The store's value interner, read with ``probe_row`` only.
        self.interner = interner

    @classmethod
    def for_algorithm(cls, algorithm) -> Optional["ColumnarQueryKernels"]:
        from ..algorithms.s_vectorized import SVectorized

        if not isinstance(algorithm, SVectorized):
            return None
        return cls(algorithm.store, algorithm.context_counter.interner)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def selection_rows(self, constraint: Constraint) -> np.ndarray:
        """Rows of ``σ_C`` (live, ascending — i.e. arrival order).

        One dense ``dims == id`` reduction per bound dimension.  The
        constraint's values are looked up, not interned: a value the
        store never saw reads ``ABSENT_ID`` and matches no row.
        Tombstones carry ``-1`` dimension sentinels, so they match no
        probe; the unconstrained selection filters them explicitly.
        """
        dims = self.store.dims_matrix()
        if dims.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        bound = [i for i, v in enumerate(constraint.values) if v is not UNBOUND]
        if not bound:
            return np.nonzero(dims[:, 0] != np.int32(-1))[0]
        probe_ids = self.interner.probe_row(constraint.values)
        hit = dims[:, bound[0]] == probe_ids[bound[0]]
        for j in bound[1:]:
            hit &= dims[:, j] == probe_ids[j]
        return np.nonzero(hit)[0]

    def context_size(self, constraint: Constraint) -> int:
        """``|σ_C|`` as one selection reduction (no Record objects)."""
        return int(self.selection_rows(constraint).size)

    # ------------------------------------------------------------------
    # k-skyband
    # ------------------------------------------------------------------
    def _measure_positions(self, subspace: int) -> List[int]:
        width = self.store.values_matrix().shape[1]
        return [i for i in range(width) if (subspace >> i) & 1]

    def _dominator_counts(self, values: np.ndarray) -> np.ndarray:
        """Per-row count of dominators within ``values`` (rows × measures).

        Chunked broadcast of the dominance test (``≥`` everywhere and
        ``>`` somewhere, larger-is-better after ``Table._normalise``);
        a row never dominates itself or an exact duplicate, so no
        self-exclusion is needed.
        """
        s, m = values.shape
        counts = np.empty(s, dtype=np.int64)
        chunk = max(1, _CHUNK_ELEMS // max(1, s * max(1, m)))
        for lo in range(0, s, chunk):
            cand = values[lo:lo + chunk]
            ge = (values[None, :, :] >= cand[:, None, :]).all(axis=2)
            gt = (values[None, :, :] > cand[:, None, :]).any(axis=2)
            counts[lo:lo + chunk] = (ge & gt).sum(axis=1)
        return counts

    def skyband_records(
        self, constraint: Constraint, subspace: int, k: int
    ) -> List[Record]:
        """The k-skyband of ``(C, M)`` — tuples dominated by fewer than
        ``k`` context tuples — in arrival order (scalar-path parity).
        ``k=1`` is the contextual skyline."""
        rows = self.selection_rows(constraint)
        if rows.size == 0:
            return []
        mpos = self._measure_positions(subspace)
        values = self.store.values_matrix()[rows][:, mpos]
        keep = rows[self._dominator_counts(values) < k]
        return [self.store.record_at(r) for r in keep.tolist()]

    def maintained_skyline(
        self, constraint: Constraint, subspace: int
    ) -> List[Record]:
        """``λ_M(σ_C)`` of a maintained pair off the anchors (Invariant
        2): the context rows anchored in ``subspace`` at ``C`` or one of
        its ancestors, in arrival order."""
        rows = self.store.skyline_rows(constraint, subspace)
        return [self.store.record_at(r) for r in rows.tolist()]

    def has_dominator(
        self, record: Record, constraint: Constraint, subspace: int
    ) -> bool:
        """Any context tuple dominating ``record`` in ``subspace``?
        One broadcast pass — the membership test never materialises the
        skyline."""
        mpos = self._measure_positions(subspace)
        if not mpos:
            return False
        rows = self.selection_rows(constraint)
        if rows.size == 0:
            return False
        values = self.store.values_matrix()[rows][:, mpos]
        probe = np.asarray(record.values, dtype=np.float64)[mpos]
        ge = (values >= probe).all(axis=1)
        gt = (values > probe).any(axis=1)
        return bool((ge & gt).any())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def context_and_skyline_size(
        self, constraint: Constraint, subspace: int
    ) -> "tuple":
        """``(|σ_C|, |λ_M(σ_C)|)`` off *one* shared selection — the
        prominence fallback never scans twice."""
        rows = self.selection_rows(constraint)
        ctx = int(rows.size)
        if ctx == 0:
            return 0, 0
        mpos = self._measure_positions(subspace)
        if not mpos:
            return ctx, 0
        values = self.store.values_matrix()[rows][:, mpos]
        sky = int((self._dominator_counts(values) == 0).sum())
        return ctx, sky

    def skyline_size(self, constraint: Constraint, subspace: int) -> int:
        """``|λ_M(σ_C)|`` as one scoring-index probe, valid for any
        bound mask and any subspace the algorithm *maintains* (callers
        gate on that — a non-maintained subspace has no anchors and
        would read as empty)."""
        counts = self.store.skyline_counts(
            constraint.values, (constraint.bound_mask,)
        )
        return int(counts[0, subspace])
