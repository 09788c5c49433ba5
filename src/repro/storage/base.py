"""Skyline-store interface — the paper's ``µ_{C,M}`` spaces (§V).

A store maps a constraint–measure pair ``(C, M)`` to the set of tuples
materialised for it.  BottomUp keeps *all* contextual skyline tuples
there (Invariant 1); TopDown keeps only tuples whose *maximal* skyline
constraint is ``C`` (Invariant 2).  The store itself is policy-free —
algorithms decide what to put in it.

Two implementations exist:

* :class:`~repro.storage.memory_store.MemorySkylineStore` — dict-backed
  (§VI-B, "memory-based implementation");
* :class:`~repro.storage.file_store.FileSkylineStore` — one binary file
  per non-empty pair (§VI-C, "file-based implementation").
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.constraint import Constraint
from ..core.record import Record
from ..metrics.counters import OpCounters

PairKey = Tuple[Constraint, int]


class SkylineStore(abc.ABC):
    """Abstract ``µ`` store: a multimap ``(C, M) → {records}``."""

    def __init__(self, counters: Optional[OpCounters] = None) -> None:
        self.counters = counters if counters is not None else OpCounters()

    # -- required primitives ------------------------------------------------
    @abc.abstractmethod
    def get(self, constraint: Constraint, subspace: int) -> List[Record]:
        """Tuples currently stored for ``(C, M)``.

        Returns an empty sequence when the pair holds nothing (it may be
        a shared immutable empty — callers must not mutate the result).
        """

    @abc.abstractmethod
    def insert(self, constraint: Constraint, subspace: int, record: Record) -> None:
        """Add ``record`` to ``µ_{C,M}`` (no-op when already present)."""

    @abc.abstractmethod
    def delete(self, constraint: Constraint, subspace: int, record: Record) -> None:
        """Remove ``record`` from ``µ_{C,M}`` (no-op when absent)."""

    @abc.abstractmethod
    def contains(self, constraint: Constraint, subspace: int, record: Record) -> bool:
        """Membership test used by TopDown's maximality checks."""

    @abc.abstractmethod
    def iter_pairs(self) -> Iterator[Tuple[PairKey, List[Record]]]:
        """All non-empty pairs with their tuples (for accounting/tests)."""

    @abc.abstractmethod
    def stored_tuple_count(self) -> int:
        """Total stored tuple references (Fig. 10b series)."""

    @abc.abstractmethod
    def approx_bytes(self) -> int:
        """Approximate resident bytes (Fig. 10a series)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop everything (bench teardown)."""

    # -- optional fast paths --------------------------------------------------
    def anchor_masks(self, tid: int, subspace: int):
        """Bound masks of the constraints storing tuple ``tid`` in
        ``subspace``, or ``None`` when the store keeps no such index.

        Only meaningful for stores filled by the discovery algorithms,
        where every tuple stored at ``(C, M)`` satisfies ``C`` — the
        bound mask then identifies ``C`` uniquely given the tuple, and
        demotion repair can test "is an ancestor anchored?" with integer
        arithmetic instead of constructing candidate constraints.
        Stores without the index return ``None`` (the generic path).
        """
        return None

    def skyline_counts(self, dims, masks):
        """Incremental skyline-cardinality index for prominence scoring:
        ``|λ_M(σ_C)|`` for the constraints binding ``dims`` at each
        bound mask of ``masks``, as a ``(len(masks), 2^|M|)`` integer
        matrix with one column per measure-subspace bitmask — or
        ``None`` when the store keeps no such index (the generic path:
        an Invariant-2 store sweep).

        When maintained (see the columnar store) the index holds, per
        bound mask, one count row per combination of dimension values
        at the mask's positions — a key-table entry and ``4 · 2^|M|``
        bytes of counts per ``(mask, key)`` some live row holds, shared
        by every subspace — so a whole arrival is scored with one probe
        per mask of ``C^t`` instead of one per fact.  How the index is
        laid out is the store's business; this method is its only reader.  Like
        :meth:`anchor_masks`, it is only meaningful for stores filled by
        the discovery algorithms (stored tuples satisfy their
        constraints).  The matrix is read-only.
        """
        return None

    # -- shared conveniences -------------------------------------------------
    def replace(
        self,
        constraint: Constraint,
        subspace: int,
        remove: Iterable[Record],
        add: Iterable[Record],
    ) -> None:
        """Batch delete-then-insert on one pair (one read-modify-write for
        the file store)."""
        for record in remove:
            self.delete(constraint, subspace, record)
        for record in add:
            self.insert(constraint, subspace, record)
