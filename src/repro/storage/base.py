"""Skyline-store interface — the paper's ``µ_{C,M}`` spaces (§V).

A store maps a constraint–measure pair ``(C, M)`` to the set of tuples
materialised for it.  BottomUp keeps *all* contextual skyline tuples
there (Invariant 1); TopDown keeps only tuples whose *maximal* skyline
constraint is ``C`` (Invariant 2).  The store itself is policy-free —
algorithms decide what to put in it.

Two implementations exist, the stores of the paper-ladder algorithms:

* :class:`~repro.storage.memory_store.MemorySkylineStore` — dict-backed
  (§VI-B, "memory-based implementation");
* :class:`~repro.storage.file_store.FileSkylineStore` — one binary file
  per non-empty pair (§VI-C, "file-based implementation").

``svec``'s :class:`~repro.storage.columnar_store.ColumnarSkylineStore`
is not one of them: it keeps ``µ`` as an anchor-bit matrix and speaks
cells (bitsets of bound masks per ``(subspace, row)``), not constraints.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional, Tuple

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
