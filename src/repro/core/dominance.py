"""Dominance relation and the subspace partition of Proposition 4.

All measure values are normalised ("larger is better"), so dominance in a
subspace ``M`` (a bitmask over measure positions) is:

    ``t' ≻_M t``  iff  ``t'.m ≥ t.m`` for every ``m ∈ M`` and
                        ``t'.m > t.m`` for at least one ``m ∈ M``.

For the sharing algorithms (Sec. V-C), one full-space comparison of
``t`` and ``t'`` yields the three disjoint sets ``M>``, ``M<``, ``M=``
(here: bitmasks ``gt``, ``lt``, ``eq``), after which Proposition 4
decides dominance in *any* subspace with two bit-operations:

    ``t ≺_M t'``  iff  ``M ∩ M< ≠ ∅`` and ``M ∩ M> = ∅``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from .record import Record


@dataclass(frozen=True)
class ComparisonOutcome:
    """Full-space partition of measures for an ordered pair ``(t, other)``.

    ``gt``/``lt``/``eq`` are bitmasks of positions where ``t``'s value is
    greater / less / equal, i.e. the paper's ``M>``, ``M<``, ``M=``.
    """

    gt: int
    lt: int
    eq: int

    def dominated_in(self, subspace: int) -> bool:
        """Proposition 4: is ``t`` dominated by ``other`` in ``subspace``?"""
        return bool(subspace & self.lt) and not (subspace & self.gt)

    def dominates_in(self, subspace: int) -> bool:
        """Symmetric direction: does ``t`` dominate ``other`` in
        ``subspace``?"""
        return bool(subspace & self.gt) and not (subspace & self.lt)


def compare(t: Record, other: Record) -> ComparisonOutcome:
    """Partition the full measure space for ``(t, other)`` in one pass."""
    gt = lt = eq = 0
    for i, (a, b) in enumerate(zip(t.values, other.values)):
        if a > b:
            gt |= 1 << i
        elif a < b:
            lt |= 1 << i
        else:
            eq |= 1 << i
    return ComparisonOutcome(gt, lt, eq)


def dominates(a: Record, b: Record, subspace: int) -> bool:
    """``a ≻_M b`` for bitmask subspace ``M`` (Def. 2).

    Empty subspaces never yield dominance.  Iterates set bits only
    (``mask & -mask`` isolates the lowest one), so sparse subspaces —
    the common case across the ``2^|M|`` lattice — cost exactly their
    popcount, not ``|M|`` shifts.
    """
    strict = False
    mask = subspace
    av = a.values
    bv = b.values
    while mask:
        bit = mask & -mask
        i = bit.bit_length() - 1
        va = av[i]
        vb = bv[i]
        if va < vb:
            return False
        if va > vb:
            strict = True
        mask ^= bit
    return strict


def dominated_by_any(t: Record, others: Sequence[Record], subspace: int) -> bool:
    """True iff any record of ``others`` dominates ``t`` in ``subspace``."""
    return any(dominates(o, t, subspace) for o in others)


@lru_cache(maxsize=65536)
def _cached_projection(values: Tuple[float, ...], subspace: int) -> Tuple[float, ...]:
    """Projection of a measure tuple onto ``subspace`` (memoised).

    Keyed on the value tuple itself, so identical measure vectors —
    ubiquitous in bounded-domain streams — share one cached projection
    across records and arrivals.
    """
    out = []
    mask = subspace
    while mask:
        bit = mask & -mask
        out.append(values[bit.bit_length() - 1])
        mask ^= bit
    return tuple(out)


def measure_projection(record: Record, subspace: int) -> Tuple[float, ...]:
    """Normalised measure values of ``record`` restricted to ``subspace``,
    in ascending bit order."""
    return _cached_projection(record.values, subspace)
