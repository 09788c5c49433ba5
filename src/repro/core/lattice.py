"""Bitmask machinery for the lattice of tuple-satisfied constraints.

Within ``C^t`` (Def. 7) each constraint is determined by the set of bound
positions, so the whole lattice is the boolean lattice of bitmasks over
``n = |D|`` bits:

* ``⊤`` (no constraint)          → mask ``0``
* ``⊥(C^t)`` (all attrs bound)   → mask ``(1 << n) - 1``
* *ancestor* (more general)      → **proper submask**
* *parent*                       → clear one set bit
* *child*                        → set one clear bit
* ``C^{t,t'}`` lattice intersection (Def. 8) → all submasks of the
  *agreement mask* (positions where ``t`` and ``t'`` carry equal values).

The same boolean-lattice encoding doubles for measure subspaces
(bitmasks over ``|M|`` bits), so everything here is shared by both axes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple


def popcount(mask: int) -> int:
    """Number of set bits (``bound(C)`` or ``|M|``)."""
    return bin(mask).count("1")


def popcount_array(array):
    """Element-wise popcount of a non-negative integer NumPy array.

    The bitset lattice walker counts ``µ`` bucket sizes as popcounts —
    over per-row anchor bitsets on the dense side, over packed
    ``uint64`` row words on the indexed side; NumPy grew a native
    ``bitwise_count`` only in 2.0, so older installs take the SWAR
    ladder below.  It runs in ``uint64``, where the final
    multiply-gather wraps modulo ``2^64`` by design, so full 64-bit
    words count correctly.
    """
    import numpy as np

    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(array)
    u = np.uint64
    x = array.astype(u)
    x -= (x >> u(1)) & u(0x5555555555555555)
    x = (x & u(0x3333333333333333)) + ((x >> u(2)) & u(0x3333333333333333))
    x = (x + (x >> u(4))) & u(0x0F0F0F0F0F0F0F0F)
    return (x * u(0x0101010101010101)) >> u(56)


def bit_positions(bitset: int) -> List[int]:
    """Set bit positions of ``bitset``, ascending.

    >>> bit_positions(0b10110)
    [1, 2, 4]
    """
    out = []
    while bitset:
        bit = bitset & -bitset
        bitset ^= bit
        out.append(bit.bit_length() - 1)
    return out


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including ``0`` and ``mask`` itself.

    Uses the classic ``sub = (sub - 1) & mask`` walk, emitting masks in
    decreasing numeric order.

    >>> sorted(iter_submasks(0b101))
    [0, 1, 4, 5]
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_supermasks(mask: int, universe: int) -> Iterator[int]:
    """All supermasks of ``mask`` within ``universe``.

    >>> sorted(iter_supermasks(0b001, 0b111))
    [1, 3, 5, 7]
    """
    free = universe & ~mask
    sub = free
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def parents_of(mask: int) -> Iterator[int]:
    """Parent masks: clear one set bit (one fewer bound attribute)."""
    m = mask
    while m:
        bit = m & -m
        yield mask & ~bit
        m ^= bit


def children_of(mask: int, universe: int) -> Iterator[int]:
    """Child masks within ``universe``: set one clear bit."""
    free = universe & ~mask
    while free:
        bit = free & -free
        yield mask | bit
        free ^= bit


@lru_cache(maxsize=64)
def masks_by_level(n_bits: int) -> Tuple[Tuple[int, ...], ...]:
    """Masks over ``n_bits`` bucketed by popcount (cached)."""
    levels: List[List[int]] = [[] for _ in range(n_bits + 1)]
    for mask in range(1 << n_bits):
        levels[popcount(mask)].append(mask)
    return tuple(tuple(level) for level in levels)


@lru_cache(maxsize=32)
def submask_closure_table(n_bits: int) -> Tuple[int, ...]:
    """``table[mask]`` = bitset (over the ``2^n`` constraint masks) of all
    submasks of ``mask``.

    Lets the sharing algorithms mark a whole pruned family
    ``C^{t,t'}`` with one ``|=`` (used by the ``pruned[C][M]`` matrix of
    Alg. 6).  Built via DP: closure(mask) = {mask} ∪ closure(mask − bit).
    """
    size = 1 << n_bits
    table = [0] * size
    table[0] = 1  # closure of ⊤ is {⊤}
    for mask in range(1, size):
        acc = 1 << mask
        m = mask
        while m:
            bit = m & -m
            acc |= table[mask & ~bit]
            m ^= bit
        table[mask] = acc
    return tuple(table)


@lru_cache(maxsize=32)
def supermask_closure_table(n_bits: int) -> Tuple[int, ...]:
    """``table[mask]`` = bitset (over the ``2^n`` constraint masks) of all
    supermasks of ``mask`` within the full universe.

    Dual of :func:`submask_closure_table`: ``(table[a] >> m) & 1`` iff
    ``a ⊆ m``.  The columnar anchor index ORs these per anchored
    constraint, so "is the tuple anchored at an ancestor of ``C``?"
    becomes one integer AND (prominence scoring, demotion repair).
    Built by the mirrored DP: closure(mask) = {mask} ∪ closure(mask + bit).
    """
    size = 1 << n_bits
    universe = size - 1
    table = [0] * size
    table[universe] = 1 << universe  # closure of ⊥ is {⊥}
    for mask in range(universe - 1, -1, -1):
        acc = 1 << mask
        free = universe & ~mask
        while free:
            bit = free & -free
            acc |= table[mask | bit]
            free ^= bit
        table[mask] = acc
    return tuple(table)


def agreement_mask(dims_a: Sequence[object], dims_b: Sequence[object]) -> int:
    """Bitmask of positions where two dimension tuples agree.

    ``⊥(C^{t,t'})`` of Def. 8 is exactly the constraint with this bound
    mask, and the intersection lattice ``C^{t,t'}`` is its submask set.
    """
    mask = 0
    for i, (a, b) in enumerate(zip(dims_a, dims_b)):
        if a == b:
            mask |= 1 << i
    return mask


def is_submask(sub: int, sup: int) -> bool:
    """True iff every bit of ``sub`` is set in ``sup``."""
    return sub & ~sup == 0


def nonempty_subspaces(universe: int, max_size: int | None = None) -> List[int]:
    """All non-empty measure-subspace masks within ``universe``, optionally
    capped at ``max_size`` attributes (the paper's ``m̂``), ordered by
    decreasing size so the full space comes first."""
    out = [
        m
        for m in iter_submasks(universe)
        if m != 0 and (max_size is None or popcount(m) <= max_size)
    ]
    out.sort(key=popcount, reverse=True)
    return out
