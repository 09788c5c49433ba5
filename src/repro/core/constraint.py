"""Constraints and the subsumption partial order (paper Defs. 1, 5, 6).

A constraint ``C`` over dimension space ``D`` is a conjunctive expression
``d1=v1 ∧ … ∧ dn=vn`` where each ``vi`` is a domain value or ``*``
(unbound).  We represent ``C`` as an immutable tuple of values with
``None`` standing for ``*`` — hashable, cheap to compare, and the lattice
operations reduce to tuple/bitmask arithmetic.

Within the lattice of constraints *satisfied by a given tuple* ``t``
(Def. 7), every constraint is uniquely identified by the bitmask of its
bound positions, because each bound position must carry ``t``'s value.
:mod:`repro.core.lattice` exploits that encoding; this module provides
the general, tuple-valued view.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from .schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .record import Record

#: The unbound marker ``*`` of the paper.
UNBOUND = None


class Constraint:
    """A conjunctive constraint ``⟨v1, …, vn⟩`` with ``None`` = ``*``.

    Instances are immutable and hashable so they can key the per-pair
    skyline stores ``µ_{C,M}``.

    Examples
    --------
    >>> c = Constraint(("a1", None, "c1"))
    >>> c.bound_count
    2
    >>> c.is_top
    False
    """

    __slots__ = ("values", "_mask", "_hash")

    def __init__(self, values: Sequence[object]) -> None:
        self.values: Tuple[object, ...] = tuple(values)
        mask = 0
        for i, v in enumerate(self.values):
            if v is not UNBOUND:
                mask |= 1 << i
        self._mask = mask
        self._hash = hash(self.values)

    @classmethod
    def from_values_mask(cls, values: Tuple[object, ...], mask: int) -> "Constraint":
        """Fast constructor for callers that already know the bound mask.

        Skips the per-position scan of ``__init__`` — the demotion-repair
        and lattice-traversal hot paths build thousands of constraints
        per arrival from (values, mask) pairs they derive bit-wise.
        ``values`` must be a tuple whose non-``None`` positions are
        exactly the bits of ``mask``.
        """
        self = object.__new__(cls)
        self.values = values
        self._mask = mask
        self._hash = hash(values)
        return self

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constraint) and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("*" if v is UNBOUND else repr(v) for v in self.values)
        return f"Constraint(⟨{inner}⟩)"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of dimension attributes ``n = |D|``."""
        return len(self.values)

    @property
    def bound_mask(self) -> int:
        """Bitmask of bound positions (bit ``i`` set iff ``di`` is bound)."""
        return self._mask

    @property
    def bound_count(self) -> int:
        """``bound(C)`` — the number of bound attributes (Def. 1)."""
        return bin(self._mask).count("1")

    @property
    def is_top(self) -> bool:
        """True for ``⊤ = ⟨*, …, *⟩``, the most general constraint."""
        return self._mask == 0

    @classmethod
    def top(cls, arity: int) -> "Constraint":
        """The top element ``⊤`` for an ``arity``-dimensional space."""
        return cls((UNBOUND,) * arity)

    @classmethod
    def from_mapping(
        cls, schema: TableSchema, bindings: Mapping[str, object]
    ) -> "Constraint":
        """Build a constraint from ``{dimension_name: value}`` bindings."""
        values: list = [UNBOUND] * schema.n_dimensions
        for name, value in bindings.items():
            values[schema.dimension_index(name)] = value
        return cls(values)

    def to_mapping(self, schema: TableSchema) -> dict:
        """Bound attributes as ``{dimension_name: value}`` (readable form)."""
        return {
            schema.dimensions[i]: v
            for i, v in enumerate(self.values)
            if v is not UNBOUND
        }

    # ------------------------------------------------------------------
    # Satisfaction and subsumption
    # ------------------------------------------------------------------
    def satisfied_by(self, record: "Record") -> bool:
        """True iff the record's dimension values satisfy this constraint
        (Def. 4: every bound attribute matches)."""
        for i, v in enumerate(self.values):
            if v is not UNBOUND and record.dims[i] != v:
                return False
        return True

    def subsumed_by(self, other: "Constraint") -> bool:
        """``self ⊑ other`` (Def. 5): other is equal or more general.

        Holds iff every attribute bound in ``other`` is bound to the same
        value in ``self``.
        """
        for i, v in enumerate(other.values):
            if v is not UNBOUND and self.values[i] != v:
                return False
        return True

    def strictly_subsumed_by(self, other: "Constraint") -> bool:
        """``self ⊏ other`` — subsumed and not equal (Def. 5 cond. 2)."""
        return self != other and self.subsumed_by(other)

    # ------------------------------------------------------------------
    # Lattice neighbours (general poset view; Def. 6)
    # ------------------------------------------------------------------
    def parents(self) -> Iterator["Constraint"]:
        """Constraints obtained by unbinding one bound attribute
        (``P_C``, each has one fewer bound attribute)."""
        for i, v in enumerate(self.values):
            if v is not UNBOUND:
                vals = list(self.values)
                vals[i] = UNBOUND
                yield Constraint(vals)

    def ancestors(self) -> Iterator["Constraint"]:
        """All proper ancestors ``A_C`` — every way of unbinding a
        non-empty subset of bound attributes (``2^bound(C) - 1`` items)."""
        bound_positions = [i for i, v in enumerate(self.values) if v is not UNBOUND]
        k = len(bound_positions)
        for subset in range(1, 1 << k):
            vals = list(self.values)
            for j in range(k):
                if subset & (1 << j):
                    vals[bound_positions[j]] = UNBOUND
            yield Constraint(vals)

    def children_for(self, record: "Record") -> Iterator["Constraint"]:
        """Children within ``C^t`` for tuple ``t=record`` (Def. 7):
        bind one currently-unbound attribute to the record's value."""
        for i, v in enumerate(self.values):
            if v is UNBOUND:
                vals = list(self.values)
                vals[i] = record.dims[i]
                yield Constraint(vals)

    def bind(self, index: int, value: object) -> "Constraint":
        """Return a copy with dimension ``index`` bound to ``value``."""
        vals = list(self.values)
        vals[index] = value
        return Constraint(vals)

    def unbind(self, index: int) -> "Constraint":
        """Return a copy with dimension ``index`` unbound."""
        vals = list(self.values)
        vals[index] = UNBOUND
        return Constraint(vals)

    def describe(self, schema: TableSchema) -> str:
        """Render like the paper's prose, e.g. ``month=Feb ∧ team=Celtics``;
        ``⊤`` renders as ``(no constraint)``."""
        if self.is_top:
            return "(no constraint)"
        parts = [
            f"{schema.dimensions[i]}={v}"
            for i, v in enumerate(self.values)
            if v is not UNBOUND
        ]
        return " ∧ ".join(parts)


def bindable_positions(dims: Sequence[object]) -> int:
    """Bitmask of positions whose value can actually be bound.

    A dimension value equal to the unbound marker collapses every mask
    covering it onto the constraint that leaves the position free, so
    the lattice of *distinct* constraints in ``C^t`` is the boolean
    lattice over this mask.  The traversal algorithms prune and test on
    ``mask & bindable_positions`` — the collapsed canonical mask — so
    duplicate raw masks share one pruning state (see the unbindable
    dimension-value fix discussed in ROADMAP).
    """
    mask = 0
    for i, v in enumerate(dims):
        if v is not UNBOUND:
            mask |= 1 << i
    return mask


def constraint_for_record(record: "Record", mask: int) -> Constraint:
    """The unique constraint in ``C^t`` with bound-position bitmask ``mask``.

    This is the bridge between the bitmask encoding used by the traversal
    algorithms and the value-tuple encoding used by the stores.
    """
    dims = record.dims
    values = tuple(
        dims[i] if mask & (1 << i) else UNBOUND for i in range(len(dims))
    )
    if UNBOUND in dims:
        # Pathological: a dimension value equal to the unbound marker
        # cannot be bound — recount so bound_mask matches the values.
        return Constraint(values)
    return Constraint.from_values_mask(values, mask)


def tuple_getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``seq ↦ tuple(seq[i] for i in positions)``, one C call when
    ``positions`` has two or more entries (``itemgetter`` returns a bare
    item for one and refuses none)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda seq: (seq[i],)
    return lambda seq: ()


def lattice_getters(n_dimensions: int, masks: Sequence[int]) -> tuple:
    """Per-mask index tables for :func:`constraints_for_record`, built
    once per lattice: ``(mask, getter)`` pairs, the getter taking a
    record's dimension values with the unbound marker appended (index
    ``n_dimensions``) to the values of its constraint at ``mask``."""
    n = n_dimensions
    return tuple(
        (mask, tuple_getter([i if mask >> i & 1 else n for i in range(n)]))
        for mask in masks
    )


def constraints_for_record(record: "Record", getters) -> Tuple[Constraint, ...]:
    """The constraints of ``C^t`` at the masks of ``getters`` (see
    :func:`lattice_getters`), in that order — one tuple gather and one
    constructor call per mask.  Equal, mask by mask, to
    :func:`constraint_for_record`: a ``None`` value cannot be bound, so
    a mask covering it carries only its bindable positions."""
    dims = record.dims
    padded = (*dims, UNBOUND)
    make = Constraint.from_values_mask
    if UNBOUND in dims:
        bindable = bindable_positions(dims)
        return tuple(make(get(padded), mask & bindable) for mask, get in getters)
    return tuple(make(get(padded), mask) for mask, get in getters)


def satisfied_constraints(record: "Record", max_bound: Optional[int] = None) -> Iterator[Constraint]:
    """Enumerate ``C^t`` — all ``2^n`` constraints satisfied by ``record``
    (paper Alg. 1), optionally capped at ``max_bound`` bound attributes
    (the paper's ``d̂`` parameter, §VI-A).

    Generation order matches Alg. 1: level by level from ``⊤`` downward
    (breadth-first), never generating a constraint twice.
    """
    from .config import effective_bound_cap
    from .lattice import masks_by_level

    n = len(record.dims)
    levels = masks_by_level(n)
    cap = effective_bound_cap(n, max_bound)
    for level in levels[: cap + 1]:
        for mask in level:
            yield constraint_for_record(record, mask)
