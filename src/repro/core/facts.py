"""Situational facts — the discovery output (Problem Statement, §III).

A *situational fact* pertinent to a new tuple ``t`` is one
constraint–measure pair ``(C, M)`` for which ``t`` is a contextual
skyline tuple.  :class:`FactSet` is ``S_t``, the set of all such pairs,
enriched (when the engine computes prominence) with context / skyline
cardinalities so facts can be ranked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .constraint import Constraint
from .lattice import popcount
from .record import Record
from .schema import TableSchema


@dataclass(slots=True)
class SituationalFact:
    """One discovered fact: ``t`` is in the skyline of ``(C, M)``.

    ``prominence`` is ``|σ_C(R)| / |λ_M(σ_C(R))|`` (§VII); ``None`` when
    the producing algorithm was run without prominence evaluation.
    Instances are created unscored by the discovery algorithms; the
    engine fills ``context_size`` / ``skyline_size`` in afterwards
    (mutable on purpose — ``S_t`` can hold thousands of facts per
    arrival and re-creating them measurably hurts throughput).
    """

    record: Record
    constraint: Constraint
    subspace: int
    context_size: Optional[int] = None
    skyline_size: Optional[int] = None

    @property
    def prominence(self) -> Optional[float]:
        """Cardinality ratio of context tuples to skyline tuples; larger
        means rarer, hence more prominent."""
        if self.context_size is None or not self.skyline_size:
            return None
        return self.context_size / self.skyline_size

    @property
    def pair(self) -> Tuple[Constraint, int]:
        """The raw ``(C, M)`` pair, the paper's element of ``S_t``."""
        return (self.constraint, self.subspace)

    def describe(self, schema: TableSchema) -> str:
        """Readable one-liner, e.g.
        ``(month=Feb ∧ team=Celtics, {points}) prominence=5.0``."""
        measures = ", ".join(schema.measure_names(self.subspace))
        prom = self.prominence
        suffix = f" prominence={prom:.3g}" if prom is not None else ""
        return f"({self.constraint.describe(schema)}, {{{measures}}}){suffix}"

    def to_json_dict(self, schema: TableSchema) -> dict:
        """JSON-serialisable rendering (CLI ``--json``, integrations)."""
        return {
            "tuple_id": self.record.tid,
            "tuple": self.record.as_dict(schema),
            "constraint": self.constraint.to_mapping(schema),
            "measures": list(schema.measure_names(self.subspace)),
            "context_size": self.context_size,
            "skyline_size": self.skyline_size,
            "prominence": self.prominence,
        }


def _rank_key(fact: SituationalFact):
    """Descending prominence; facts lacking prominence last, ties broken
    by more-general-constraint-first then smaller subspace."""
    prominence = fact.prominence
    return (
        -(prominence if prominence is not None else float("-inf")),
        fact.constraint.bound_count,
        popcount(fact.subspace),
    )


def _size_column(sizes) -> np.ndarray:
    """A cardinality column as ``int32`` (``None`` → ``-1``): a context
    or skyline holds at most the live rows.  The engines' own columns
    arrive as ``int32`` and pass through uncopied; only the count
    matrix read past the store's index caps is narrowed here."""
    if isinstance(sizes, np.ndarray):
        return sizes.astype(np.int32, copy=False)
    return np.fromiter(
        (-1 if size is None else size for size in sizes),
        dtype=np.int32,
        count=len(sizes),
    )


#: The position / subspace column of a set nothing was added to.
_NO_FACTS = np.empty(0, dtype=np.int32)
_NO_FACTS.flags.writeable = False


def _size_list(column: np.ndarray) -> List[Optional[int]]:
    """Inverse of :func:`_size_column`, as plain Python values."""
    sizes = column.tolist()
    if sizes and min(sizes) < 0:
        return [None if size < 0 else size for size in sizes]
    return sizes


class FactSet:
    """``S_t`` — all facts pertinent to one arriving tuple.

    Iterates in insertion order; :meth:`ranked` orders by descending
    prominence (§VII).  Supports membership tests on ``(C, M)`` pairs so
    algorithm-equivalence tests can compare outputs cheaply.

    The set has one form, the lattice walker's emission *cells*: ``C^t``
    as one constraint sequence in ``masks_top_down`` order (the order of
    ``ContextCounter.masks``), built once for the arrival, plus
    ``int32`` position / subspace columns — fact ``i`` is
    ``(cons_seq[positions[i]], subspaces[i])``.  ``svec`` emits it
    directly; the paper-ladder algorithms hand their ``(mask,
    subspace)`` pairs over through one adapter,
    ``DiscoveryAlgorithm._fact_set``.  Context / skyline cardinalities
    are two ``int32`` NumPy columns set once by :meth:`set_scores`
    (``-1`` = not scored).  Every engine creates all four columns at
    that width (``S_t`` routinely holds hundreds of facts), so none is
    cast or copied on the way in; the server folds each set and drops
    it before the next slice of its micro-batch is discovered.  Every
    read is pure.
    :class:`SituationalFact` objects are materialised lazily on first
    object-level read, and reporting (:meth:`top_k`, :meth:`prominent`)
    picks its winners off the prominence column and materialises *only
    those*: discovery emits hundreds of pairs per arrival on hot streams
    of which a handful are reported, and raw-``S_t`` consumers (benches,
    the equivalence oracle, the feed fold reading :meth:`cells` and
    :meth:`scores`) and the vectorized scoring pipeline never pay for
    objects they do not touch.
    """

    __slots__ = (
        "record",
        "_cells",
        "_context",
        "_skyline",
        "_facts",
        "_pair_cache",
    )

    def __init__(self, record: Record) -> None:
        self.record = record
        #: ``(cons_seq, positions, subspaces)`` — see :meth:`add_cells`.
        self._cells: Tuple[Sequence[Constraint], np.ndarray, np.ndarray] = (
            (),
            _NO_FACTS,
            _NO_FACTS,
        )
        self._context: Optional[np.ndarray] = None
        self._skyline: Optional[np.ndarray] = None
        self._facts: Optional[List[SituationalFact]] = None
        self._pair_cache: Optional[Set[Tuple[Constraint, int]]] = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_cells(
        self,
        cons_seq: Sequence[Constraint],
        positions: np.ndarray,
        subspaces: np.ndarray,
    ) -> None:
        """Fill an empty set with a whole arrival's pairs: fact ``i`` is
        ``(cons_seq[positions[i]], subspaces[i])``, with ``cons_seq`` the
        constraints of ``C^t`` in walk order and the two columns ``int32``
        arrays, kept as given.  Nothing per-fact is built until a reader asks
        (:meth:`cells` hands the form back to the bulk scorers)."""
        if len(self):
            raise ValueError("add_cells fills an empty fact set")
        self._cells = (cons_seq, positions, subspaces)
        self._facts = None
        self._pair_cache = None

    def cells(self):
        """The ``(cons_seq, positions, subspaces)`` form of
        :meth:`add_cells` (an empty sequence and columns for a set
        nothing was added to)."""
        return self._cells

    def scores(self):
        """The ``(context, skyline)`` cardinality columns as ``int32``
        arrays parallel to insertion order (``-1`` = not scored), or
        ``None`` for a set no scoring pass has touched.  Read-only —
        what the feed fold scatters into its standings."""
        if self._context is None:
            return None
        return self._context, self._skyline

    def set_scores(self, context_sizes, skyline_sizes) -> None:
        """Attach whole score columns (parallel to insertion order;
        integer arrays or sequences).

        The vectorized scoring path computes both cardinality columns in
        bulk; fact objects, if any were already materialised, are kept
        consistent in place.
        """
        total = len(self)
        if len(context_sizes) != total or len(skyline_sizes) != total:
            raise ValueError("score columns must cover every fact")
        self._context = _size_column(context_sizes)
        self._skyline = _size_column(skyline_sizes)
        if self._facts:
            for fact, ctx, sky in zip(
                self._facts, _size_list(self._context), _size_list(self._skyline)
            ):
                fact.context_size = ctx
                fact.skyline_size = sky

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _constraint_list(self, positions: np.ndarray) -> List[Constraint]:
        cons_seq = self._cells[0]
        return [cons_seq[i] for i in positions.tolist()]

    def iter_pairs(self) -> Iterator[Tuple[Constraint, int]]:
        """The ``(C, M)`` pairs in insertion order, *without*
        materialising fact objects."""
        _, positions, subspaces = self._cells
        return zip(self._constraint_list(positions), subspaces.tolist())

    def columns(self):
        """The parallel columns ``(constraints, subspaces,
        context_sizes, skyline_sizes)`` as lists in insertion order; the
        score columns are ``None`` on unscored sets."""
        _, positions, subspaces = self._cells
        constraints = self._constraint_list(positions)
        if self._context is None:
            return constraints, subspaces.tolist(), None, None
        return (
            constraints,
            subspaces.tolist(),
            _size_list(self._context),
            _size_list(self._skyline),
        )

    def _materialise(self) -> List[SituationalFact]:
        if self._facts is None:
            self._facts = self._build(slice(None))
        return self._facts

    def _build(self, at) -> List[SituationalFact]:
        """Fresh fact objects for the facts selected by ``at`` (a slice,
        or an ascending index array), in insertion order."""
        record = self.record
        _, positions, subspaces = self._cells
        constraints = self._constraint_list(positions[at])
        subspaces = subspaces[at].tolist()
        if self._context is None:
            return [
                SituationalFact(record, constraint, subspace)
                for constraint, subspace in zip(constraints, subspaces)
            ]
        return list(
            map(
                SituationalFact,
                itertools.repeat(record),
                constraints,
                subspaces,
                _size_list(self._context[at]),
                _size_list(self._skyline[at]),
            )
        )

    def __len__(self) -> int:
        return self._cells[1].shape[0]

    def __iter__(self) -> Iterator[SituationalFact]:
        return iter(self._materialise())

    def __contains__(self, pair: Tuple[Constraint, int]) -> bool:
        return pair in self.pairs

    @property
    def pairs(self) -> Set[Tuple[Constraint, int]]:
        """The set of raw ``(C, M)`` pairs (order-free comparison form)."""
        if self._pair_cache is None:
            self._pair_cache = set(self.iter_pairs())
        return self._pair_cache

    # ------------------------------------------------------------------
    # Reporting (§VII): winners come off the prominence column, and only
    # winners are materialised
    # ------------------------------------------------------------------
    def _prominence(self) -> np.ndarray:
        """``|σ_C| / |λ_M(σ_C)|`` per fact as ``float64`` (bit-equal to
        the objects' ``int / int`` below 2^53); ``-inf`` where a fact
        lacks prominence (unscored, or an empty skyline)."""
        prominence = np.full(len(self), -np.inf)
        if self._context is not None:
            context, skyline = self._context, self._skyline
            np.divide(
                context,
                skyline,
                out=prominence,
                where=(context >= 0) & (skyline > 0),
            )
        return prominence

    def _winners(self, chosen: np.ndarray) -> List[SituationalFact]:
        """The facts at the ascending indices ``chosen`` in insertion
        order — the already-materialised objects when there are any
        (identity is preserved), fresh ones for just these otherwise."""
        if self._facts is not None or chosen.shape[0] == len(self):
            facts = self._materialise()
            return [facts[i] for i in chosen.tolist()]
        return self._build(chosen)

    def ranked(self) -> List[SituationalFact]:
        """Facts in descending prominence; facts lacking prominence sort
        last, ties broken by more-general-constraint-first then smaller
        subspace (then insertion order)."""
        return sorted(self._materialise(), key=_rank_key)

    def prominent(self, tau: float) -> List[SituationalFact]:
        """The paper's *prominent facts*: those attaining the highest
        prominence in ``S_t``, provided it is ``≥ τ`` (ties all kept,
        in insertion order)."""
        prominence = self._prominence()
        best = prominence.max(initial=-np.inf)
        if best == -np.inf or best < tau:
            return []
        return self._winners(np.flatnonzero(prominence == best))

    def top_k(self, k: int) -> List[SituationalFact]:
        """The ``k`` most prominent facts (ties at the cut kept), in
        :meth:`ranked` order."""
        total = len(self)
        if total <= k:
            return self.ranked()
        prominence = self._prominence()
        cutoff = np.partition(prominence, total - k)[total - k]
        top = sorted(
            self._winners(np.flatnonzero(prominence >= cutoff)), key=_rank_key
        )
        # With fewer than k scored facts the cut falls among the
        # unscored ones, which rank by the tie-breakers alone and whose
        # "ties" are not kept.
        return top if cutoff != -np.inf else top[:k]
