"""Discovery configuration knobs (paper §VI-A parameters).

``d̂`` (``max_bound_dims``) caps the number of bound dimension attributes
in a constraint and ``m̂`` (``max_measure_dims``) caps measure-subspace
dimensionality — both exist to avoid over-specific, trivial facts.  ``τ``
(``tau``) is the prominence threshold of §VII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def effective_bound_cap(n_dimensions: int, max_bound_dims: Optional[int]) -> int:
    """``min(d̂, n)`` — the bound-attribute count actually reachable.

    The single definition behind every ``C^t`` skeleton: the algorithms'
    ``masks_top_down``, ``satisfied_constraints``, the context counters,
    and the engine's constraint-sharing guard all derive their lattice
    truncation from this, so the caps cannot drift apart.
    """
    if max_bound_dims is None:
        return n_dimensions
    return min(n_dimensions, max_bound_dims)


def check_reporting_policy(
    tau: Optional[float], top_k: Optional[int], prefix: str = ""
) -> None:
    """The reporting-policy rules, ``τ >= 1`` and ``top_k >= 1``
    (``None`` leaves either unset): one check for the engine config,
    the feed spec and every feed read.  ``prefix`` names the section in
    the message (``"feeds."``)."""
    if tau is not None and tau < 1:
        raise ValueError(f"{prefix}tau is a cardinality ratio; it must be >= 1")
    if top_k is not None and top_k < 1:
        raise ValueError(f"{prefix}top_k must be >= 1")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Tunable parameters shared by every discovery algorithm.

    Attributes
    ----------
    max_bound_dims:
        The paper's ``d̂``: constraints may bind at most this many
        dimension attributes.  ``None`` means unrestricted (all ``2^d``).
    max_measure_dims:
        The paper's ``m̂``: measure subspaces may contain at most this
        many attributes.  ``None`` means unrestricted.
    tau:
        Prominence threshold ``τ`` (§VII): a fact is *prominent* only if
        ``|σ_C(R)| / |λ_M(σ_C(R))| ≥ tau``.  ``None`` disables
        thresholding (all facts reported).
    top_k:
        When set, :meth:`repro.core.engine.FactDiscoverer.observe`
        returns only the ``k`` most prominent facts (ties kept).

    ``tau`` and ``top_k`` are alternatives, not a conjunction: with both
    set, ``tau`` wins and ``top_k`` is ignored — the reporting policy
    (:func:`repro.core.prominence.select_reportable`) returns the
    *prominent facts* alone (the ties at the maximum prominence, if it
    reaches ``τ``), however many or few they are.
    """

    max_bound_dims: Optional[int] = None
    max_measure_dims: Optional[int] = None
    tau: Optional[float] = None
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_bound_dims is not None and self.max_bound_dims < 0:
            raise ValueError("max_bound_dims must be >= 0")
        if self.max_measure_dims is not None and self.max_measure_dims < 1:
            raise ValueError("max_measure_dims must be >= 1")
        check_reporting_policy(self.tau, self.top_k)

    def effective_bound_cap(self, n_dimensions: int) -> int:
        """``min(d̂, n)`` for an ``n``-dimensional schema (see
        :func:`effective_bound_cap`)."""
        return effective_bound_cap(n_dimensions, self.max_bound_dims)

    def allows_constraint_mask(self, mask: int) -> bool:
        """True iff a constraint with bound-position ``mask`` respects
        ``d̂``."""
        if self.max_bound_dims is None:
            return True
        return bin(mask).count("1") <= self.max_bound_dims

    def allows_subspace(self, mask: int) -> bool:
        """True iff a non-empty measure subspace ``mask`` respects
        ``m̂``."""
        if mask == 0:
            return False
        if self.max_measure_dims is None:
            return True
        return bin(mask).count("1") <= self.max_measure_dims
