"""Core data model: schema, records, constraints, dominance, skylines,
prominence, and the :class:`FactDiscoverer` engine."""

from .config import DiscoveryConfig
from .constraint import Constraint, constraint_for_record, satisfied_constraints
from .dominance import ComparisonOutcome, compare, dominates
from .engine import FactDiscoverer
from .facts import FactSet, SituationalFact
from .prominence import ContextCounter, select_reportable
from .record import Record, Table
from .schema import MAX, MIN, SchemaError, TableSchema
from .skyline import contextual_skyline, is_contextual_skyline_tuple, skyline_bnl

__all__ = [
    "DiscoveryConfig",
    "Constraint",
    "constraint_for_record",
    "satisfied_constraints",
    "ComparisonOutcome",
    "compare",
    "dominates",
    "FactDiscoverer",
    "FactSet",
    "SituationalFact",
    "ContextCounter",
    "select_reportable",
    "Record",
    "Table",
    "MAX",
    "MIN",
    "SchemaError",
    "TableSchema",
    "contextual_skyline",
    "is_contextual_skyline_tuple",
    "skyline_bnl",
]
