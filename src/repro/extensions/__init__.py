"""Extensions beyond the paper's core: the aggregate group spec and
snapshot persistence (anchored on the §VIII future-work list).  Sliding
windows and aggregation themselves are :mod:`repro.api.middleware`
layers, composed through :func:`repro.api.open_engine`."""

from ..api.spec import GroupSpec
from .snapshot import load_engine, save_engine

__all__ = [
    "GroupSpec",
    "save_engine",
    "load_engine",
]
