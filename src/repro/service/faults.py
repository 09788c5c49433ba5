"""Spec/env-driven fault injection for the serving stack.

The discovery model is strictly deterministic, which makes its
fault-tolerance machinery *property-testable*: inject a fault, recover,
and the recovered engine must be indistinguishable from an unfaulted
reference run.  This module is the injection side of that loop — a tiny
registry of :class:`Fault` descriptions consulted from fixed
*hook points* in the serving code:

====================  ==================================================
Point                 Where it fires
====================  ==================================================
``worker.op``         In a process or remote shard worker, on receipt
                      of each op (``op`` context = ``"rows"`` /
                      ``"delete"`` / ``"resume"`` / ``"counters"`` /
                      ``"skyline"`` / ``"skyband"`` / ``"top_k"`` /
                      ``"replay"``, or the control ops ``"configure"``
                      / ``"stats"`` / ``"shutdown"``).
``worker.reply``      In a shard worker, just before the reply to an op
                      is sent back.
``checkpoint.write``  In :meth:`StreamServer._checkpoint` /
                      :func:`~repro.extensions.snapshot.write_snapshot`,
                      after the temp file is written but before the
                      atomic replace.
``journal.append``    In :meth:`JournalWriter.append`, around the frame
                      write.
====================  ==================================================

Actions, by point (:data:`FAULT_ACTIONS`): at the two worker points,
``"crash"`` (a hard ``os._exit`` — the crash must look like a real one,
not an orderly unwind), ``"delay"`` (sleep ``delay`` seconds, exercising
op-timeout paths) and ``"drop"`` (swallow one op or reply — the router
sees silence); at the checkpoint and journal points, ``"corrupt"``
(write a torn tail instead of the full record, then raise).

Faults are installed programmatically (:func:`install`) or from the
``REPRO_FAULTS`` environment variable (a JSON list of fault dicts),
which the CI chaos job and the CLI use; process workers additionally
receive the active fault list in their ``configure`` op, so injection
is deterministic under both ``fork`` and ``spawn`` start methods.

Every fault counts its *matching occurrences* and fires on the
``after``-th match, at most ``times`` times — "crash worker 1 on its
3rd ingest op" is ``Fault("worker.op", worker=1, op="rows",
after=3)``.  With no faults installed the hook is one ``None`` check.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

#: What a fired fault may do at each hook point (see module docstring):
#: the actions its hook acts on.  A fault its hook would fire and then
#: ignore tests nothing, so :class:`Fault` refuses it.
FAULT_ACTIONS = {
    "worker.op": ("crash", "delay", "drop"),
    "worker.reply": ("crash", "delay", "drop"),
    "checkpoint.write": ("corrupt",),
    "journal.append": ("corrupt",),
}

#: Hook points the serving code consults.
FAULT_POINTS = tuple(FAULT_ACTIONS)


@dataclass
class Fault:
    """One injectable fault (see module docstring for the vocabulary).

    Attributes
    ----------
    point:
        Hook point this fault arms (one of :data:`FAULT_POINTS`).
    action:
        One of the point's :data:`FAULT_ACTIONS`.
    worker:
        Restrict to one shard-worker index (``None`` = any worker).
    op:
        Restrict to one worker op name (``None`` = any op).
    after:
        Fire on the N-th *matching* occurrence (1-based).
    times:
        Fire at most this many times once armed (0 = every match from
        ``after`` on).
    delay:
        Sleep duration for ``action="delay"``.
    exit_code:
        Worker exit code for ``action="crash"`` (diagnosable in tests).
    """

    point: str
    action: str = "crash"
    worker: Optional[int] = None
    op: Optional[str] = None
    after: int = 1
    times: int = 1
    delay: float = 0.05
    exit_code: int = 23
    #: Matching occurrences seen / fires performed (mutable tallies).
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"choose from {FAULT_POINTS}"
            )
        if self.action not in FAULT_ACTIONS[self.point]:
            raise ValueError(
                f"fault action {self.action!r} is not honoured at "
                f"{self.point!r}; choose from {FAULT_ACTIONS[self.point]}"
            )
        if self.after < 1:
            raise ValueError("fault.after is 1-based and must be >= 1")
        if self.times < 0:
            raise ValueError("fault.times must be >= 0 (0 = unlimited)")

    # -- matching --------------------------------------------------------
    def matches(self, point: str, worker: Optional[int], op: Optional[str]) -> bool:
        if point != self.point:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        if self.op is not None and op != self.op:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc.pop("seen")
        doc.pop("fired")
        return doc


FaultLike = Union[Fault, Mapping[str, object]]


def _coerce(fault: FaultLike) -> Fault:
    if isinstance(fault, Fault):
        return fault
    return Fault(**dict(fault))


class FaultRegistry:
    """The set of armed faults plus their occurrence bookkeeping."""

    def __init__(self, faults: Iterable[FaultLike] = ()) -> None:
        self.faults: List[Fault] = [_coerce(f) for f in faults]

    def fire(
        self,
        point: str,
        worker: Optional[int] = None,
        op: Optional[str] = None,
    ) -> Optional[Fault]:
        """Record one occurrence at ``point``; return the fault to act
        on (first armed match), or ``None``."""
        hit: Optional[Fault] = None
        for fault in self.faults:
            if not fault.matches(point, worker, op):
                continue
            fault.seen += 1
            armed = fault.seen >= fault.after and (
                fault.times == 0 or fault.fired < fault.times
            )
            if armed and hit is None:
                fault.fired += 1
                hit = fault
        return hit

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON/pickle-light rendering (for worker configure specs, env)."""
        return [fault.to_dict() for fault in self.faults]

    def __len__(self) -> int:
        return len(self.faults)


#: Process-wide active registry; ``None`` keeps every hook one check.
_ACTIVE: Optional[FaultRegistry] = None

#: Environment variable holding a JSON list of fault dicts.
ENV_VAR = "REPRO_FAULTS"


def install(faults: Iterable[FaultLike]) -> FaultRegistry:
    """Arm ``faults`` process-wide; returns the live registry."""
    global _ACTIVE
    _ACTIVE = FaultRegistry(faults)
    return _ACTIVE


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultRegistry]:
    """Arm faults from :data:`ENV_VAR` if set (the CI chaos job's path).

    Raises ``ValueError`` for unparseable specs — a mistyped fault must
    fail loudly, not silently test nothing.
    """
    raw = (environ or os.environ).get(ENV_VAR)
    if not raw:
        return None
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = [doc]
    return install(doc)


def clear() -> None:
    """Disarm all faults (tests call this in teardown)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultRegistry]:
    """The armed registry, or ``None``."""
    return _ACTIVE


def active_dicts() -> List[Dict[str, object]]:
    """Armed faults as plain dicts (empty when none) — what the router
    forwards to its workers in their ``configure`` op."""
    return _ACTIVE.to_dicts() if _ACTIVE is not None else []


def fire(
    point: str, worker: Optional[int] = None, op: Optional[str] = None
) -> Optional[Fault]:
    """Module-level hook: consult the active registry (near-free when
    no faults are armed)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(point, worker=worker, op=op)
