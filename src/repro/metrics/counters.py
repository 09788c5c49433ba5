"""Operation counters used by the paper's work-done plots (Fig. 10–11).

Every algorithm and store accepts an optional :class:`OpCounters` sink;
benches read it to report the number of tuple comparisons (Fig. 11a),
traversed constraints (Fig. 11b), stored skyline tuples (Fig. 10b), and
file I/O operations (§VI-C discussion).

Counting convention (scalar *and* vectorized algorithms)
--------------------------------------------------------
``comparisons`` counts *logical* tuple-pair dominance resolutions, not
Python-level calls, so the numbers stay comparable across the ladder:

* scalar algorithms increment once per ``(t, t')`` dominance test at
  each lattice site where the pair is examined (re-examining a stored
  tuple at another constraint counts again, as in the paper's figures);
* vectorized algorithms compute the same resolutions inside one NumPy
  sweep; they credit the counter with the number of pairs the sweep
  resolved *per consuming site* — ``baselinevec`` adds ``n`` per measure
  subspace (mirroring BaselineSeq's per-subspace scan) and ``svec`` adds
  the scanned ``µ`` bucket size at every visited constraint (mirroring
  STopDown exactly).

``traversed_constraints`` counts lattice nodes *visited* across all
measure subspaces (one visit = one count, as in Fig. 11b).  Sharing
algorithms do not count constraints they skip as pruned; the baselines
count the surviving constraints they emit.  A de-vectorisation of the
NumPy paths therefore never shows up as a counter discontinuity; the
tier-1 spies that count the walk's calls catch it instead
(``tests/test_columnar.py::TestNoPythonPerRow`` and
``::TestOneWritePerArrival``, ``tests/test_prominence.py::TestOneScoringCall``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class OpCounters:
    """Mutable tally of algorithm work.

    ``comparisons`` counts *tuple-pair* dominance comparisons;
    ``traversed_constraints`` counts lattice nodes visited across all
    measure subspaces (one visit = one count, as in Fig. 11b).
    """

    comparisons: int = 0
    traversed_constraints: int = 0
    stored_tuples: int = 0
    file_reads: int = 0
    file_writes: int = 0

    def reset(self) -> None:
        """Zero every counter (used between bench measurements)."""
        self.comparisons = 0
        self.traversed_constraints = 0
        self.stored_tuples = 0
        self.file_reads = 0
        self.file_writes = 0

    def snapshot(self) -> Dict[str, int]:
        """Immutable copy for reporting."""
        return {
            "comparisons": self.comparisons,
            "traversed_constraints": self.traversed_constraints,
            "stored_tuples": self.stored_tuples,
            "file_reads": self.file_reads,
            "file_writes": self.file_writes,
        }

    def __add__(self, other: "OpCounters") -> "OpCounters":
        return OpCounters(
            comparisons=self.comparisons + other.comparisons,
            traversed_constraints=self.traversed_constraints + other.traversed_constraints,
            stored_tuples=self.stored_tuples + other.stored_tuples,
            file_reads=self.file_reads + other.file_reads,
            file_writes=self.file_writes + other.file_writes,
        )
