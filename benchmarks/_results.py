"""Machine-readable bench results — the ``BENCH_PR*.json`` sinks.

Each vectorization bench merges its per-stage marginal latencies into
one JSON file so the perf trajectory is tracked across PRs as data, not
only prose.  The file is read-modify-written so the benches can run in
any order or subset; CI uploads the files as artifacts.

The default sink is ``BENCH_PR3.json`` (the single-engine stage
latencies); benches covering a different layer pass ``filename`` —
``bench_service.py`` writes the service-throughput numbers to
``BENCH_PR4.json``.

Layout::

    {
      "meta":    {"n": 3000, "d": 4, "m": 4, "distribution": "..."},
      "scoring": {"columnar_ms": ..., "no_score_ms": ...},
      "guard":   {"svec_ms": ..., "baselinevec_ms": ..., ...}
    }
"""

import json
import os
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: Default sink next to the repo root; override with REPRO_BENCH_RESULTS.
_DEFAULT = _ROOT / "BENCH_PR3.json"


def results_path(filename: str = None) -> Path:
    if filename is not None:
        return _ROOT / filename
    return Path(os.environ.get("REPRO_BENCH_RESULTS", str(_DEFAULT)))


def update_results(section: str, payload: dict, filename: str = None) -> Path:
    """Merge ``payload`` under ``section`` in the results file."""
    path = results_path(filename)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    existing = data.get(section)
    if isinstance(existing, dict):
        existing.update(payload)
    else:
        data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
