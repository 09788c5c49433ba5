"""Approximate memory accounting for skyline stores (Fig. 10a).

The paper plots resident JVM heap; the Python analogue we report is the
deep size of the store's containers and records via ``sys.getsizeof``
with memoisation over shared ``Record`` objects (stores hold references,
so a record stored at many pairs is counted once plus one pointer per
extra reference — matching how the JVM heap would behave).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Set

_POINTER_BYTES = 8


def record_bytes(record) -> int:
    """Deep size of one :class:`~repro.core.record.Record`."""
    total = sys.getsizeof(record)
    for container in (record.dims, record.values, record.raw):
        total += sys.getsizeof(container)
        for item in container:
            total += sys.getsizeof(item)
    return total


def approximate_store_bytes(entries: Iterable[tuple]) -> int:
    """Approximate bytes held by a store.

    ``entries`` yields ``(key, records)`` pairs.  Each distinct record is
    charged its deep size once; every additional reference costs one
    pointer, as do keys.
    """
    seen: Set[int] = set()
    total = 0
    for key, records in entries:
        total += sys.getsizeof(key) + _POINTER_BYTES
        for record in records:
            total += _POINTER_BYTES
            if id(record) not in seen:
                seen.add(id(record))
                total += record_bytes(record)
    return total


#: ``/proc/self/status`` fields read by :func:`process_rss_mb`.
_RSS_FIELDS = {"VmRSS:": "rss_mb", "VmHWM:": "peak_rss_mb"}


def process_rss_mb() -> Dict[str, float]:
    """This process's resident set size now (``rss_mb``) and at its
    peak (``peak_rss_mb``), in MiB, read from ``/proc/self/status``
    (``VmRSS`` / ``VmHWM``) at call time — the whole process, import
    floor included, not a deep size.  Empty where ``/proc`` is
    missing."""
    try:
        with open("/proc/self/status") as status:
            lines = status.readlines()
    except OSError:
        return {}
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in _RSS_FIELDS:
            out[_RSS_FIELDS[parts[0]]] = int(parts[1]) / 1024
    return out
