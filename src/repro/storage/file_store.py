"""File-backed skyline store — the paper's file-based implementation (§VI-C).

Each non-empty ``µ_{C,M}`` is one binary file.  When an algorithm visits
a pair, the whole file is read into a memory buffer; inserts/deletes act
on the buffer; when the algorithm finishes with the pair, the file is
overwritten with the buffer's content.  A tiny write-back cache of the
single *open* pair mirrors that access pattern: algorithms touch pairs
one at a time, so the cache flushes the previous pair whenever a new one
is opened.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.constraint import Constraint
from ..core.record import Record
from ..core.schema import TableSchema
from .base import PairKey, SkylineStore
from .codec import DimensionInterner, RecordCodec


class FileSkylineStore(SkylineStore):
    """One binary file per non-empty ``(C, M)`` pair.

    Parameters
    ----------
    schema:
        Needed by the codec to fix record width.
    directory:
        Where pair files live.  When omitted a temporary directory is
        created and removed on :meth:`close` / :meth:`clear`.
    """

    def __init__(
        self,
        schema: TableSchema,
        directory: Optional[str] = None,
        counters=None,
    ) -> None:
        super().__init__(counters)
        self.schema = schema
        self._own_dir = directory is None
        self.directory = directory or tempfile.mkdtemp(prefix="repro-mu-")
        os.makedirs(self.directory, exist_ok=True)
        self._codec = RecordCodec(schema, DimensionInterner())
        self._paths: Dict[PairKey, str] = {}
        self._next_file_id = 0
        self._total = 0
        # Write-back buffer for the currently open pair (§VI-C access model).
        self._open_key: Optional[PairKey] = None
        self._open_records: Dict[int, Record] = {}
        self._open_dirty = False

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _path_for(self, key: PairKey) -> str:
        path = self._paths.get(key)
        if path is None:
            path = os.path.join(self.directory, f"mu_{self._next_file_id:08x}.bin")
            self._next_file_id += 1
            self._paths[key] = path
        return path

    def _open_pair(self, key: PairKey) -> Dict[int, Record]:
        """Make ``key`` the open pair, flushing the previous one."""
        if self._open_key == key:
            return self._open_records
        self.flush()
        self._open_key = key
        self._open_records = {}
        self._open_dirty = False
        path = self._paths.get(key)
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                buffer = fh.read()
            self.counters.file_reads += 1
            for record in self._codec.decode(buffer):
                self._open_records[record.tid] = record
        return self._open_records

    def flush(self) -> None:
        """Write the open pair back to its file (if it changed)."""
        if self._open_key is None or not self._open_dirty:
            self._open_key = None
            self._open_records = {}
            self._open_dirty = False
            return
        key = self._open_key
        records = list(self._open_records.values())
        path = self._path_for(key)
        if records:
            with open(path, "wb") as fh:
                fh.write(self._codec.encode(records))
            self.counters.file_writes += 1
        else:
            if os.path.exists(path):
                os.remove(path)
                self.counters.file_writes += 1
            self._paths.pop(key, None)
        self._open_key = None
        self._open_records = {}
        self._open_dirty = False

    # ------------------------------------------------------------------
    # SkylineStore interface
    # ------------------------------------------------------------------
    def get(self, constraint: Constraint, subspace: int) -> List[Record]:
        key = (constraint, subspace)
        if self._open_key != key and key not in self._paths:
            return []  # empty pair: no file, no read (the §VI-C fast path)
        return list(self._open_pair(key).values())

    def insert(self, constraint: Constraint, subspace: int, record: Record) -> None:
        bucket = self._open_pair((constraint, subspace))
        if record.tid not in bucket:
            bucket[record.tid] = record
            self._total += 1
            self.counters.stored_tuples = self._total
            self._open_dirty = True

    def delete(self, constraint: Constraint, subspace: int, record: Record) -> None:
        key = (constraint, subspace)
        if self._open_key != key and key not in self._paths:
            return
        bucket = self._open_pair(key)
        if record.tid in bucket:
            del bucket[record.tid]
            self._total -= 1
            self.counters.stored_tuples = self._total
            self._open_dirty = True

    def contains(self, constraint: Constraint, subspace: int, record: Record) -> bool:
        key = (constraint, subspace)
        if self._open_key != key and key not in self._paths:
            return False
        return record.tid in self._open_pair(key)

    def iter_pairs(self) -> Iterator[Tuple[PairKey, List[Record]]]:
        self.flush()
        for key in list(self._paths):
            records = self.get(*key)
            if records:
                yield key, records

    def stored_tuple_count(self) -> int:
        return self._total

    def approx_bytes(self) -> int:
        """On-disk bytes across all pair files (plus the open buffer)."""
        self.flush()
        total = 0
        for path in self._paths.values():
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def clear(self) -> None:
        self._open_key = None
        self._open_records = {}
        self._open_dirty = False
        for path in self._paths.values():
            if os.path.exists(path):
                os.remove(path)
        self._paths.clear()
        self._total = 0
        self.counters.stored_tuples = 0

    def close(self) -> None:
        """Flush and, for store-owned directories, remove everything."""
        self.flush()
        if self._own_dir and os.path.isdir(self.directory):
            shutil.rmtree(self.directory, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:  # no class: a finalizer must not raise
            pass
