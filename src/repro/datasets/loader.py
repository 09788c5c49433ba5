"""CSV loading/saving of row streams for a given schema.

Lets users replay their own data (e.g. real NBA gamelogs in the paper's
layout) through the engine.  Dimension values stay strings; measures are
parsed as floats (ints when exact).
"""

from __future__ import annotations

import csv
from typing import Dict, Iterator, List

from ..core.schema import SchemaError, TableSchema


def _bad_cell(path: str, line: int, column: str, cell) -> SchemaError:
    where = f"{path}:{line}: {column}"
    if cell is None:
        return SchemaError(f"{where}: missing (the row is short)")
    return SchemaError(f"{where}: not a number: {cell!r}")


def load_rows(path: str, schema: TableSchema) -> Iterator[Dict[str, object]]:
    """Yield rows from a CSV file with a header line.

    Raises :class:`SchemaError` if the header is missing any schema
    attribute, and at the first row that is short of a schema attribute
    or holds a measure that is not a number (naming the file, line and
    column); extra columns are ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = set(reader.fieldnames or ())
        missing = [
            a for a in (*schema.dimensions, *schema.measures) if a not in header
        ]
        if missing:
            raise SchemaError(f"CSV {path!r} is missing columns: {missing}")
        for raw in reader:
            row: Dict[str, object] = {d: raw[d] for d in schema.dimensions}
            if None in row.values():
                short = next(d for d, cell in row.items() if cell is None)
                raise _bad_cell(path, reader.line_num, short, None)
            for m in schema.measures:
                cell = raw[m]
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    raise _bad_cell(path, reader.line_num, m, cell) from None
                row[m] = int(value) if value.is_integer() else value
            yield row


def save_rows(path: str, schema: TableSchema, rows: List[Dict[str, object]]) -> None:
    """Write rows to CSV in schema attribute order."""
    fields = [*schema.dimensions, *schema.measures]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
