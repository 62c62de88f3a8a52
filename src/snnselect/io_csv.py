"""CSV ingestion and serialization for microdata.

Headered, comma-separated, UTF-8, '.' decimal point.  The header is read and
checked with ``csv``; the required columns are then parsed column-wise in C
by ``np.loadtxt`` (the group column, if any, as strings).  Whenever that parse
rejects a file (a quoted, empty or malformed cell, a short row, a
whitespace-only line, no data rows), the file is read again by a row walk
whose only job is to name the offending rows: rows with unparseable required
fields are rejected, never imputed.  Non-finite values (``nan``, ``inf``) are
rejected with their column and rows, whichever path parsed them.  Floats are
written with 17 significant digits and CRLF line endings, so a write/load
round trip is bit-exact.  They are formatted one block of rows at a time,
each block gathered from slices of the Dataset's arrays, so a write holds no
copy of the whole table.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .data import Dataset, _capped
from .exceptions import DataError

__all__ = ["CsvSchema", "load_csv", "save_dataset_csv", "default_schema"]

# Characters per read of the pre-parse scan; rows per formatted write block.
_SCAN_CHARS = 1 << 20
_WRITE_ROWS = 8192


@dataclass(frozen=True)
class CsvSchema:
    outcome_column: str
    selection_column: str
    x_columns: tuple
    z_columns: tuple
    group_column: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_columns", tuple(self.x_columns))
        object.__setattr__(self, "z_columns", tuple(self.z_columns))
        names = self.required_columns()
        if self.group_column:
            names = names + (self.group_column,)
        if len(set(names)) != len(names):
            raise DataError("duplicate column in schema")
        if not self.x_columns or not self.z_columns:
            raise DataError("schema needs at least one X and one Z column")

    def required_columns(self) -> tuple:
        return (self.selection_column, self.outcome_column) + self.x_columns + self.z_columns


def default_schema(k: int, l: int) -> CsvSchema:
    return CsvSchema(
        outcome_column="y",
        selection_column="d",
        x_columns=tuple(f"x{i+1}" for i in range(k)),
        z_columns=tuple(f"z{i+1}" for i in range(l)),
    )


def load_csv(path: str | Path, schema: CsvSchema):
    """Read a Dataset (or a pair, when the schema names a group column).

    Observed outcomes are kept as-is even where d = 0; estimators mask
    through d.  Raises DataError naming the offending column or rows.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        table, groups = _parse_columns(path, schema)
    except ValueError:
        table, groups = _walk_rows(path, schema)
    _check_values(table, schema)
    if schema.group_column is None:
        return _dataset(table, schema)
    labels = sorted(set(groups))
    if len(labels) != 2:
        raise DataError(f"group column must take exactly 2 values, found {len(labels)}")
    return tuple(_dataset(table[groups == lab], schema) for lab in labels)


def _read_header(fh, schema: CsvSchema) -> list:
    """The header row's column names; ``fh`` is left at the first data line."""
    # readline, not iteration, so that fh.tell() still works afterwards
    names = next(csv.reader(iter(fh.readline, "")), None)
    if names is None:
        raise DataError("empty file")
    for col in schema.required_columns() + ((schema.group_column,) if schema.group_column else ()):
        if col not in names:
            raise DataError(f"missing column: {col}")
    return names


def _parse_columns(path: Path, schema: CsvSchema):
    """(table, groups) by one C parse per dtype; ValueError on any file it cannot take."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        # a repeated name: the last column wins, as in csv.DictReader
        index = {name: i for i, name in enumerate(_read_header(fh, schema))}
        start = fh.tell()
        # Without quotes a comma always separates cells, as it does for csv;
        # a blank-only body is left to the row walk's "empty file".
        has_rows = False
        for chunk in iter(partial(fh.read, _SCAN_CHARS), ""):
            if '"' in chunk:
                raise ValueError("quoted cell")
            has_rows = has_rows or bool(chunk.strip("\r\n"))
        if not has_rows:
            raise ValueError("no data rows")
        fh.seek(start)
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                           usecols=[index[c] for c in schema.required_columns()])
        groups = None
        if schema.group_column:
            fh.seek(start)
            groups = np.loadtxt(fh, dtype=str, delimiter=",", comments=None, ndmin=1,
                                usecols=index[schema.group_column])
    return table, groups


def _walk_rows(path: Path, schema: CsvSchema):
    """(table, groups) cell by cell; DataError naming every unparseable row."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.DictReader(fh, fieldnames=_read_header(fh, schema)))
    if not rows:
        raise DataError("empty file")

    bad: list[str] = []
    table, groups = [], []
    for i, row in enumerate(rows, start=1):
        try:
            dval = float(row[schema.selection_column])
        except (TypeError, ValueError):
            bad.append(f"unparseable selection value at row {i}")
            continue
        if dval not in (0.0, 1.0):
            bad.append(f"non-binary selection value at row {i}")
            continue
        try:
            values = [float(row[c]) for c in schema.required_columns()[1:]]
        except (TypeError, ValueError):
            bad.append(f"unparseable value at row {i}")
            continue
        if schema.group_column:
            if row[schema.group_column] is None:  # a short row
                bad.append(f"missing group value at row {i}")
                continue
            groups.append(row[schema.group_column])
        table.append([dval, *values])
    if bad:
        raise DataError("; ".join(_capped(bad)))
    return np.asarray(table), np.asarray(groups) if schema.group_column else None


def _check_values(table: np.ndarray, schema: CsvSchema) -> None:
    """Reject non-binary selection values, then non-finite values, by row."""
    rows = np.flatnonzero((table[:, 0] != 0.0) & (table[:, 0] != 1.0)) + 1
    if rows.size:
        raise DataError("; ".join(_capped([f"non-binary selection value at row {i}" for i in rows])))
    finite = np.isfinite(table)
    if finite.all():
        return
    messages = []
    for j, name in enumerate(schema.required_columns()):
        rows = np.flatnonzero(~finite[:, j]) + 1
        if rows.size:
            listed = ", ".join(_capped([str(i) for i in rows]))
            messages.append(f"non-finite value in column {name} at row {listed}")
    raise DataError("; ".join(messages))


def _dataset(table: np.ndarray, schema: CsvSchema) -> Dataset:
    # contiguous copies, laid out as a row-by-row parse would lay them out
    k = len(schema.x_columns)
    return Dataset(d=table[:, 0].copy(), y=table[:, 1].copy(),
                   X=table[:, 2:2 + k].copy(), Z=table[:, 2 + k:].copy())


def save_dataset_csv(path: str | Path, data: Dataset, schema: CsvSchema | None = None) -> None:
    schema = schema or default_schema(data.k, data.l)
    if len(schema.x_columns) != data.k or len(schema.z_columns) != data.l:
        raise DataError("schema does not match dataset dimensions")
    # "%.17g" is format(x, ".17g"); CRLF is csv.writer's line terminator
    row = ",".join(["%.17g"] * len(schema.required_columns())) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(schema.required_columns())
        for start in range(0, data.n, _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            block = np.column_stack((data.d[rows], data.y[rows], data.X[rows], data.Z[rows]))
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
