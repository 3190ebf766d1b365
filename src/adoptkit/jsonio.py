"""Deterministic JSON/CSV serialization and the CSV series loader.

JSON output is canonical: keys sorted, floats rounded to at most 10
significant digits then rendered by the shortest round-trip repr, non-finite
values mapped to null. Matrices serialize row-major with explicit dimensions.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .estimate import TimeSeries

FLOAT_SIG_DIGITS = 10


def _round_float(x: float):
    if not math.isfinite(x):
        return None
    if x == 0.0:
        return 0.0
    return float(f"{x:.{FLOAT_SIG_DIGITS}g}")


def canonicalize(obj):
    """Recursively convert to JSON-safe primitives with capped float precision."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _round_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            r, c = obj.shape
            return {
                "rows": r,
                "cols": c,
                "data": [canonicalize(float(v)) for v in obj.ravel(order="C")],
            }
        return [canonicalize(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonicalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise ValidationError(f"cannot serialize object of type {type(obj)!r}")


def dumps_canonical(obj) -> str:
    return json.dumps(canonicalize(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, its newlines as stored; a file that is not
    UTF-8 raises ParseError naming it."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a UTF-8 file: {path} (byte {exc.start})") from None


def _rows(path, columns) -> list[tuple[int, dict]]:
    """(file row number, row) of each data row of a headered, UTF-8 CSV
    file; raises ParseError unless the file has ``columns`` and a data row."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    if reader.fieldnames is None:
        raise ParseError("empty file, header row required")
    for col in columns:
        if col not in reader.fieldnames:
            raise ParseError(f"missing column {col!r} in header {reader.fieldnames}")
    rows = list(enumerate(reader, start=2))
    if not rows:
        raise ParseError("no data rows")
    return rows


def load_csv(path, t_col: str = "t", y_col: str = "y", dow_col: str | None = None) -> TimeSeries:
    """Load a TimeSeries from a headered, decimal-point, UTF-8 CSV file;
    ``TimeSeries`` checks the values (times that do not strictly increase
    raise NonMonotoneTime)."""
    columns = [(t_col, float), (y_col, float)] + ([(dow_col, int)] if dow_col else [])
    parsed = []
    for i, row in _rows(path, [col for col, _ in columns]):
        cells = []
        for col, kind in columns:
            try:
                cells.append(kind(row[col]))
            except (TypeError, ValueError):
                raise ParseError(f"invalid value {row.get(col)!r}", row=i, column=col) from None
        parsed.append(cells)
    times, values, *dows = zip(*parsed)
    return TimeSeries(np.asarray(times), np.asarray(values), dow=np.asarray(dows[0]) if dow_col else None)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then each row of ``rows`` to ``path`` as UTF-8
    CSV in the csv module's default dialect (\\r\\n line ends)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(series: TimeSeries, path, t_col: str = "t", y_col: str = "y") -> None:
    """Write a TimeSeries as CSV; round-trips through load_csv byte-stably."""
    header = [t_col, y_col]
    cols = [[repr(float(v)) for v in series.times], [repr(float(v)) for v in series.values]]
    if series.dow is not None:
        header.append("dow")
        cols.append([str(int(d)) for d in series.dow])
    write_csv(path, header, zip(*cols))


def load_task_economy(path, c_time: float = 1.0, c_fric: float = 1.0):
    """Load a TaskEconomy from a CSV with columns v, c_f, tau, phi, w."""
    from .econ import Task, TaskEconomy

    columns = ("v", "c_f", "tau", "phi", "w")
    tasks = []
    for i, row in _rows(path, columns):
        try:
            tasks.append(Task(*(float(row[col]) for col in columns)))
        except (TypeError, ValueError):
            raise ParseError("invalid task row", row=i) from None
    return TaskEconomy(tuple(tasks), c_time=c_time, c_fric=c_fric)


def save_tidy_curves(path, series: TimeSeries, fitted: dict[str, np.ndarray]) -> None:
    """Tidy (series, t, value) CSV for external plotting: observed plus fits."""
    times = [repr(float(t)) for t in series.times]
    named = [("observed", series.values)] + [(name, fitted[name]) for name in sorted(fitted)]
    write_csv(path, ["series", "t", "value"],
              ([name, t, repr(float(v))] for name, vals in named for t, v in zip(times, vals)))
