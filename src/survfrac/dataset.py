"""Right-censored survival samples: CSV ingestion, validation, grouping."""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DataError",
    "SchemaError",
    "RowError",
    "EmptyEventsError",
    "parse_csv",
    "split_by_group",
]


class DataError(ValueError):
    """Base class for ingestion and validation failures."""


class SchemaError(DataError):
    """A required column is missing from the header."""


class RowError(DataError):
    """A data row failed to parse or violated a field invariant."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyEventsError(DataError):
    """A sample contains no observed events, so nothing is estimable."""


@dataclass(frozen=True)
class Dataset:
    """An ordered right-censored sample.

    ``times[i]`` is the observed follow-up time (event or censoring,
    whichever came first) and ``status[i]`` is 1 for an observed event,
    0 for right censoring.  ``groups`` is None for ungrouped data.

    Estimation requires at least one event; ingestion and curve fitting
    enforce that, while the container itself also admits all-censored
    samples (they arise transiently in simulation and resampling).
    """

    times: np.ndarray
    status: np.ndarray
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        status = np.ascontiguousarray(self.status, dtype=np.int64)
        times.flags.writeable = False
        status.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "status", status)
        if times.size == 0:
            raise DataError("dataset is empty")
        if times.shape != status.shape:
            raise DataError("times and status have different lengths")
        if not np.isfinite(times).all() or (times < 0).any():
            raise DataError("times must be finite and nonnegative")
        if not ((status == 0) | (status == 1)).all():
            raise DataError("status values must be 0 or 1")
        if self.groups is not None and len(self.groups) != times.size:
            raise DataError("groups and times have different lengths")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(self.status.sum())


@contextmanager
def _text_stream(source):
    """A text stream over a path, bytes, or file-like source that closes
    only what it opens: a caller's binary handle is detached, not closed."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            yield stream
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield stream
        finally:
            stream.detach()


def parse_csv(
    source,
    time_col: str = "time",
    status_col: str = "status",
    group_col: str | None = None,
) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    Columns are located by name in the header row, not by position.  Row
    numbering in error messages starts at 1 for the first data row; blank
    rows are skipped but still counted.

    Each needed column's cells are streamed into a list of their own and
    converted and checked as whole columns; only when a check fails are
    the cells walked row by row, to name the first bad row.

    Raises
    ------
    SchemaError
        A named column is absent from the header.
    RowError
        A cell fails to parse or violates a field invariant.
    EmptyEventsError
        No row has status 1.
    """
    with _text_stream(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("input has no header row") from None
        header = [h.strip() for h in header]
        index: dict[str, int] = {}
        for name in (time_col, status_col) + ((group_col,) if group_col is not None else ()):
            if name not in header:
                raise SchemaError(f"column {name!r} not found in header {header}")
            index[name] = header.index(name)

        width = len(header)
        ti, si = index[time_col], index[status_col]
        gi = index[group_col] if group_col is not None else None
        t_cells: list[str] = []
        s_cells: list[str] = []
        g_cells: list[str] | None = [] if gi is not None else None
        blank: list[int] = []
        short = None
        for row_no, row in enumerate(reader, start=1):
            # a row whose time cell holds text is neither blank nor short
            if len(row) < width or not row[ti].strip():
                if all(cell.strip() == "" for cell in row):
                    blank.append(row_no)
                    continue
                if len(row) < width:
                    short = RowError(row_no, f"expected {width} cells, got {len(row)}")
                    break
            t_cells.append(row[ti])
            s_cells.append(row[si])
            if g_cells is not None:
                g_cells.append(row[gi])

    columns = _convert_columns(t_cells, s_cells, g_cells)
    if columns is None:
        columns = _convert_rows(t_cells, s_cells, g_cells, blank, group_col)
    if short is not None:
        raise short
    times, status, groups = columns
    if times.size == 0:
        raise DataError("input has no data rows")
    if not status.any():
        raise EmptyEventsError("input contains no observed events")
    return Dataset(times=times, status=status, groups=groups)


def _convert_columns(t_cells, s_cells, g_cells):
    """Whole-column conversion and checks: ``(times, status, groups)``, or
    None when some cell fails them.

    ``float`` and ``int`` skip the surrounding whitespace that
    ``str.strip`` removes, except the separators U+001C to U+001F; a cell
    padded with those fails here and is converted by
    :func:`_convert_rows`, to the same value.
    """
    try:
        times = np.array(list(map(float, t_cells)), dtype=float)
        status = np.array(list(map(int, s_cells)), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not (np.isfinite(times).all() and (times >= 0).all()
            and ((status == 0) | (status == 1)).all()):
        return None
    groups = None
    if g_cells is not None:
        groups = tuple(map(str.strip, g_cells))
        if "" in groups:
            return None
    return times, status, groups


def _convert_rows(t_cells, s_cells, g_cells, blank, group_col):
    """Row-by-row conversion of the cells, as ``(times, status, groups)``:
    the first bad row raises its :class:`RowError`.  ``blank`` lists the
    skipped row numbers, which count towards the numbering of the rest.
    """
    skipped = set(blank)
    row_nos = (r for r in count(1) if r not in skipped)
    cells = zip(t_cells, s_cells, g_cells if g_cells is not None else repeat(None))
    times: list[float] = []
    status: list[int] = []
    for row_no, (t_cell, s_cell, g_cell) in zip(row_nos, cells):
        t_text = t_cell.strip()
        s_text = s_cell.strip()
        try:
            t = float(t_text)
        except ValueError:
            raise RowError(row_no, f"unparsable time {t_text!r}") from None
        try:
            s = int(s_text)
        except ValueError:
            raise RowError(row_no, f"unparsable status {s_text!r}") from None
        if not np.isfinite(t) or t < 0:
            raise RowError(row_no, f"time must be finite and nonnegative, got {t_text}")
        if s not in (0, 1):
            raise RowError(row_no, f"status must be 0 or 1, got {s_text}")
        if g_cell is not None and g_cell.strip() == "":
            raise RowError(row_no, f"empty group cell in column {group_col!r}")
        times.append(t)
        status.append(s)
    groups = None if g_cells is None else tuple(g.strip() for g in g_cells)
    return np.asarray(times, dtype=float), np.asarray(status, dtype=np.int64), groups


def split_by_group(ds: Dataset) -> dict[str, Dataset]:
    """Partition a grouped dataset into one sub-dataset per group label.

    Group order follows first appearance; rows keep their order within a
    group.  Every sub-dataset must satisfy the Dataset invariants; a group
    with zero events raises :class:`EmptyEventsError` naming the group.
    """
    if ds.groups is None:
        raise DataError("dataset has no group labels")
    # codes number the labels in order of first appearance; a dict keeps
    # every label exact, where numpy's fixed-width strings would drop
    # trailing NULs
    codes: dict[str, int] = {}
    code = np.fromiter((codes.setdefault(g, len(codes)) for g in ds.groups),
                       dtype=np.intp, count=len(ds))
    labels = list(codes)
    events = np.bincount(code, weights=ds.status, minlength=len(labels))
    for label, n_events in zip(labels, events):
        if n_events == 0:
            raise EmptyEventsError(f"group {label!r} contains no observed events")
    rows = np.argsort(code, kind="stable")
    counts = np.bincount(code, minlength=len(labels))
    ends = np.cumsum(counts)
    starts = ends - counts
    return {
        label: Dataset(times=ds.times[rows[a:b]], status=ds.status[rows[a:b]])
        for label, a, b in zip(labels, starts.tolist(), ends.tolist())
    }
