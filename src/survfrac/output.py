"""Shared output document: one model, rendered as table, CSV, or JSON."""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = ["Section", "OutputDocument", "render", "FORMATS"]

FORMATS = ("table", "csv", "json")


@dataclass
class Section:
    """One table of results, held by column.

    ``columns`` maps each column name, in display order, to its cells: a
    sequence of scalars, or a 1-D numpy array, whose cells are the Python
    scalars ``tolist()`` gives.  Every column has the same length.
    """

    columns: dict[str, Sequence]
    label: str | None = None


@dataclass
class OutputDocument:
    """Renderer-independent result of one CLI command.

    Metadata records everything needed to reproduce and interpret the run:
    tool version, seed, grid, band level, and the conventions in effect.
    Infinite values serialize as the string "inf" in every format; absent
    values are null/empty.
    """

    command: str
    metadata: dict
    sections: list[Section] = field(default_factory=list)


def _plain(value):
    """JSON-safe scalar: inf -> 'inf', NaN -> None, numpy scalars -> python."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(val) for val in obj]
    return _plain(obj)


def to_json(doc: OutputDocument) -> str:
    """``json.dumps(indent=2, allow_nan=False)`` of the document, dumped
    with no sections and each section with no rows, which are then filled
    in: a section's rows are joined from its columns' JSON texts."""
    sections = []
    for sec in doc.sections:
        row = ",\n".join("          " + json.dumps(name).replace("%", "%%") + ": %s"
                         for name in sec.columns)
        rows = "\n        },\n        {\n".join(
            map(row.__mod__, zip(*map(_json_texts, sec.columns.values()))))
        shell = json.dumps({"label": sec.label, "columns": list(sec.columns), "rows": []},
                           indent=2, allow_nan=False).replace("\n", "\n    ")
        if rows:
            # the shell ends in '[]\n    }', the empty rows and the section's end
            shell = f"{shell[:-8]}[\n        {{\n{rows}\n        }}\n      ]\n    }}"
        sections.append("    " + shell)
    text = json.dumps({"command": doc.command, "metadata": _sanitize(doc.metadata),
                       "sections": []}, indent=2, allow_nan=False)
    if sections:
        # the text ends in '[]\n}', the empty sections and the document's end
        text = text[:-4] + "[\n" + ",\n".join(sections) + "\n  ]\n}"
    return text + "\n"


def _cell_text(value, human: bool) -> str:
    value = _plain(value)
    if value is None:
        return "-" if human else ""
    if isinstance(value, bool):
        return ("yes" if value else "no") if human else ("true" if value else "false")
    if isinstance(value, float):
        return f"{value:.6g}" if human else repr(value)
    return str(value)


def _column_texts(cells, human: bool) -> list[str]:
    """``[_cell_text(v, human) for v in cells]``, a whole column at a time
    for numeric arrays."""
    if isinstance(cells, np.ndarray):
        kind = cells.dtype.kind
        values = cells.tolist()
        if kind == "f":
            texts = list(map("{:.6g}".format if human else float.__repr__, values))
            for i in np.flatnonzero(np.isnan(cells)).tolist():
                texts[i] = "-" if human else ""
            return texts
        if kind in "iu":
            return list(map(int.__repr__, values))
        if kind == "b":
            words = ("no", "yes") if human else ("false", "true")
            return [words[v] for v in values]
        cells = values
    return [_cell_text(v, human) for v in cells]


def _json_texts(cells) -> list[str]:
    """The JSON text of each value of a column, as ``json.dumps`` with
    ``indent=2`` writes it in a row: a numeric array's are its CSV texts
    but for NaN as null and infinities as strings."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "iubf":
        texts = _column_texts(cells, human=False)
        if cells.dtype.kind == "f":
            for i in np.flatnonzero(~np.isfinite(cells)).tolist():
                texts[i] = f'"{texts[i]}"' if texts[i] else "null"
        return texts
    # a list or dict cell is indented as a member of its row
    return [json.dumps(_sanitize(v), indent=2, allow_nan=False).replace("\n", "\n          ")
            for v in (cells.tolist() if isinstance(cells, np.ndarray) else cells)]


def _csv_text(names: list[str], texts: list[list[str]]) -> str:
    """The header and the rows of the column ``texts`` as ``csv.writer``
    writes them with ``\\n`` line ends.

    Cells are joined directly when none needs quoting, which the joined
    text shows: it has no quote or carriage return, one comma fewer per
    line than cells, one newline per line, and no empty line where a line
    holds one empty cell.
    """
    lines = 1 + (len(texts[0]) if texts else 0)
    text = "\n".join(chain([",".join(names)], map(",".join, zip(*texts)))) + "\n"
    if ('"' in text or "\r" in text
            or text.count(",") != lines * max(len(names) - 1, 0)
            or text.count("\n") != lines
            or (len(names) == 1 and "\n\n" in "\n" + text)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*texts))
        text = buf.getvalue()
    return text


def _one_line(text: str) -> str:
    """``text`` with each carriage return and line feed written as the
    two characters ``\\r`` or ``\\n``, so that a comment, ``##`` or
    metadata line holding it stays one line."""
    return text.replace("\r", "\\r").replace("\n", "\\n")


def to_csv(doc: OutputDocument) -> str:
    parts = []
    many = len(doc.sections) > 1
    for sec in doc.sections:
        if many:
            parts.append(f"# section: {_one_line(sec.label or '')}\n")
        texts = [_column_texts(cells, human=False) for cells in sec.columns.values()]
        parts.append(_csv_text(list(sec.columns), texts))
    return "".join(parts)


def to_table(doc: OutputDocument) -> str:
    lines: list[str] = []
    meta_bits = []
    for key, val in doc.metadata.items():
        if isinstance(val, dict):
            continue
        if isinstance(val, (list, tuple)):
            if not val:
                continue
            text = ",".join(_cell_text(v, human=True) for v in val)
        else:
            text = _cell_text(val, human=True)
        meta_bits.append(f"{key}={text}")
    lines.append(_one_line(f"# {doc.command}: " + "  ".join(meta_bits)))
    for sec in doc.sections:
        if sec.label:
            lines.append(f"## {_one_line(sec.label)}")
        padded = []
        for name, cells in sec.columns.items():
            texts = _column_texts(cells, human=True)
            width = max(len(name), max(map(len, texts), default=0))
            padded.append([name.rjust(width)] + [t.rjust(width) for t in texts])
        if padded:
            lines += map("  ".join, zip(*padded))
        else:
            lines.append("")
    return "\n".join(lines) + "\n"


def render(doc: OutputDocument, fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "table":
        return to_table(doc)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
