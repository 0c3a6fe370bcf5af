"""Columnar ingestion and rendering against their row-at-a-time references."""

import csv
import io
import time
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import reference_parse_csv, reference_render
from survfrac import DataError, Dataset, dataset, parse_csv, split_by_group
from survfrac.output import FORMATS, OutputDocument, Section, render

# ------------------------------------------------------------------ parsing

_PAD = st.sampled_from(["", "", " ", "  ", "\t"])
# str.strip removes the separators U+001C to U+001F, float and int do not
_PAD_SEPARATORS = st.sampled_from(["", " ", "\x1c", "\x1f"])
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(0, 50).map(str),
    st.sampled_from(["-0.0", "1_5", "7e-3"]),
)
_BAD_TIME = st.sampled_from(["nan", "inf", "-inf", "-1", "1e400", "abc", "", "0x10"])
_STATUS = st.sampled_from(["0", "1", "+1", "01"])
_BAD_STATUS = st.sampled_from(["2", "-1", "x", "", "1.0", "99999999999999999999999"])
_GROUP = st.sampled_from(["a", "b", "x,y", 'q"r', "a b"])
_BAD_GROUP = st.sampled_from(["", " "])


@st.composite
def _cell(draw, core, pad):
    text = draw(pad) + draw(core) + draw(pad)
    if any(ch in text for ch in ',"\n\r') or draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _csv_text(draw):
    """CSV text with padded and quoted cells and blank rows; about half the
    files also hold bad cells and short rows."""
    faulty = draw(st.booleans())
    pad = draw(st.sampled_from([_PAD, _PAD, _PAD, _PAD_SEPARATORS]))

    def core(good, bad):
        return st.one_of(good, good, good, bad) if faulty else good

    names = draw(st.permutations(["time", "status", "g", "extra"]))
    header = ",".join(draw(pad) + name + draw(pad) for name in names)
    cores = {"time": core(_TIME, _BAD_TIME), "status": core(_STATUS, _BAD_STATUS),
             "g": core(_GROUP, _BAD_GROUP), "extra": _BAD_TIME}
    kinds = ["data"] * 6 + ["blank", "long"] + (["short"] if faulty else [])
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", ",,,", " ,\t, , ", '""', " "])))
            continue
        cells = [draw(_cell(cores[name], pad)) for name in names]
        if kind == "short":
            cells = cells[:draw(st.integers(1, len(names) - 1))]
        elif kind == "long":
            cells.append(draw(_cell(_TIME, pad)))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(parse, data, group_col):
    try:
        ds = parse(data, group_col=group_col)
    except DataError as exc:
        return "error", type(exc), str(exc), getattr(exc, "row", None)
    return "ok", ds.times.tobytes(), ds.status.tobytes(), ds.groups


@settings(max_examples=300, deadline=None, database=None)
@given(text=_csv_text(), group_col=st.sampled_from([None, "g"]))
def test_parse_csv_matches_row_loop_reference(text, group_col):
    data = text.encode("utf-8")
    assert (_outcome(parse_csv, data, group_col)
            == _outcome(reference_parse_csv, data, group_col))


def test_parse_csv_reports_first_bad_row_after_blank_rows():
    # the row numbers count blank rows; the short row comes after a bad one
    text = b"time,status\n1,1\n\n , \n2,0\n3,2\n4\n"
    for parse in (parse_csv, reference_parse_csv):
        try:
            parse(text)
        except DataError as exc:
            assert (type(exc).__name__, str(exc), exc.row) == (
                "RowError", "row 5: status must be 0 or 1, got 2", 5)
        else:
            raise AssertionError("bad row accepted")


# ------------------------------------------------- block-wise fast path

# the field size limit while a file holds a cell over it; every other cell
# and the header fit under it
_LIMIT = 40
_LINE_PERTURBATIONS = ["long row", "short row", "blank row", "all-space row", "CRLF",
                       "quote", "NUL", "cell over the limit"]
_CELL_PERTURBATIONS = {
    "status": ["01", "+1", " 1", "2"],
    "time": ["1_0", "inf", "-0.0"],
}


@st.composite
def _flat_file(draw):
    """A quote-free, LF-only file of 2 or 3 blocks and the block size that
    splits it so, with at most one perturbation in its first, a middle or
    its last block: ``(text, block size, the perturbation, group column)``.

    In about half the files every cell is 0 or 1, so that cells read from
    a wrongly split block still convert."""
    names = draw(st.permutations(["time", "status"] + draw(st.sampled_from(
        [[], ["g"], ["extra"], ["g", "extra"]]))))
    bits = st.sampled_from(["0", "1"])
    if draw(st.booleans()):
        cores = dict.fromkeys(names, bits)
    else:
        cores = {"time": st.one_of(st.floats(0, 1e6).map(repr), st.integers(0, 50).map(str)),
                 "status": bits, "g": st.sampled_from(["a", "b", "a b", "é", "0"]),
                 "extra": st.sampled_from(["x", "", "0.5"])}
    rows = [[draw(cores[name]) for name in names]
            for _ in range(draw(st.integers(6, 30)))]
    kind = draw(st.sampled_from(
        [None, None, "trailing blank line", "BOM", "U+001C padding", "empty group cell"]
        + _LINE_PERTURBATIONS + [f"{name} {cell}" for name, cells in _CELL_PERTURBATIONS.items()
                                 for cell in cells]))
    at = draw(st.sampled_from([0, len(rows) // 2, len(rows) - 1]))
    column = names.index(draw(st.sampled_from(names)))
    ends = ["\n"] * len(rows)
    if kind in ("long row", "short row"):
        rows[at] = rows[at] + ["1"] if kind == "long row" else rows[at][:-1]
    elif kind in ("blank row", "all-space row"):
        rows.insert(at, [" "] * len(names) if kind == "all-space row" else [""])
        ends.append("\n")
    elif kind == "CRLF":
        ends[at] = "\r\n"
    elif kind in ("quote", "NUL", "BOM", "U+001C padding"):
        cell = rows[at][column]
        rows[at][column] = {"quote": f'"{cell}"', "NUL": cell + "\0", "BOM": "\ufeff" + cell,
                            "U+001C padding": f"\x1c{cell}\x1c"}[kind]
    elif kind == "cell over the limit":
        rows[at][names.index("time")] = "0" * (_LIMIT + 1)
    elif kind == "empty group cell" and "g" in names:
        rows[at][names.index("g")] = ""
    elif kind is not None and kind.split()[0] in _CELL_PERTURBATIONS:
        rows[at][names.index(kind.split()[0])] = kind.split(" ", 1)[1]
    body = "".join(",".join(row) + end for row, end in zip(rows, ends))
    if kind == "trailing blank line":
        body += "\n"
    elif draw(st.booleans()):
        body = body[:-1]
    block = max(1, len(body) // draw(st.sampled_from([2, 3])))
    group_col = draw(st.sampled_from([None, "g"])) if "g" in names else None
    return ",".join(names) + "\n" + body, block, kind, group_col


@settings(max_examples=300, deadline=None, database=None)
@given(_flat_file())
def test_block_fast_path_matches_row_loop_reference(tmp_path_factory, file):
    text, block, kind, group_col = file
    data = text.encode("utf-8")
    path = tmp_path_factory.getbasetemp() / "flat.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit()
    try:
        if kind == "cell over the limit":
            csv.field_size_limit(_LIMIT)
        want = _outcome(reference_parse_csv, data, group_col)
        with mock.patch.object(dataset, "_BLOCK", block):
            for source in (data, path, io.StringIO(text), io.BytesIO(data)):
                assert _outcome(parse_csv, source, group_col) == want, (kind, type(source))
    finally:
        csv.field_size_limit(limit)


def test_clean_file_is_read_in_blocks():
    # every block of a quote-free LF file passes the fast path's checks
    text = "time,status,arm\n" + "".join(f"{i / 7!r},{i % 2},{'AB'[i % 3 % 2]}\n"
                                         for i in range(1, 400))
    real, parts = dataset._block_columns, []

    def spy(*args):
        parts.append(real(*args))
        return parts[-1]

    with mock.patch.object(dataset, "_BLOCK", 1000), \
            mock.patch.object(dataset, "_block_columns", spy):
        fast = parse_csv(text.encode(), group_col="arm")
    assert len(parts) > 3 and all(part is not None for part in parts)
    want = reference_parse_csv(text.encode(), group_col="arm")
    assert fast.times.tobytes() == want.times.tobytes()
    assert fast.status.tobytes() == want.status.tobytes()
    assert fast.groups == want.groups


# ------------------------------------------------------------------ grouping

@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sampled_from(["a", "a\x00", "b", " b", "c", "10", "1"]),
                min_size=1, max_size=40))
def test_split_by_group_matches_mask_reference(labels):
    n = len(labels)
    ds = Dataset(times=np.arange(n, dtype=float), status=np.ones(n, dtype=np.int64),
                 groups=tuple(labels))
    parts = split_by_group(ds)
    order = list(dict.fromkeys(labels))
    assert list(parts) == order
    for label in order:
        mask = np.array([g == label for g in labels])
        assert parts[label].times.tolist() == ds.times[mask].tolist()
        assert parts[label].groups is None


def test_split_by_group_scaling_guard():
    # the cost grows with rows plus groups, not with rows times groups:
    # on a fixed 200 000-row sample, four times the groups cost well under
    # four times as much.  Each size keeps its best CPU time of this
    # process, which other processes on the host do not add to, and the
    # sizes alternate, so that a slow spell meets both
    rng = np.random.default_rng(3)
    n = 200_000
    times = rng.random(n)
    status = np.ones(n, dtype=np.int64)
    samples = {}
    for k in (1000, 4000):
        labels = tuple(f"g{c}" for c in rng.permutation(np.arange(n) % k).tolist())
        samples[k] = Dataset(times=times, status=status, groups=labels)
    best = dict.fromkeys(samples, float("inf"))
    for _ in range(5):
        for k, ds in samples.items():
            start = time.process_time()
            parts = split_by_group(ds)
            best[k] = min(best[k], time.process_time() - start)
            assert len(parts) == k

    assert best[4000] < 3.0 * best[1000]


# ----------------------------------------------------------------- rendering

_TEXT = st.text(alphabet='ab ,"\'\n\r-\x00\\é中\u2028😀', max_size=6)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 1e-300]),
    _TEXT,
    st.floats().map(np.float64),
    st.integers(-1000, 1000).map(np.int64),
    st.booleans().map(np.bool_),
)


_NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])
# the cells of a fraction-mean column: floats, absent values and flags
_ESTIMATE_CELL = st.one_of(st.none(), st.floats(), _NON_FINITE, st.booleans())


def _column(n):
    floats = hnp.arrays(np.float64, n, elements=st.one_of(st.floats(), _NON_FINITE))
    return st.one_of(
        st.lists(_SCALAR, min_size=n, max_size=n),
        st.lists(_SCALAR, min_size=n, max_size=n).map(tuple),
        st.lists(_ESTIMATE_CELL, min_size=n, max_size=n).map(tuple),
        floats,
        hnp.arrays(np.int64, n),
        hnp.arrays(np.bool_, n),
    )


@st.composite
def _section(draw):
    n = draw(st.one_of(st.just(0), st.integers(0, 8)))
    names = draw(st.lists(_TEXT, max_size=4, unique=True))
    columns = {name: draw(_column(n)) for name in names}
    return Section(columns=columns, label=draw(st.one_of(st.none(), _TEXT)))


@st.composite
def _document(draw):
    keys = st.text(alphabet="abc_", min_size=1, max_size=5)
    # the table skips a dict, so only it may nest lists and dicts
    nested = st.recursive(_SCALAR, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(keys, inner, max_size=3)), max_leaves=8)
    metadata = draw(st.dictionaries(
        keys, st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3),
                        st.dictionaries(keys, nested, max_size=3)),
        max_size=4))
    return OutputDocument(command=draw(st.sampled_from(["estimate", "km-curve"])),
                          metadata=metadata,
                          sections=draw(st.lists(_section(), max_size=3)))


def _one_line(value):
    """A label or metadata value as the table and CSV renderers write it:
    each carriage return and line feed in its text escaped."""
    if isinstance(value, str):
        return value.replace("\r", "\\r").replace("\n", "\\n")
    if isinstance(value, (list, tuple)):
        return [_one_line(v) for v in value]
    return value


@settings(max_examples=300, deadline=None, database=None)
@given(_document())
def test_render_matches_row_reference(doc):
    # JSON keeps every text as it is
    escaped = OutputDocument(
        command=doc.command,
        metadata={key: _one_line(val) for key, val in doc.metadata.items()},
        sections=[Section(columns=sec.columns, label=_one_line(sec.label))
                  for sec in doc.sections])
    for fmt in FORMATS:
        want = reference_render(doc if fmt == "json" else escaped, fmt)
        assert render(doc, fmt) == want, fmt



@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.recursive(_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2)), max_leaves=6),
    min_size=1, max_size=4))
def test_json_indents_list_and_dict_cells(cells):
    # only JSON writes a cell that holds a list or dict
    doc = OutputDocument(command="estimate", metadata={}, sections=[
        Section(columns={"a": cells, "b": np.arange(len(cells))})])
    assert render(doc, "json") == reference_render(doc, "json")
