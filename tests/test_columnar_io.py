"""Columnar ingestion and rendering against their row-at-a-time references."""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import reference_parse_csv, reference_render
from survfrac import DataError, Dataset, parse_csv, split_by_group
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
    # four times as much
    rng = np.random.default_rng(3)
    n = 200_000
    times = rng.random(n)
    status = np.ones(n, dtype=np.int64)

    def best_time(k):
        labels = tuple(f"g{c}" for c in rng.permutation(np.arange(n) % k).tolist())
        ds = Dataset(times=times, status=status, groups=labels)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            parts = split_by_group(ds)
            best = min(best, time.perf_counter() - start)
        assert len(parts) == k
        return best

    assert best_time(4000) < 3.0 * best_time(1000)


# ----------------------------------------------------------------- rendering

_TEXT = st.text(alphabet='ab ,"\n\r-\x00é', max_size=6)
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


def _column(n):
    floats = hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan")])))
    return st.one_of(
        st.lists(_SCALAR, min_size=n, max_size=n),
        st.lists(_SCALAR, min_size=n, max_size=n).map(tuple),
        floats,
        hnp.arrays(np.int64, n),
        hnp.arrays(np.bool_, n),
    )


@st.composite
def _section(draw):
    n = draw(st.integers(0, 8))
    names = draw(st.lists(_TEXT, max_size=4, unique=True))
    columns = {name: draw(_column(n)) for name in names}
    return Section(columns=columns, label=draw(st.one_of(st.none(), _TEXT)))


@st.composite
def _document(draw):
    metadata = draw(st.dictionaries(
        st.text(alphabet="abc_", min_size=1, max_size=5),
        st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3),
                  st.dictionaries(st.just("x"), _SCALAR, max_size=1)),
        max_size=4))
    return OutputDocument(command=draw(st.sampled_from(["estimate", "km-curve"])),
                          metadata=metadata,
                          sections=draw(st.lists(_section(), max_size=3)))


@settings(max_examples=300, deadline=None, database=None)
@given(_document())
def test_render_matches_row_reference(doc):
    for fmt in FORMATS:
        assert render(doc, fmt) == reference_render(doc, fmt), fmt

