import gc
import io
import warnings

import numpy as np
import pytest

from survfrac import (
    DataError,
    Dataset,
    EmptyEventsError,
    RowError,
    SchemaError,
    parse_csv,
    split_by_group,
)


def test_parse_basic():
    ds = parse_csv(b"time,status\n2,1\n3,1\n1,0\n")
    assert len(ds) == 3
    assert ds.n_events == 2
    assert list(ds.times) == [2.0, 3.0, 1.0]
    assert list(ds.status) == [1, 1, 0]
    assert ds.groups is None


def test_parse_preserves_row_order_and_precision():
    text = "time,status\n0.1,1\n2.5e-3,0\n17,1\n"
    ds = parse_csv(text.encode())
    assert list(ds.times) == [0.1, 2.5e-3, 17.0]


def test_parse_schema_remap_with_groups():
    ds = parse_csv(
        b"t,d,arm\n5,1,allo\n7,0,auto\n",
        time_col="t",
        status_col="d",
        group_col="arm",
    )
    assert len(ds) == 2
    assert ds.groups == ("allo", "auto")


def test_parse_missing_column_names_it():
    with pytest.raises(SchemaError, match="'status'"):
        parse_csv(b"time,event\n1,1\n")


def test_parse_negative_time_is_row_indexed():
    with pytest.raises(RowError, match="row 1") as exc:
        parse_csv(b"time,status\n-1,1\n")
    assert exc.value.row == 1


def test_parse_unparsable_cells():
    with pytest.raises(RowError, match="row 2.*time"):
        parse_csv(b"time,status\n1,1\nxx,1\n")
    with pytest.raises(RowError, match="row 1.*status"):
        parse_csv(b"time,status\n1,maybe\n")


def test_parse_status_out_of_range():
    with pytest.raises(RowError, match="status must be 0 or 1"):
        parse_csv(b"time,status\n1,2\n")


def test_parse_zero_events():
    with pytest.raises(EmptyEventsError):
        parse_csv(b"time,status\n1,0\n2,0\n")


def test_parse_empty_group_cell():
    with pytest.raises(RowError, match="row 2"):
        parse_csv(b"time,status,g\n1,1,a\n2,1,\n", group_col="g")


def test_parse_no_rows():
    with pytest.raises(DataError):
        parse_csv(b"time,status\n")
    with pytest.raises(SchemaError):
        parse_csv(b"")


def test_parse_accepts_path_and_file_objects(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,status\n1,1\n")
    assert len(parse_csv(p)) == 1
    assert len(parse_csv(str(p))) == 1
    with open(p, "rb") as fh:
        assert len(parse_csv(fh)) == 1
    assert len(parse_csv(io.StringIO("time,status\n1,1\n"))) == 1


def test_roundtrip_times_as_decimal_text():
    # repr of a parsed float re-parses to the identical value
    values = [0.1, 1 / 3, 2.5e-3, 123456.789012345, 7e300]
    text = "time,status\n" + "".join(f"{repr(v)},1\n" for v in values)
    ds = parse_csv(text.encode())
    assert list(ds.times) == values
    text2 = "time,status\n" + "".join(
        f"{repr(float(t))},{int(s)}\n" for t, s in zip(ds.times, ds.status)
    )
    ds2 = parse_csv(text2.encode())
    assert list(ds2.times) == list(ds.times)
    assert list(ds2.status) == list(ds.status)


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(times=np.array([]), status=np.array([], dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(times=np.array([-1.0]), status=np.array([1]))
    with pytest.raises(DataError):
        Dataset(times=np.array([np.inf]), status=np.array([1]))
    with pytest.raises(DataError):
        Dataset(times=np.array([1.0]), status=np.array([2]))


def test_dataset_is_immutable():
    ds = Dataset(times=np.array([1.0, 2.0]), status=np.array([1, 0]))
    with pytest.raises(ValueError):
        ds.times[0] = 5.0


def test_split_by_group_partition():
    ds = parse_csv(
        b"time,status,g\n1,1,a\n2,1,a\n3,1,b\n4,1,b\n", group_col="g"
    )
    parts = split_by_group(ds)
    assert sorted(parts) == ["a", "b"]
    assert sum(len(p) for p in parts.values()) == len(ds)
    assert list(parts["a"].times) == [1.0, 2.0]
    assert all(p.groups is None for p in parts.values())


def test_split_single_group():
    ds = parse_csv(b"time,status,g\n1,1,a\n2,0,a\n", group_col="g")
    parts = split_by_group(ds)
    assert list(parts) == ["a"]
    assert len(parts["a"]) == 2


def test_split_group_without_events_named():
    ds = parse_csv(
        b"time,status,g\n1,1,a\n2,0,b\n3,0,b\n", group_col="g"
    )
    with pytest.raises(EmptyEventsError, match="'b'"):
        split_by_group(ds)


def test_split_requires_group_labels():
    ds = parse_csv(b"time,status\n1,1\n")
    with pytest.raises(DataError):
        split_by_group(ds)


def test_parse_leaves_a_callers_binary_handle_open(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"time,status\n2,1\n3,0\n")
    with open(p, "rb") as fh:
        ds = parse_csv(fh)
        assert not fh.closed
        assert fh.read() == b""
    assert list(ds.times) == [2.0, 3.0]
    with open(p, "rb") as fh:
        with pytest.raises(SchemaError):
            parse_csv(fh, time_col="days")
        assert not fh.closed


@pytest.mark.parametrize("text", ["time,status\n2,1\n3,0\n", "time,status\nx,1\n",
                                  "days,status\n2,1\n"])
def test_parse_closes_the_file_it_opens(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            parse_csv(p)
        except DataError:
            pass
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
