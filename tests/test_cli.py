import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survfrac
from survfrac import (
    FractionGrid,
    bootstrap_compare,
    fit_km,
    fraction_means,
    parse_csv,
    split_by_group,
)
from survfrac import km
from survfrac.cli import CONVENTIONS, main


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def simple_csv(tmp_path):
    p = tmp_path / "simple.csv"
    p.write_text("time,status\n1,1\n2,1\n3,1\n4,1\n")
    return str(p)


@pytest.fixture()
def plateau_csv(tmp_path):
    p = tmp_path / "plateau.csv"
    p.write_text("time,status\n1,1\n5,0\n6,0\n")
    return str(p)


@pytest.fixture()
def two_arm_csv(tmp_path):
    rng = np.random.default_rng(2024)
    rows = ["time,status,arm"]
    for arm, scale in (("allo", 1.0), ("auto", 1.4)):
        t = rng.exponential(scale, size=24)
        c = rng.uniform(0, 3.0, size=24)
        for ti, ci in zip(t, c):
            rows.append(f"{float(min(ti, ci))!r},{int(ti <= ci)},{arm}")
    p = tmp_path / "arms.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


class TestEstimate:
    def test_hand_values_json(self, run, simple_csv):
        code, out, err = run(
            "estimate", "--input", simple_csv, "--lambdas", "0.5,1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["sections"][0]["rows"]
        assert [r["mu"] for r in rows] == [0.75, 1.75]
        assert [r["mu_bar"] for r in rows] == [1.5, 3.5]
        assert [r["lambda"] for r in rows] == [0.5, 1.0]
        assert all(r["computable"] for r in rows)
        assert doc["metadata"]["version"]
        assert doc["metadata"]["conventions"]["tie_rule"]

    def test_noncomputable_row_flagged_exit_zero(self, run, plateau_csv):
        code, out, err = run(
            "estimate", "--input", plateau_csv, "--lambdas", "0.9",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["sections"][0]["rows"][0]
        assert row["computable"] is False

    def test_default_grid_is_deciles(self, run, simple_csv):
        code, out, _ = run("estimate", "--input", simple_csv, "--format", "json")
        doc = json.loads(out)
        assert doc["metadata"]["lambdas"] == [0.0] + [k / 10 for k in range(1, 11)]

    def test_default_grid_stops_where_the_curve_ends(self, run, tmp_path):
        # the float curve ends at 0.7000000000000001, above 1 - 0.3
        p = tmp_path / "eight.csv"
        p.write_text("time,status\n1,1\n2,0\n2,0\n3,1\n4,0\n4,0\n4,0\n4,0\n")
        code, out, _ = run("estimate", "--input", str(p), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["max_observed_fraction"] == 0.29999999999999993
        assert doc["metadata"]["lambdas"] == [0.0, 0.1, 0.2]
        assert all(row["computable"] for row in doc["sections"][0]["rows"])

    def test_missing_input_flag_usage_error(self, simple_csv):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 2

    def test_unreadable_input_exit_2(self, run, tmp_path):
        code, out, err = run("estimate", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err

    def test_bad_row_exit_2_with_row_number(self, run, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,status\n1,1\n-2,1\n")
        code, out, err = run("estimate", "--input", str(p))
        assert code == 2
        assert "row 2" in err

    def test_table_and_csv_formats(self, run, simple_csv):
        code, out, _ = run("estimate", "--input", simple_csv, "--lambdas", "0.5,1")
        assert code == 0
        assert "mu_bar" in out
        code, out, _ = run(
            "estimate", "--input", simple_csv, "--lambdas", "0.5,1",
            "--format", "csv",
        )
        header = out.splitlines()[0]
        assert header.startswith("k,lambda,mu,mu_bar")

    def test_default_grid_impossible_exit_2(self, run, tmp_path):
        # max observed fraction below the first decile: no default grid exists
        p = tmp_path / "thin.csv"
        p.write_text(
            "time,status\n1,1\n" + "".join(f"{t},0\n" for t in range(2, 30))
        )
        code, _, err = run("estimate", "--input", str(p))
        assert code == 2
        assert err == ("survfrac estimate: error: no grid fraction lies within max "
                       "observed fraction 0.0344828; the smallest grid fraction is 0.1\n")
        # explicit proportions still work
        code, out, _ = run(
            "estimate", "--input", str(p), "--lambdas", "0.03",
            "--format", "json",
        )
        assert code == 0

    def test_env_var_default_format(self, run, simple_csv, monkeypatch):
        monkeypatch.setenv("SURVFRAC_FORMAT", "json")
        code, out, _ = run("estimate", "--input", simple_csv, "--lambdas", "0.5")
        json.loads(out)
        # explicit flag overrides the environment
        code, out, _ = run(
            "estimate", "--input", simple_csv, "--lambdas", "0.5",
            "--format", "csv",
        )
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_unknown_env_format_warns_and_keeps_table(self, run, simple_csv,
                                                       monkeypatch):
        argv = ("estimate", "--input", simple_csv, "--lambdas", "0.5")
        monkeypatch.delenv("SURVFRAC_FORMAT", raising=False)
        _, table, quiet = run(*argv)
        monkeypatch.setenv("SURVFRAC_FORMAT", "xml")
        code, out, err = run(*argv)
        assert code == 0
        assert out == table
        assert quiet == ""
        assert err.count("\n") == 1
        assert "warning" in err and "'xml'" in err
        # an explicit --format never reads the variable
        _, _, err = run(*argv, "--format", "csv")
        assert err == ""


class TestCompare:
    def test_identical_groups_zero_diffs(self, run, tmp_path):
        rows = ["time,status,arm"]
        for arm in ("a", "b"):
            for t in range(1, 21):
                rows.append(f"{t},1,{arm}")
        p = tmp_path / "same.csv"
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            "compare", "--input", str(p), "--group-col", "arm",
            "--ref-group", "a", "--bootstrap", "200", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["sections"][0]["rows"]:
            assert row["diff"] == 0.0

    def test_byte_identical_reruns(self, run, two_arm_csv):
        args = (
            "compare", "--input", two_arm_csv, "--group-col", "arm",
            "--ref-group", "allo", "--bootstrap", "200", "--seed", "7",
            "--format", "json",
        )
        _, out1, _ = run(*args)
        _, out2, _ = run(*args)
        assert out1 == out2

    def test_matches_library_call_and_truncates(self, run, two_arm_csv):
        code, out, _ = run(
            "compare", "--input", two_arm_csv, "--group-col", "arm",
            "--ref-group", "allo", "--bootstrap", "150", "--seed", "3",
            "--format", "json",
        )
        doc = json.loads(out)
        meta = doc["metadata"]
        assert meta["seed"] == 3
        groups = split_by_group(
            parse_csv(two_arm_csv, group_col="arm")
        )
        grid = FractionGrid(tuple(meta["lambdas"]))
        direct = bootstrap_compare(
            groups["allo"], groups["auto"], grid, B=150, seed=3
        ).fractions
        rows = doc["sections"][0]["rows"]
        for row, est in zip(rows, direct):
            assert row["diff"] == est.point
            assert row["ci_lower"] == est.ci_lower
            assert row["ci_upper"] == est.ci_upper
            assert row["effective_replicates"] == est.effective_replicates
        assert grid.lambdas[-1] <= meta["common_max_fraction"] + 1e-12

    def test_restricted_mean_section(self, run, two_arm_csv):
        code, out, _ = run(
            "compare", "--input", two_arm_csv, "--group-col", "arm",
            "--ref-group", "allo", "--bootstrap", "150", "--seed", "3",
            "--restricted-mean", "--format", "json",
        )
        doc = json.loads(out)
        labels = [s["label"] for s in doc["sections"]]
        assert labels == ["fraction_mean_differences", "restricted_mean_difference"]
        row = doc["sections"][1]["rows"][0]
        assert row["horizon"] > 0
        assert doc["metadata"]["restricted_mean_horizon"] == row["horizon"]

    def test_no_discarded_replicates_on_benchmark_input(self, run, tmp_path):
        # the compare-boot input of perfbench: every resample keeps events
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("gen", root / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        path = gen.generate("compare-boot", 7, tmp_path)["files"]["csv"]
        code, out, _ = run(
            "compare", "--input", str(path), "--group-col", "arm",
            "--ref-group", "A", "--bootstrap", "2000", "--restricted-mean",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["metadata"]["discarded_replicates"] == 0

    def test_group_without_events_exit_2(self, run, tmp_path):
        p = tmp_path / "noev.csv"
        p.write_text("time,status,arm\n1,1,a\n2,1,a\n3,0,b\n4,0,b\n")
        code, out, err = run(
            "compare", "--input", str(p), "--group-col", "arm",
            "--ref-group", "a",
        )
        assert code == 2
        assert "'b'" in err

    def test_more_than_two_groups_exit_2(self, run, tmp_path):
        p = tmp_path / "three.csv"
        p.write_text("time,status,arm\n1,1,a\n2,1,b\n3,1,c\n")
        code, _, err = run(
            "compare", "--input", str(p), "--group-col", "arm",
            "--ref-group", "a",
        )
        assert code == 2

    def test_unknown_ref_group_exit_2(self, run, two_arm_csv):
        code, _, err = run(
            "compare", "--input", two_arm_csv, "--group-col", "arm",
            "--ref-group", "zzz",
        )
        assert code == 2
        assert "zzz" in err

    @pytest.mark.parametrize("horizon", ["inf", "nan", "-1", "soon"])
    def test_bad_restricted_mean_horizon_exit_2(self, run, two_arm_csv, horizon):
        code, out, err = run(
            "compare", "--input", two_arm_csv, "--group-col", "arm",
            "--ref-group", "allo", "--bootstrap", "100",
            "--restricted-mean", horizon,
        )
        assert code == 2
        assert out == ""
        assert "horizon" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_usage_error(self, two_arm_csv, workers):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--input", two_arm_csv, "--group-col", "arm",
                  "--ref-group", "allo", "--workers", workers])
        assert exc.value.code == 2


class TestSimulate:
    def test_flags_and_scale_equivariance(self, run):
        base = (
            "simulate", "--n-datasets", "6", "--n", "60", "--seed", "5",
            "--lambdas", "0.2,0.4", "--format", "json",
        )
        code, out1, _ = run(*base, "--alpha", "1")
        code2, out2, _ = run(*base, "--alpha", "2")
        assert code == 0 and code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        for r1, r2 in zip(d1["sections"][0]["rows"], d2["sections"][0]["rows"]):
            assert r2["true_mu"] == pytest.approx(2 * r1["true_mu"], rel=1e-9)
        assert d1["metadata"]["seed"] == 5

    def test_config_file_with_flag_override(self, run, tmp_path):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text(
            "# desk run\nn_datasets = 4\nn = 50\nalpha: 1.0\nbeta = 2\n"
            "censor_upper = 2.3333333333333335\nlambdas = 0.2,0.4\n"
            "band_level = 0.95\nseed = 11\n"
        )
        code, out, _ = run(
            "simulate", "--config", str(cfgfile), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["n_datasets"] == 4
        assert doc["metadata"]["seed"] == 11
        code, out, _ = run(
            "simulate", "--config", str(cfgfile), "--seed", "12",
            "--format", "json",
        )
        assert json.loads(out)["metadata"]["seed"] == 12

    def test_bad_config_exit_2(self, run, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_datasets = 5\nbogus_key = 3\n")
        code, _, err = run("simulate", "--config", str(bad))
        assert code == 2
        assert "bogus_key" in err
        bad2 = tmp_path / "bad2.cfg"
        bad2.write_text("n = not_a_number\n")
        code, _, err = run("simulate", "--config", str(bad2))
        assert code == 2

    def test_invalid_parameters_exit_2(self, run):
        code, _, err = run("simulate", "--n-datasets", "0")
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_usage_error(self, workers):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-datasets", "2", "--workers", workers])
        assert exc.value.code == 2

    def test_single_replicate_passthrough(self, run):
        code, out, _ = run(
            "simulate", "--n-datasets", "1", "--n", "80", "--seed", "3",
            "--lambdas", "0.2,0.4", "--format", "json",
        )
        doc = json.loads(out)
        for row in doc["sections"][0]["rows"]:
            assert row["computable_share"] in (0.0, 1.0)

    def test_byte_identical_reruns(self, run):
        args = (
            "simulate", "--n-datasets", "8", "--n", "50", "--seed", "19",
            "--lambdas", "0.2,0.5", "--format", "json",
        )
        _, out1, _ = run(*args)
        _, out2, _ = run(*args)
        assert out1 == out2
        assert json.loads(out1)["metadata"]["seed"] == 19


class TestKmCurve:
    def test_rows_with_origin(self, run, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("time,status\n1,0\n2,1\n3,1\n")
        code, out, _ = run("km-curve", "--input", str(p), "--format", "json")
        assert code == 0
        rows = json.loads(out)["sections"][0]["rows"]
        coords = [(r["time"], r["survival"]) for r in rows]
        assert coords == [(0.0, 1.0), (2.0, 0.5), (3.0, 0.0)]
        assert rows[0]["at_risk"] == 3
        assert rows[-1]["greenwood"] == "inf"

    def test_two_groups_two_sections(self, run, two_arm_csv):
        code, out, _ = run(
            "km-curve", "--input", two_arm_csv, "--group-col", "arm",
            "--format", "json",
        )
        doc = json.loads(out)
        assert [s["label"] for s in doc["sections"]] == ["allo", "auto"]

    def test_band_columns(self, run, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text(
            "time,status\n" + "".join(f"{t},1\n" for t in range(1, 25))
        )
        code, out, _ = run(
            "km-curve", "--input", str(p), "--band-level", "0.95",
            "--format", "json",
        )
        rows = json.loads(out)["sections"][0]["rows"]
        banded = [r for r in rows if r["lower"] is not None]
        assert banded
        for r in banded:
            assert r["lower"] <= r["survival"] <= r["upper"]

    def test_single_event_band_note(self, run, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("time,status\n1,1\n5,0\n6,0\n")
        code, out, _ = run(
            "km-curve", "--input", str(p), "--band-level", "0.95",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert any("band undefined" in n for n in doc["metadata"]["notes"])
        assert [r["survival"] for r in doc["sections"][0]["rows"]] == [1.0, 2 / 3]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_line_break_label_stays_on_one_line(self, run, tmp_path, fmt):
        p = tmp_path / "labels.csv"
        p.write_bytes(b'time,status,arm\n1,1,"a\nb"\n2,1,"a\nb"\n3,1,"c\rd"\n'
                      b'4,1,"c\rd"\n')
        code, out, _ = run("km-curve", "--input", str(p), "--group-col", "arm",
                           "--band-level", "0.95", "--format", fmt)
        assert code == 0
        lines = out.splitlines()
        for line in lines:
            cells = line.split(",") if fmt == "csv" else line.split()
            assert line.startswith("#") or len(cells) == 7, line
        if fmt == "csv":
            assert "# section: a\\nb" in lines and "# section: c\\rd" in lines
        else:
            assert "  groups=a\\nb,c\\rd  " in lines[0]
            assert "## a\\nb" in lines and "## c\\rd" in lines


class TestJsonRoundTrip:
    def test_infinite_bounds_roundtrip(self, run, tmp_path):
        rng = np.random.default_rng(4)
        t = rng.exponential(size=40)
        c = rng.uniform(0, 1.0, size=40)
        p = tmp_path / "cens.csv"
        p.write_text(
            "time,status\n"
            + "".join(
                f"{float(min(a, b))!r},{int(a <= b)}\n" for a, b in zip(t, c)
            )
        )
        code, out, _ = run(
            "estimate", "--input", str(p), "--lambdas", "0.2,0.95",
            "--format", "json",
        )
        doc = json.loads(out)
        rows = doc["sections"][0]["rows"]
        assert rows[-1]["upper"] == "inf"
        assert rows[-1]["upper_finite"] is False
        restored = float(rows[-1]["upper"])
        assert math.isinf(restored)
        # byte-exact reserialization of every numeric field
        assert json.dumps(doc, indent=2, allow_nan=False) + "\n" == out

    def test_numbers_survive_at_full_precision(self, run, tmp_path):
        p = tmp_path / "prec.csv"
        p.write_text("time,status\n0.1,1\n0.30000000000000004,1\n7,1\n")
        code, out, _ = run(
            "estimate", "--input", str(p), "--lambdas", "1", "--format", "json"
        )
        doc = json.loads(out)
        mu = doc["sections"][0]["rows"][0]["mu"]
        curve = fit_km(parse_csv(p))
        assert mu == fraction_means(curve, FractionGrid((0.0, 1.0))).mu[0]


@pytest.mark.parametrize("command", ["km-curve", "compare"])
def test_empty_group_column_name_exit_2(run, two_arm_csv, command):
    extra = ["--ref-group", "allo"] if command == "compare" else []
    code, out, err = run(command, "--input", two_arm_csv, "--group-col", "", *extra)
    assert code == 2
    assert out == ""
    assert err == (f"survfrac {command}: error: column '' not found in header "
                   "['time', 'status', 'arm']\n")


def test_simulate_runs_without_scipy():
    # scipy is a test dependency only; a None entry makes its import fail
    src = Path(survfrac.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; sys.modules['scipy'] = None; from survfrac.cli import main; "
            "sys.exit(main(['simulate', '--n-datasets', '3', '--n', '20', "
            "'--format', 'csv']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("k,lambda,true_mu,")


def test_output_same_for_any_blas_thread_count(tmp_path):
    # no sum goes through BLAS; two arms of 10 500 distinct event times
    # give curves, pooled and per arm, long enough for a BLAS dot to split
    # over threads if one came back
    rng = np.random.default_rng(8)
    times = rng.permutation(np.arange(1, 21_001)) * 1e-3 + rng.random(21_000) * 1e-4
    lines = ["time,status,arm"] + [
        f"{t!r},1,{'AB'[i % 2]}" for i, t in enumerate(times.tolist())
    ]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    src = Path(survfrac.__file__).resolve().parents[1]
    commands = [
        ["estimate", "--input", str(path), "--format", "json"],
        ["compare", "--input", str(path), "--group-col", "arm", "--ref-group", "A",
         "--bootstrap", "100", "--restricted-mean", "--format", "json"],
    ]
    for argv in commands:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "survfrac.cli", *argv], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv[0]


def test_band_range_convention_names_the_risk_share():
    match = re.fullmatch(r"first-event-to-last-event-with-positive-survival-and-"
                         r"(\d+)pct-at-risk", CONVENTIONS["band_range"])
    assert match and int(match[1]) / 100 == km.MIN_RISK_SHARE


def test_band_note_names_both_default_range_conditions(run, tmp_path):
    # survival stays positive to the last step, but after 96 censorings at
    # t=1 no step has 5 of the 100 subjects at risk
    p = tmp_path / "late.csv"
    p.write_text("time,status\n" + "1,0\n" * 96 + "2,1\n3,1\n4,1\n5,1\n")
    code, out, _ = run("estimate", "--input", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["notes"] == [
        "band undefined: no step has positive survival with at least 5% "
        "of the sample at risk"
    ]


def test_band_level_at_or_below_the_lowest_exits_0_without_bands(run, tmp_path):
    # at or below level 1 - 4 phi(1), about 0.0321, no critical value exists
    p = tmp_path / "eight.csv"
    p.write_text("time,status\n1,1\n2,0\n2,0\n3,1\n4,0\n4,0\n4,0\n4,0\n")
    code, out, err = run("estimate", "--input", str(p), "--band-level", "0.01",
                         "--format", "json")
    assert (code, err) == (0, "")
    meta = json.loads(out)["metadata"]
    assert meta["band_coefficient"] is None
    assert meta["notes"] == ["band undefined: critical value solve failed to bracket"]
    code, out, err = run("simulate", "--n-datasets", "20", "--n", "40",
                         "--band-level", "0.01", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["metadata"]["band_undefined_count"] == 20


def test_divergent_design_fails_before_the_study(run, monkeypatch):
    import survfrac.sim

    spans = []
    monkeypatch.setattr(survfrac.sim, "_map_blocks",
                        lambda *args: spans.append(args) or [])
    code, out, err = run("simulate", "--beta", "0.9", "--lambdas", "0.5,1",
                         "--n-datasets", "20000")
    assert code == 2
    assert out == ""
    assert err == ("survfrac simulate: error: mean diverges for shape "
                   "beta=0.9 <= 1 with the grid reaching 1\n")
    assert spans == []


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan"), ("--censor-upper", "nan"),
])
def test_non_finite_design_fails_before_the_study(run, monkeypatch, flag, value):
    import survfrac.sim

    spans = []
    monkeypatch.setattr(survfrac.sim, "_map_blocks",
                        lambda *args: spans.append(args) or [])
    code, out, err = run("simulate", flag, value)
    assert code == 2
    assert out == ""
    assert err == ("survfrac simulate: error: alpha, beta and censor_upper "
                   "must be finite\n")
    assert spans == []


def test_oversized_cell_exit_2_with_row_number(run, tmp_path):
    # the csv module refuses a cell over its field size limit, even in a
    # column the command does not read
    p = tmp_path / "wide.csv"
    p.write_text("time,status,note\n1,1,a\n2,1," + "x" * 200_000 + "\n3,0,b\n")
    code, out, err = run("estimate", "--input", str(p))
    assert code == 2
    assert out == ""
    assert err == ("survfrac estimate: error: row 2: field larger than field "
                   "limit (131072)\n")


def test_non_utf8_input_exit_2(run, tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("time,status,note\n1,1,café\n2,0,x\n".encode("latin-1"))
    code, out, err = run("estimate", "--input", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("survfrac estimate: error: 'utf-8' codec can't decode byte 0xe9")


def test_non_utf8_config_exit_2(run, tmp_path):
    p = tmp_path / "latin1.conf"
    p.write_bytes("n = 20\nalpha = 1.0  # café\n".encode("latin-1"))
    code, out, err = run("simulate", "--config", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("survfrac simulate: error: 'utf-8' codec can't decode byte 0xe9")


def test_byte_order_mark_input_and_config_run(run, simple_csv, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(simple_csv).read_bytes())
    assert run("estimate", "--input", str(bom), "--format", "csv") == \
        run("estimate", "--input", simple_csv, "--format", "csv")
    cfg = tmp_path / "bom.conf"
    cfg.write_bytes(b"\xef\xbb\xbfn_datasets = 3\nn = 20\n")
    code, out, err = run("simulate", "--config", str(cfg), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["metadata"]["n_datasets"] == 3


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--band-level", "1.5"], "level must be in (0, 1), got 1.5"),
    (["km-curve", "--band-level", "0"], "level must be in (0, 1), got 0.0"),
    (["compare", "--group-col", "arm", "--ref-group", "allo", "--bootstrap", "50"],
     "need at least 100 bootstrap replicates, got 50"),
    (["compare", "--group-col", "arm", "--ref-group", "allo", "--level", "nan"],
     "level must be in (0, 1), got nan"),
    (["compare", "--group-col", "arm", "--ref-group", "allo", "--lambdas", "0.999"],
     "no grid fraction lies within max observed fraction"),
])
def test_bad_user_values_exit_2(run, two_arm_csv, argv, message):
    code, out, err = run(argv[0], "--input", two_arm_csv, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"survfrac {argv[0]}: error: {message}")


def test_program_value_error_is_not_a_user_error(simple_csv, monkeypatch):
    # exit status 2 is for bad input; a ValueError from the program's own
    # code, such as a numpy shape mismatch, must surface as itself
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(survfrac.cli, "fraction_means", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        main(["estimate", "--input", simple_csv])


@pytest.mark.parametrize("command, argv", [
    ("estimate", ["--input", "{csv}"]),
    ("compare", ["--input", "{csv}", "--group-col", "arm", "--ref-group", "allo"]),
    ("simulate", ["--n-datasets", "3", "--n", "20"]),
])
@pytest.mark.parametrize("value, message", [
    ("", "grid needs at least one fraction"),
    ("0.5,nan", "grid proportions cannot be NaN: (0.0, 0.5, nan)"),
    ("0.5,x", "could not convert string to float: 'x'"),
])
def test_bad_lambdas_flag_is_a_usage_error(capsys, two_arm_csv, command, argv,
                                           value, message):
    # every command reads --lambdas with one parser, so "" never falls back
    # to the decile grid
    argv = [arg.format(csv=two_arm_csv) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--lambdas", value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"survfrac {command}: error: argument --lambdas: {message}\n")


@pytest.mark.parametrize("line, message", [
    ("lambdas = 0.5,0.4",
     "bad value '0.5,0.4' for lambdas: grid proportions must strictly increase: "
     "(0.0, 0.5, 0.4)"),
    ("lambdas =", "bad value '' for lambdas: grid needs at least one fraction"),
    ("n = ten", "bad value 'ten' for n: invalid literal for int() with base 10: 'ten'"),
])
def test_bad_config_value_names_path_and_line(run, tmp_path, line, message):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"n_datasets = 3\n{line}\n")
    code, out, err = run("simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"survfrac simulate: error: {cfg}:2: {message}\n"


def test_truth_overflow_fails_before_the_study(run, monkeypatch):
    # (p / (1 - p))**100 overflows on (0.5, 0.9999]: a user error, found
    # before any sample is drawn, and no numpy warning reaches stderr
    import survfrac.sim

    spans = []
    monkeypatch.setattr(survfrac.sim, "_map_blocks",
                        lambda *args: spans.append(args) or [])
    code, out, err = run("simulate", "--beta", "0.01", "--lambdas", "0.5,0.9999",
                         "--n-datasets", "3", "--n", "20")
    assert code == 2
    assert out == ""
    assert err == ("survfrac simulate: error: true mean of fraction 2 (0.5, 0.9999] "
                   "is not finite for alpha=1.0, beta=0.01\n")
    assert spans == []


def test_compare_fits_each_group_once(run, two_arm_csv, monkeypatch):
    import survfrac.inference

    calls = []

    def counted(ds):
        calls.append(len(ds))
        return fit_km(ds)

    monkeypatch.setattr(survfrac.cli, "fit_km", counted)
    monkeypatch.setattr(survfrac.inference, "fit_km", counted)
    code, _, _ = run("compare", "--input", two_arm_csv, "--group-col", "arm",
                     "--ref-group", "allo", "--bootstrap", "100",
                     "--restricted-mean", "--format", "json")
    assert code == 0
    assert calls == [24, 24]


def test_negative_zero_time_is_zero(run, tmp_path):
    outputs = []
    for first, second in (("-0", "0"), ("0", "-0")):
        p = tmp_path / "zeros.csv"
        p.write_text(f"time,status\n{first},1\n{second},1\n1,0\n2,1\n")
        code, out, err = run("km-curve", "--input", str(p), "--format", "csv")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # the origin row, then one step at 0.0 for both zeros
    times = [line.split(",")[0] for line in outputs[0].splitlines()[1:]]
    assert times == ["0.0", "0.0", "2.0"]


def test_small_beta_simulate_writes_nothing_to_stderr():
    src = Path(survfrac.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["simulate", "--beta", "0.01", "--lambdas", "0.5", "--n-datasets", "3",
            "--n", "2000"]
    proc = subprocess.run([sys.executable, "-m", "survfrac.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "beta=0.01" in proc.stdout


def test_cli_import_leaves_pool_and_hashlib_unloaded():
    # a command that starts no pool and resamples nothing never needs them
    src = Path(survfrac.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, survfrac.cli; "
            "print(sorted({'concurrent.futures.process', 'hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
