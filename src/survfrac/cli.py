"""Command-line front end: estimate, compare, simulate, km-curve."""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .dataset import DataError, Dataset, parse_csv, split_by_group
from .fracmean import (
    FractionGrid,
    decile_grid,
    fraction_means,
    max_observed_fraction,
    truncate_grid,
)
from .inference import bootstrap_compare
from .km import BandUndefinedError, ep_band, fit_km
from .output import FORMATS, OutputDocument, Section, render
from .sim import SimConfig, run_study

CONVENTIONS = {
    "tie_rule": "events-before-censorings",
    "band_variant": "nair-equal-precision-untransformed",
    "band_range": "first-event-to-last-event-with-positive-survival-and-5pct-at-risk",
    "upper_bound_averaging": "finite-values-only",
    "noncomputable_fractions": "flagged-partial-sums",
}


def _default_format() -> str:
    fmt = os.environ.get("SURVFRAC_FORMAT", "table")
    if fmt in FORMATS:
        return fmt
    print(f"survfrac: warning: unknown SURVFRAC_FORMAT {fmt!r}, expected one of "
          f"{', '.join(FORMATS)}; using table", file=sys.stderr)
    return "table"


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_lambdas(text: str) -> FractionGrid:
    """Comma-separated fraction endpoints as a grid: the type of every
    command's --lambdas and of simulate's lambdas setting."""
    try:
        uppers = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        return FractionGrid.from_uppers(uppers)
    except ValueError as exc:
        # argparse prints this text; a plain ValueError would lose it
        raise argparse.ArgumentTypeError(str(exc)) from None


def _base_metadata(**extra) -> dict:
    meta = {"version": __version__}
    meta.update(extra)
    meta["conventions"] = CONVENTIONS
    return meta


def _load(args) -> Dataset:
    return parse_csv(
        args.input,
        time_col=args.time_col,
        status_col=args.status_col,
        group_col=getattr(args, "group_col", None),
    )


def _estimate_columns(fm):
    k = fm.grid.k
    lower = upper = upper_finite = [None] * k
    if fm.bounds is not None:
        lower, upper = zip(*fm.bounds)
        upper_finite = [math.isfinite(up) for up in upper]
    return {
        "k": list(range(1, k + 1)),
        "lambda": fm.grid.lambdas[1:],
        "mu": fm.mu,
        "mu_bar": fm.mu_bar,
        "lower": lower,
        "upper": upper,
        "upper_finite": upper_finite,
        "computable": fm.computable,
        "events": fm.events,
    }


def cmd_estimate(args) -> OutputDocument:
    ds = _load(args)
    curve = fit_km(ds)
    max_frac = max_observed_fraction(curve)
    grid = args.lambdas if args.lambdas is not None else decile_grid(max_frac)

    notes = []
    band = None
    try:
        band = ep_band(curve, args.band_level)
    except BandUndefinedError as exc:
        notes.append(f"band undefined: {exc}")
    fm = fraction_means(curve, grid, band=band)

    meta = _base_metadata(
        input=str(args.input),
        n=len(ds),
        events=ds.n_events,
        max_observed_fraction=max_frac,
        lambdas=list(grid.lambdas),
        band_level=args.band_level,
        band_coefficient=band.coefficient if band is not None else None,
        notes=notes,
    )
    return OutputDocument(
        command="estimate",
        metadata=meta,
        sections=[Section(columns=_estimate_columns(fm))],
    )


def _diff_columns(estimates):
    return {
        "diff": [est.point for est in estimates],
        "ci_lower": [est.ci_lower for est in estimates],
        "ci_upper": [est.ci_upper for est in estimates],
        "effective_replicates": [est.effective_replicates for est in estimates],
        "unreliable": [est.unreliable for est in estimates],
    }


def cmd_compare(args) -> OutputDocument:
    ds = _load(args)
    groups = split_by_group(ds)
    if len(groups) != 2:
        raise DataError(
            f"comparison needs exactly 2 groups, found {sorted(groups)}"
        )
    if args.ref_group not in groups:
        raise DataError(
            f"--ref-group {args.ref_group!r} not among groups {sorted(groups)}"
        )
    (other,) = [g for g in groups if g != args.ref_group]
    g0, g1 = groups[args.ref_group], groups[other]

    curves = fit_km(g0), fit_km(g1)
    common_max = min(max_observed_fraction(c) for c in curves)
    requested = args.lambdas if args.lambdas is not None else decile_grid(common_max)
    grid = truncate_grid(requested, common_max)

    horizon = None
    if args.restricted_mean == "auto":
        horizon = min(float(c.times[-1]) for c in curves)
    elif args.restricted_mean is not None:
        try:
            horizon = float(args.restricted_mean)
        except ValueError:
            raise DataError(f"bad horizon {args.restricted_mean!r}") from None

    result = bootstrap_compare(
        g0, g1, grid, horizon=horizon, B=args.bootstrap, level=args.level,
        seed=args.seed, workers=args.workers, curves=curves,
    )
    sections = [
        Section(
            label="fraction_mean_differences",
            columns={
                "k": list(range(1, grid.k + 1)),
                "lambda": grid.lambdas[1:],
                **_diff_columns(result.fractions),
            },
        )
    ]
    if horizon is not None:
        sections.append(
            Section(
                label="restricted_mean_difference",
                columns={"horizon": [horizon], **_diff_columns([result.restricted])},
            )
        )

    meta = _base_metadata(
        input=str(args.input),
        ref_group=args.ref_group,
        comparison_group=other,
        group_sizes={label: len(g) for label, g in ((args.ref_group, g0), (other, g1))},
        common_max_fraction=common_max,
        lambdas=list(grid.lambdas),
        bootstrap=args.bootstrap,
        discarded_replicates=result.discarded_replicates,
        level=args.level,
        seed=args.seed,
        restricted_mean_horizon=horizon,
    )
    return OutputDocument(command="compare", metadata=meta, sections=sections)


# simulate's settings in config-file and flag order: key -> (type, default,
# flag help); a default of None leaves the value to SimConfig
_SIM_SETTINGS = {
    "n_datasets": (int, 500, None),
    "n": (int, 200, "sample size per dataset"),
    "alpha": (float, None, "log-logistic scale"),
    "beta": (float, None, "log-logistic shape"),
    "censor_upper": (float, None, "upper end of the uniform censoring range"),
    "lambdas": (_parse_lambdas, None, "comma-separated fraction endpoints"),
    "band_level": (float, None, None),
    "seed": (int, None, None),
}


def _read_sim_config(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DataError(str(exc)) from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise DataError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in _SIM_SETTINGS:
            raise DataError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _SIM_SETTINGS[key][0](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(
                f"{path}:{line_no}: bad value {val!r} for {key}: {exc}") from None
    return values


def cmd_simulate(args) -> OutputDocument:
    settings = {key: default for key, (_, default, _) in _SIM_SETTINGS.items()
                if default is not None}
    if args.config:
        settings.update(_read_sim_config(args.config))
    settings.update((key, getattr(args, key)) for key in _SIM_SETTINGS
                    if getattr(args, key) is not None)
    if "lambdas" in settings:
        settings["grid"] = settings.pop("lambdas")
    cfg = SimConfig(**settings)
    grid = cfg.grid

    summary = run_study(cfg, workers=args.workers)
    columns = {
        "k": list(range(1, grid.k + 1)),
        "lambda": grid.lambdas[1:],
        "true_mu": summary.true_mu,
        "mean_estimate": summary.mean_estimate,
        "mean_lower": summary.mean_lower,
        "mean_upper": summary.mean_upper,
        "computable_share": summary.computable_share,
        "finite_upper_share": summary.finite_upper_share,
        "mean_events": summary.mean_events,
    }
    meta = _base_metadata(
        n_datasets=cfg.n_datasets,
        n=cfg.n,
        alpha=cfg.alpha,
        beta=cfg.beta,
        censor_upper=cfg.censor_upper,
        lambdas=list(grid.lambdas),
        band_level=cfg.band_level,
        seed=cfg.seed,
        censoring_rate=summary.censoring_rate,
        band_undefined_count=summary.band_undefined_count,
    )
    return OutputDocument(command="simulate", metadata=meta,
                          sections=[Section(columns=columns)])


def _curve_columns(curve, band):
    """The curve's columns, led by the row at time 0; the band edges are
    NaN, rendered as absent, outside the band range."""
    edges = np.full((2, len(curve)), np.nan)
    if band is not None:
        # the band covers the curve's first steps
        edges[:, : band.times.size] = band.lower, band.upper
    return {
        "time": np.concatenate(([0.0], curve.times)),
        "survival": np.concatenate(([1.0], curve.survival)),
        "at_risk": np.concatenate(([curve.n], curve.at_risk)),
        "events": np.concatenate(([0], curve.events)),
        "greenwood": np.concatenate(([0.0], curve.greenwood)),
        "lower": np.concatenate(([np.nan], edges[0])),
        "upper": np.concatenate(([np.nan], edges[1])),
    }


def cmd_km_curve(args) -> OutputDocument:
    ds = _load(args)
    if args.group_col:
        groups = split_by_group(ds)
    else:
        groups = {None: ds}
    notes = []
    sections = []
    for label, sub in groups.items():
        curve = fit_km(sub)
        band = None
        if args.band_level is not None:
            try:
                band = ep_band(curve, args.band_level)
            except BandUndefinedError as exc:
                notes.append(
                    f"band undefined for {label or 'sample'}: {exc}"
                )
        sections.append(
            Section(label=label, columns=_curve_columns(curve, band))
        )

    meta = _base_metadata(
        input=str(args.input),
        band_level=args.band_level,
        groups=[s.label for s in sections] if args.group_col else None,
        notes=notes,
    )
    return OutputDocument(command="km-curve", metadata=meta, sections=sections)


def _add_io_flags(sub, group_col=False):
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument("--time-col", default="time", help="time column name")
    sub.add_argument("--status-col", default="status",
                     help="event indicator column name (0/1)")
    if group_col:
        sub.add_argument("--group-col", default=None, help="group column name")
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help="output format (default: $SURVFRAC_FORMAT or table)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survfrac",
        description="Mean survival time by ordered fractions of a population "
                    "from right-censored data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="per-fraction mean survival")
    _add_io_flags(est)
    est.add_argument("--lambdas", type=_parse_lambdas, default=None,
                     help="comma-separated fraction endpoints "
                          "(default: deciles up to the max observed fraction)")
    est.add_argument("--band-level", type=float, default=0.95,
                     help="confidence level for band-integrated bounds")
    est.set_defaults(handler=cmd_estimate)

    cmp_ = commands.add_parser("compare", help="two-group bootstrap comparison")
    _add_io_flags(cmp_)
    cmp_.add_argument("--group-col", required=True, help="group column name")
    cmp_.add_argument("--ref-group", required=True,
                      help="reference group label (differences are other - ref)")
    cmp_.add_argument("--lambdas", type=_parse_lambdas, default=None,
                      help="comma-separated fraction endpoints (default: deciles "
                           "up to the common max observed fraction)")
    cmp_.add_argument("--bootstrap", type=int, default=2000, metavar="B",
                      help="bootstrap replicates")
    cmp_.add_argument("--level", type=float, default=0.95,
                      help="confidence level")
    cmp_.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    cmp_.add_argument("--restricted-mean", nargs="?", const="auto", default=None,
                      metavar="HORIZON",
                      help="also compare restricted means (default horizon: "
                           "smaller of the groups' last event times)")
    cmp_.add_argument("--workers", type=_worker_count, default=1,
                      help="parallel bootstrap workers")
    cmp_.set_defaults(handler=cmd_compare)

    sim = commands.add_parser("simulate", help="Monte Carlo estimator study")
    sim.add_argument("--config", default=None,
                     help="key-value config file (flags override)")
    for key, (kind, _, text) in _SIM_SETTINGS.items():
        sim.add_argument("--" + key.replace("_", "-"), type=kind, default=None, help=text)
    sim.add_argument("--workers", type=_worker_count, default=1)
    sim.add_argument("--format", choices=FORMATS, default=None)
    sim.set_defaults(handler=cmd_simulate)

    kmc = commands.add_parser("km-curve", help="export fitted curve coordinates")
    _add_io_flags(kmc, group_col=True)
    kmc.add_argument("--band-level", type=float, default=None,
                     help="attach equal-precision band columns at this level")
    kmc.set_defaults(handler=cmd_km_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except (DataError, OSError) as exc:
        print(f"survfrac {args.command}: error: {exc}", file=sys.stderr)
        return 2
    fmt = args.format if args.format else _default_format()
    sys.stdout.write(render(doc, fmt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
