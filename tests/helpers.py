"""Shared test utilities: sample generators and independent oracles."""

import csv
import io
import json
import math

import numpy as np

from survfrac import (
    BandPair,
    BandUndefinedError,
    DataError,
    Dataset,
    EmptyEventsError,
    FractionMeans,
    KmCurve,
    RowError,
    SchemaError,
    FractionGrid,
    fit_km,
    quantile,
)
from survfrac.km import MIN_RISK_SHARE, _km_rows


def random_censored_dataset(rng, n=None, n_range=(5, 50), tie_share=0.0):
    """A random right-censored sample with at least one event.

    Event times come from a random positive family; censoring is uniform
    with a random horizon, so censoring fractions vary widely.  With
    ``tie_share`` > 0 times are rounded to force ties.
    """
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        t = rng.exponential(scale=1.0, size=n)
    elif kind == 1:
        t = rng.uniform(0.0, 2.0, size=n)
    else:
        u = rng.random(n)
        t = (u / (1 - u)) ** 0.5
    horizon = rng.uniform(0.3, 3.0)
    c = rng.uniform(0.0, horizon, size=n)
    times = np.minimum(t, c)
    status = (t <= c).astype(np.int64)
    if tie_share > 0:
        times = np.round(times / tie_share) * tie_share
    if status.sum() == 0:
        status[int(rng.integers(0, n))] = 1
    return Dataset(times=times, status=status)


def random_grid(rng, max_fraction, max_knots=4):
    """A random valid grid with every fraction inside ``max_fraction``."""
    k = int(rng.integers(1, max_knots + 1))
    uppers = np.sort(rng.uniform(0.02, 1.0, size=k)) * max_fraction
    uppers = np.unique(np.round(uppers, 6))
    uppers = uppers[uppers > 0]
    if uppers.size == 0:
        uppers = np.array([max_fraction / 2])
    return FractionGrid.from_uppers(uppers)


def grid_on_steps(values):
    """A grid with a window edge at each survival value below 1: on the
    value where ``1 - (1 - v)`` gives ``v`` back, else within 2**-54."""
    uppers = sorted({1.0 - v for v in values.tolist() if v < 1.0})
    return FractionGrid.from_uppers(uppers) if uppers else None


def step_quantile_mu(curve, grid):
    """Second estimator form: sum of Q(p_j) * (p_j - p_{j-1}) per fraction.

    Walks the jump probabilities p_j = 1 - S(y_j), clamps each increment to
    the fraction, and evaluates the quantile function through
    :func:`survfrac.quantile` so the route is independent of the
    survival-increment formula.
    """
    p = 1.0 - curve.survival
    p_prev = np.concatenate(([0.0], p[:-1]))
    out = []
    for lam_a, lam_b in zip(grid.lambdas, grid.lambdas[1:]):
        total = 0.0
        for j in range(p.size):
            lo = max(p_prev[j], lam_a)
            hi = min(p[j], lam_b)
            if hi > lo:
                # probe strictly inside the increment: robust to the 1 ulp
                # wobble of 1 - (1 - s) at the endpoints
                total += quantile(curve, 0.5 * (lo + hi)) * (hi - lo)
        out.append(total)
    return out


def midpoint_quadrature_mu(curve, grid, panels):
    """Midpoint-rule integral of the estimated quantile step function."""
    cumprob = 1.0 - curve.survival
    out = []
    for lam_a, lam_b in zip(grid.lambdas, grid.lambdas[1:]):
        width = lam_b - lam_a
        mids = lam_a + (np.arange(panels) + 0.5) * (width / panels)
        idx = np.searchsorted(cumprob, mids, side="left")
        inside = idx < cumprob.size
        vals = np.where(inside, curve.times[np.minimum(idx, cumprob.size - 1)], 0.0)
        out.append(float(vals.sum() * (width / panels)))
    return out


def empirical_survival(times, t):
    """Counting oracle: share of observations strictly greater than t."""
    times = np.asarray(times, dtype=float)
    return float((times > t).sum()) / times.size


def uncensored(times):
    times = np.asarray(times, dtype=float)
    return Dataset(times=times, status=np.ones(times.size, dtype=np.int64))


def km_curve_of(times, status):
    return fit_km(
        Dataset(
            times=np.asarray(times, dtype=float),
            status=np.asarray(status, dtype=np.int64),
        )
    )


def resample(ds, seed, digest, replicate):
    """One bootstrap replicate drawn from a fresh Philox generator.

    The per-replicate reference for the batched engine: the same stream
    contract (key = (seed, group digest), counter = (0, 0, 0, replicate)),
    drawn the slow way.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(digest)])
    counter = np.array([0, 0, 0, replicate], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    idx = rng.integers(0, len(ds), size=len(ds))
    return Dataset(times=ds.times[idx], status=ds.status[idx])


def study_replicate(cfg, index):
    """One simulation-study sample drawn from a fresh Philox generator.

    The stream contract of the batched study (key = (seed, index), counter
    0, event uniforms then censoring uniforms), drawn the slow way.
    """
    key = np.array([np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    rng = np.random.Generator(np.random.Philox(key=key))
    u_event = rng.random(cfg.n)
    u_censor = rng.random(cfg.n)
    t = cfg.alpha * (u_event / (1.0 - u_event)) ** (1.0 / cfg.beta)
    c = cfg.censor_upper * u_censor
    return Dataset(times=np.minimum(t, c), status=(t <= c).astype(np.int64))


def reference_fit_km(ds):
    """Per-sample KM fit: the reference for the row kernel ``km._fit_rows``.

    Merges tied times with ``np.unique`` and ``np.add.reduceat`` and keeps
    the event times afterwards, where the row kernel counts cells with
    ``bincount`` and sorts the event columns to the front.  Survival comes
    from the shared telescoped product ``km._km_rows`` on one row.
    """
    if ds.n_events == 0:
        raise EmptyEventsError("cannot fit a curve to a sample with no events")

    order = np.argsort(ds.times, kind="stable")
    times = ds.times[order]
    status = ds.status[order]
    n_total = times.size

    utimes, first_idx = np.unique(times, return_index=True)
    tot = np.diff(first_idx, append=n_total)
    d = np.add.reduceat(status, first_idx)
    at_risk, survival = _km_rows(tot[None, :], d[None, :])

    keep = d > 0
    step_times = utimes[keep]
    d = d[keep]
    n_at = at_risk[0, keep]
    survival = survival[0, keep]

    with np.errstate(divide="ignore", invalid="ignore"):
        gw_terms = np.where(n_at > d, d / (n_at * (n_at - d)), np.inf)
    greenwood = np.cumsum(gw_terms)

    return KmCurve(
        times=step_times.astype(float),
        at_risk=n_at.astype(np.int64),
        events=d.astype(np.int64),
        survival=survival,
        greenwood=greenwood,
        n=int(n_total),
    )


def assert_sum_close(got, want, terms):
    """``got`` within ``(terms + 2) * 2**-53`` of ``want`` relative, entry by
    entry, for sums of ``terms`` nonnegative terms: two roundings per term
    and ``terms - 1`` additions, in any order.  A NaN or infinite ``want``
    must be met exactly."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True), (got, want)
    bound = (np.broadcast_to(terms, want.shape)[finite] + 2) * 2.0**-53
    assert np.all(np.abs(got[finite] - want[finite]) <= bound * np.abs(want[finite])), (
        got, want)


def _reference_window_masses(times, edge, gamma_hi, gamma_lo):
    """Integral of the step quantile function of ``edge`` over one window.

    ``edge`` is a decreasing survival step sequence at ``times`` with
    leading value 1; the window is the survival interval
    [gamma_lo, gamma_hi].  Returns (mass, overlap-per-step).
    """
    prev = np.concatenate(([1.0], edge[:-1]))
    overlap = np.minimum(prev, gamma_hi) - np.maximum(edge, gamma_lo)
    overlap = np.maximum(overlap, 0.0)
    return math.fsum((times * overlap).tolist()), overlap


def reference_fraction_means(curve, grid, band=None):
    """Per-fraction loop: the reference for ``fracmean._window_masses`` on
    a fitted curve."""
    gammas = grid.gammas
    widths = grid.widths
    s = curve.survival
    y = curve.times
    d = curve.events

    mu, mu_bar, computable, events = [], [], [], []
    for k in range(1, len(gammas)):
        hi, lo = gammas[k - 1], gammas[k]
        mass, overlap = _reference_window_masses(y, s, hi, lo)
        mu.append(mass)
        mu_bar.append(mass / widths[k - 1])
        computable.append(bool(np.any(s <= lo)))
        events.append(int(d[overlap > 0.0].sum()))

    bounds = (reference_fraction_mean_bounds(curve, band, grid)
              if band is not None else None)
    return FractionMeans(
        grid=grid,
        mu=tuple(mu),
        mu_bar=tuple(mu_bar),
        computable=tuple(computable),
        events=tuple(events),
        bounds=bounds,
    )


def reference_fraction_mean_bounds(curve, band, grid):
    """Per-fraction loop: the reference for ``fracmean._fraction_bound_rows``."""
    lower_edge = np.minimum.accumulate(band.lower)
    upper_edge = np.minimum.accumulate(band.upper)
    t = band.times
    gammas = grid.gammas

    out = []
    for k in range(1, len(gammas)):
        hi, lo = gammas[k - 1], gammas[k]
        lo_mass, _ = _reference_window_masses(t, lower_edge, hi, lo)
        if upper_edge[-1] <= lo:
            up_mass, _ = _reference_window_masses(t, upper_edge, hi, lo)
        else:
            up_mass = math.inf
        out.append((lo_mass, up_mass))
    return tuple(out)


def reference_restricted_mean(curve, horizon):
    """Per-curve area to ``horizon``: the reference for
    ``fracmean._restricted_mean_rows``."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    clipped = np.minimum(curve.times, horizon)
    starts = np.concatenate(([0.0], clipped))
    ends = np.concatenate((clipped, [horizon]))
    values = np.concatenate(([1.0], curve.survival))
    return math.fsum((values * np.maximum(ends - starts, 0.0)).tolist())


def reference_ep_critical_value(a_lower, a_upper, level):
    """Scalar bisection with ``math.exp``: the reference for
    ``km._critical_rows``, step for step."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")
    if not 0.0 < a_lower < a_upper < 1.0:
        raise BandUndefinedError(
            f"band requires 0 < a_L < a_U < 1, got ({a_lower}, {a_upper})"
        )
    alpha = 1.0 - level
    log_ratio = math.log(a_upper * (1.0 - a_lower) / (a_lower * (1.0 - a_upper)))

    def crossing(x):
        dens = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return dens * ((x - 1.0 / x) * log_ratio + 4.0 / x)

    lo, hi = 1.0, 2.0
    while crossing(hi) > alpha:
        hi *= 2.0
        if hi > 1e3:
            raise BandUndefinedError("critical value solve failed to bracket")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if crossing(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_ep_band(curve, level):
    """Per-curve band: the reference for ``km._band_rows``.

    Finds the range, then checks and builds the one band with 1-D array
    operations; each undefined case raises as soon as it is found.
    """
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")
    if len(curve) == 0:
        raise BandUndefinedError("curve has no steps")

    usable = (curve.survival > 0.0) & (
        curve.at_risk >= MIN_RISK_SHARE * curve.n
    )
    if not np.any(usable):
        raise BandUndefinedError(
            f"no step has positive survival with at least "
            f"{MIN_RISK_SHARE:.0%} of the sample at risk"
        )
    t_lo = float(curve.times[0])
    t_hi = float(curve.times[np.nonzero(usable)[0][-1]])

    inside = (curve.times >= t_lo) & (curve.times <= t_hi)
    times = curve.times[inside]
    surv = curve.survival[inside]
    gw = curve.greenwood[inside]
    if np.any(surv <= 0.0) or np.any(~np.isfinite(gw)):
        raise BandUndefinedError("band range includes times where survival is 0")

    n = curve.n
    a_vals = n * gw / (1.0 + n * gw)
    a_lo, a_hi = float(a_vals[0]), float(a_vals[-1])
    if not a_lo < a_hi:
        raise BandUndefinedError(
            f"degenerate range: a(t_L) = a(t_U) = {a_lo:.6g}"
        )
    coeff = reference_ep_critical_value(a_lo, a_hi, level)

    half_width = coeff * surv * np.sqrt(gw)
    lower = np.clip(surv - half_width, 0.0, 1.0)
    upper = np.clip(surv + half_width, 0.0, 1.0)
    return BandPair(
        level=level,
        coefficient=coeff,
        times=times,
        lower=lower,
        upper=upper,
        range=(t_lo, t_hi),
    )


def replicate_stats(cfg, index):
    """One study replicate through the per-sample references.

    The per-replicate reference for the block-batched study: returns
    (mu, computable, events, bounds, band_ok, censored, steps, band_steps)
    from ``reference_fit_km``, ``reference_fraction_means``,
    ``reference_ep_band`` and ``reference_fraction_mean_bounds``; a
    replicate without a band gets the bounds (nan, inf).  ``steps`` and
    ``band_steps`` count the terms each mass of the curve and of the band
    edges sums.
    """
    ds = study_replicate(cfg, index)
    curve = reference_fit_km(ds)
    fm = reference_fraction_means(curve, cfg.grid)
    try:
        band = reference_ep_band(curve, cfg.band_level)
        bounds = reference_fraction_mean_bounds(curve, band, cfg.grid)
        band_ok, band_steps = True, band.times.size
    except BandUndefinedError:
        bounds = ((math.nan, math.inf),) * cfg.grid.k
        band_ok, band_steps = False, 0
    return (fm.mu, fm.computable, fm.events, bounds, band_ok, len(ds) - ds.n_events,
            len(curve), band_steps)


def reference_parse_csv(source, time_col="time", status_col="status", group_col=None):
    """Row-loop CSV reader: the reference for the columnar ``parse_csv``.

    Converts and checks one row at a time and raises on the first bad
    row; blank rows are skipped but counted.
    """
    stream = io.StringIO(source.decode("utf-8")) if isinstance(source, bytes) else source
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row") from None
    header = [h.strip() for h in header]
    index = {}
    for name in (time_col, status_col) + ((group_col,) if group_col is not None else ()):
        if name not in header:
            raise SchemaError(f"column {name!r} not found in header {header}")
        index[name] = header.index(name)

    times, status, groups = [], [], []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) < len(header):
            raise RowError(row_no, f"expected {len(header)} cells, got {len(row)}")
        t_text = row[index[time_col]].strip()
        s_text = row[index[status_col]].strip()
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
        if group_col is not None:
            g = row[index[group_col]].strip()
            if g == "":
                raise RowError(row_no, f"empty group cell in column {group_col!r}")
            groups.append(g)
        times.append(t)
        status.append(s)

    if not times:
        raise DataError("input has no data rows")
    if not any(status):
        raise EmptyEventsError("input contains no observed events")
    return Dataset(
        times=np.asarray(times, dtype=float),
        status=np.asarray(status, dtype=np.int64),
        groups=tuple(groups) if group_col is not None else None,
    )


def _ref_plain(value):
    if value is None or isinstance(value, (bool, str, int)):
        return value
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _ref_sanitize(obj):
    if isinstance(obj, dict):
        return {key: _ref_sanitize(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_sanitize(val) for val in obj]
    return _ref_plain(obj)


def _ref_cell_text(value, human):
    value = _ref_plain(value)
    if value is None:
        return "-" if human else ""
    if isinstance(value, bool):
        return ("yes" if value else "no") if human else ("true" if value else "false")
    if isinstance(value, float):
        return f"{value:.6g}" if human else repr(value)
    return str(value)


def section_rows(sec):
    """A column-held section as per-row dicts; an array column's cells are
    the Python scalars of its ``tolist()``."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in sec.columns.values()]
    return [dict(zip(sec.columns, row)) for row in zip(*cells)]


def reference_render(doc, fmt):
    """Row-at-a-time renderers: the reference for ``survfrac.output.render``."""
    if fmt == "json":
        payload = {
            "command": doc.command,
            "metadata": _ref_sanitize(doc.metadata),
            "sections": [
                {
                    "label": sec.label,
                    "columns": list(sec.columns),
                    "rows": [_ref_sanitize(row) for row in section_rows(sec)],
                }
                for sec in doc.sections
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        many = len(doc.sections) > 1
        for sec in doc.sections:
            if many:
                buf.write(f"# section: {sec.label or ''}\n")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(list(sec.columns))
            for row in section_rows(sec):
                writer.writerow([_ref_cell_text(row.get(c), human=False) for c in sec.columns])
        return buf.getvalue()
    lines = []
    meta_bits = []
    for key, val in doc.metadata.items():
        if isinstance(val, dict):
            continue
        if isinstance(val, (list, tuple)):
            if not val:
                continue
            text = ",".join(_ref_cell_text(v, human=True) for v in val)
        else:
            text = _ref_cell_text(val, human=True)
        meta_bits.append(f"{key}={text}")
    lines.append(f"# {doc.command}: " + "  ".join(meta_bits))
    for sec in doc.sections:
        if sec.label:
            lines.append(f"## {sec.label}")
        columns = list(sec.columns)
        texts = [
            [_ref_cell_text(row.get(c), human=True) for c in columns]
            for row in section_rows(sec)
        ]
        widths = [
            max(len(c), *(len(t[i]) for t in texts)) if texts else len(c)
            for i, c in enumerate(columns)
        ]
        lines.append("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
        for t in texts:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(t, widths)))
    return "\n".join(lines) + "\n"
