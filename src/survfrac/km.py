"""Kaplan-Meier product-limit curve, quantile lookup, equal-precision bands."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DataError, Dataset, EmptyEventsError

__all__ = [
    "KmCurve",
    "BandPair",
    "BandUndefinedError",
    "fit_km",
    "survival_at",
    "quantile",
    "ep_band",
]


class BandUndefinedError(ValueError):
    """The requested confidence band does not exist on the given range."""


# The band range stops once fewer than this share of the sample
# remains at risk: the boundary-crossing approximation behind the critical
# value needs the variance weight a(t) bounded away from 1, which fails as
# the risk set dies out.
MIN_RISK_SHARE = 0.05


@dataclass(frozen=True)
class KmCurve:
    """Fitted product-limit step function.

    One step per distinct event time; censoring-only times never create
    steps.  ``survival`` holds the right-continuous curve value at each
    step, with the convention that the curve equals 1 before the first
    step.  ``greenwood`` is the cumulative variance sum
    sum_i d_i / (n_i (n_i - d_i)); it is +inf at a terminal step where the
    whole risk set dies.
    """

    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray
    greenwood: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("times", "at_risk", "events", "survival", "greenwood"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)


def _km_rows(tot: np.ndarray, ev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product-limit at-risk numbers and survival for rows of counts.

    ``tot[r, j]`` and ``ev[r, j]`` count the observations and the events of
    row ``r`` at the j-th of a shared set of sorted distinct times; a row is
    one sample, e.g. one bootstrap replicate as frequency weights over the
    original sample's times.  Returns ``(at_risk, survival)``, both shaped
    like the input: the number at risk just before each time and the
    right-continuous curve value at it.  Columns without events carry the
    previous value bit for bit, so every column is a valid curve lookup.

    The product telescopes inside a run of columns with no censoring
    between them: there ``S_j = S(before run) * (n_j - d_j) / n_start``, one
    correctly rounded division.  Runs are chained by a float cumulative
    product of their closing ratios, so after ``r`` censor-closed runs the
    relative error is within (r + 1) * 2**-52, and an uncensored row is
    exact.
    """
    tot = np.asarray(tot, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    # the count at or after each time, summed from the row's end
    at_risk = np.cumsum(tot[:, ::-1], axis=1)[:, ::-1]
    censored = tot > ev
    starts = np.ones(tot.shape, dtype=bool)
    starts[:, 1:] = censored[:, :-1]
    # at_risk never increases along a row, so the running minimum over run
    # starts is the count at the start of the current run
    n_start = np.minimum.accumulate(
        np.where(starts, at_risk, np.iinfo(np.int64).max), axis=1
    )
    ratio = np.ones(tot.shape)
    np.divide(at_risk - ev, n_start, out=ratio, where=n_start > 0)
    survival = ratio
    survival[:, 1:] *= np.cumprod(np.where(censored, ratio, 1.0), axis=1)[:, :-1]
    return at_risk, survival


class _CurveRows(NamedTuple):
    """Row form of :class:`KmCurve` for samples of one size ``n``.

    Row ``r`` holds one curve's steps in its first ``steps[r]`` columns,
    in time order; the columns after them belong to no step.
    """

    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray
    greenwood: np.ndarray
    steps: np.ndarray
    n: int


def _fit_rows(times: np.ndarray, status: np.ndarray) -> _CurveRows:
    """Row form of :func:`fit_km`: one curve per row of ``(times, status)``.

    Each row is sorted and its tied times merged into count columns,
    events first; one :func:`_km_rows` call then serves every row.  The
    order inside a tie does not matter, since a tie becomes one column; a
    block without ties (continuous draws) skips the merge.  ``fit_km`` is
    the one-row case.
    """
    rows, n = times.shape
    if not np.all(np.any(status, axis=1)):
        raise EmptyEventsError("cannot fit a curve to a sample with no events")

    # flat indices of each row's columns, for gathers along rows
    base = n * np.arange(rows)[:, None]
    sort = np.argsort(times, axis=1) + base
    t = times.ravel()[sort]
    event = status.ravel()[sort] == 1
    first = np.ones((rows, n), dtype=bool)
    first[:, 1:] = t[:, 1:] != t[:, :-1]
    if first.all():
        tot, ev, utimes = np.ones((rows, n), dtype=np.int64), event.astype(np.int64), t
    else:
        cells = (np.cumsum(first, axis=1) - 1 + base).ravel()
        tot = np.bincount(cells, minlength=rows * n).reshape(rows, n)
        ev = np.bincount(cells[event.ravel()], minlength=rows * n).reshape(rows, n)
        utimes = np.zeros((rows, n))
        utimes.ravel()[cells[first.ravel()]] = t[first]
    at_risk, survival = _km_rows(tot, ev)

    # each row's event columns to its front, in column order: the keys are
    # distinct, so one sort orders them, and the narrowest type sorts fastest
    has_event = ev > 0
    steps = has_event.sum(axis=1)
    key_type = np.min_scalar_type(2 * n - 1).type
    keys = np.arange(n, dtype=key_type) + key_type(n) * ~has_event
    pick = np.sort(keys, axis=1)[:, : steps.max()] % key_type(n) + base
    n_at = at_risk.ravel()[pick]
    d = ev.ravel()[pick]
    with np.errstate(divide="ignore", invalid="ignore"):
        gw_terms = np.where(n_at > d, d / (n_at * (n_at - d)), np.inf)
    return _CurveRows(
        times=utimes.ravel()[pick],
        at_risk=n_at,
        events=d,
        survival=survival.ravel()[pick],
        greenwood=np.cumsum(gw_terms, axis=1),
        steps=steps,
        n=n,
    )


def fit_km(ds: Dataset) -> KmCurve:
    """Fit the product-limit estimator with the Greenwood accumulator.

    Ties between events and censorings at the same time are resolved
    events-first: observations censored at t are still at risk at t.
    The curve is the one-row case of :func:`_fit_rows`, O(n log n).
    """
    rows = _fit_rows(ds.times[None], ds.status[None])
    return KmCurve(
        times=rows.times[0],
        at_risk=rows.at_risk[0],
        events=rows.events[0],
        survival=rows.survival[0],
        greenwood=rows.greenwood[0],
        n=rows.n,
    )


def survival_at(curve: KmCurve, t) -> float | np.ndarray:
    """Right-continuous step evaluation of the fitted curve.

    Returns 1 before the first step and holds the last step's value
    afterwards.  Accepts a scalar or an array of times.
    """
    idx = np.searchsorted(curve.times, np.asarray(t, dtype=float), side="right")
    out = np.concatenate(([1.0], curve.survival))[idx]
    return float(out) if out.ndim == 0 else out


def quantile(curve: KmCurve, p: float) -> float | None:
    """Estimated quantile Q(p) = smallest step time with survival <= 1 - p.

    Returns None when censoring prevents the curve from reaching level
    1 - p ("not attained").
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    target = 1.0 - p
    # survival is strictly decreasing; count step values <= target
    m = curve.survival.size
    pos = np.searchsorted(curve.survival[::-1], target, side="right")
    if pos == 0:
        return None
    return float(curve.times[m - pos])


@dataclass(frozen=True)
class BandPair:
    """Equal-precision confidence band over the curve's first steps.

    ``lower`` and ``upper`` are step functions sharing ``times``, the
    curve's event times up to the last one with positive survival and at
    least ``MIN_RISK_SHARE`` of the sample at risk, each clamped into
    [0, 1].  The curve value 1 applies before the first banded time.
    """

    level: float
    coefficient: float
    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("times", "lower", "upper"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_level(level: float) -> None:
    """Reject a confidence level outside (0, 1), NaN included."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")


def _crossing(x, log_ratio):
    """The boundary-crossing probability at ``x`` and its slope in ``x``."""
    density = np.exp(-0.5 * x * x) / _SQRT_2PI
    return (density * ((x - 1.0 / x) * log_ratio + 4.0 / x),
            density * (2.0 * log_ratio - 4.0 + (log_ratio - 4.0) / (x * x)
                       - log_ratio * x * x))


def _critical_rows(a_lower, a_upper, level: float) -> np.ndarray:
    """Two-sided equal-precision critical coefficient e_alpha for each
    pair ``(a_lower[r], a_upper[r])``.

    Solves the Brownian-bridge boundary-crossing approximation

        alpha = phi(e) * [ (e - 1/e) * L + 4/e ],  L = log(a_U (1-a_L) / (a_L (1-a_U)))

    for e; NaN where the pair lies outside 0 < a_L < a_U < 1, L is
    infinite, the level is at most 1 - 4 phi(1) (about 0.0321), or no
    bracket closes below 1e3.  The bracket starts at [1, 2] and doubles
    its upper end; Newton steps on the closed-form slope
    phi(e) [2L - 4 + (L - 4)/e**2 - L e**2] then run inside it,
    bisecting where a step would leave it, until a step moves e by at
    most 4 ulps.  Each row takes its own steps to within a few ulps of
    the root.  Every band's coefficient comes from here, through
    :func:`_band_rows`; a tabulated coefficient can be substituted here.
    """
    alpha = 1.0 - level
    a_lower = np.asarray(a_lower, dtype=float)
    a_upper = np.asarray(a_upper, dtype=float)
    coeff = np.full(a_lower.shape, np.nan)
    rows = np.flatnonzero((0.0 < a_lower) & (a_lower < a_upper) & (a_upper < 1.0))
    a_lo, a_hi = a_lower[rows], a_upper[rows]
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(a_hi * (1.0 - a_lo) / (a_lo * (1.0 - a_hi)))
    # an infinite log ratio (a_L (1 - a_U) below the float range) puts the
    # crossing above alpha at every x, so no bracket closes; and at the
    # bracket's lower end 1 the crossing is 4 phi(1) whatever L, so at a
    # level of 1 - 4 phi(1) or below the bracket is invalid from the start
    with np.errstate(invalid="ignore"):
        opens = np.isfinite(log_ratio) & (_crossing(1.0, log_ratio)[0] > alpha)
    rows, log_ratio = rows[opens], log_ratio[opens]

    lo, hi = np.ones(rows.size), np.full(rows.size, 2.0)
    growing = np.ones(rows.size, dtype=bool)
    while growing.any():
        growing &= _crossing(hi, log_ratio)[0] > alpha
        hi[growing] *= 2.0
        growing &= hi <= 1e3
    keep = hi <= 1e3
    rows, log_ratio, lo, hi = rows[keep], log_ratio[keep], lo[keep], hi[keep]

    x = 0.5 * (lo + hi)
    active = np.ones(rows.size, dtype=bool)
    while active.any():
        value, slope = _crossing(x, log_ratio)
        lo, hi = np.where(value > alpha, x, lo), np.where(value > alpha, hi, x)
        # a step of at most 4 ulps ends the row even where rounding puts it
        # outside the bracket; the slope is 0 where the density underflows
        with np.errstate(divide="ignore"):
            newton = x - (value - alpha) / slope
        tol = 4.0 * np.spacing(x)
        near = np.abs(newton - x) <= tol
        step = np.where(near | ((lo < newton) & (newton < hi)), newton, 0.5 * (lo + hi))
        moved = np.abs(step - x) > tol
        x = np.where(active, step, x)
        active &= moved
    coeff[rows] = x
    return coeff


def ep_band(curve: KmCurve, level: float) -> BandPair:
    """Equal-precision confidence band (linear, untransformed) for the curve.

    The band is S(t) -+ e_alpha * S(t) * sqrt(greenwood(t)), clamped to
    [0, 1], over the curve's first steps: from the first event time to the
    last event time where survival is still positive and at least
    ``MIN_RISK_SHARE`` of the sample remains at risk (the band is undefined
    where the curve sits at 0 or 1, and unreliable once the risk set has
    nearly emptied).  This is the one-row case of :func:`_band_rows`.
    """
    _check_level(level)
    if len(curve) == 0:
        raise BandUndefinedError("curve has no steps")
    (width,), coeff, lower, upper, (reason,) = _band_rows(
        curve.survival[None], curve.greenwood[None], curve.at_risk[None], curve.n,
        [len(curve)], level)
    if reason is not None:
        raise BandUndefinedError(reason)
    return BandPair(level=level, coefficient=float(coeff[0]), times=curve.times[:width],
                    lower=lower[0, :width], upper=upper[0, :width])


def _band_rows(survival, greenwood, at_risk, n: int, steps, level: float):
    """Equal-precision bands on rows of curves of sample size ``n``, laid
    out as :class:`_CurveRows`.  A row's range is its columns up to the
    last step with positive survival and at least ``MIN_RISK_SHARE`` of
    the sample at risk.

    Returns ``(width, coeff, lower, upper, reasons)``: per row the width
    of the band, 0 exactly where the row has none, and the critical value
    (NaN without a band); the clamped edges over all columns; and per row
    None where the band exists or the reason it does not.
    """
    rows, cols = survival.shape
    column = np.arange(cols)
    usable = ((survival > 0.0) & (at_risk >= MIN_RISK_SHARE * n)
              & (column < np.asarray(steps)[:, None]))
    width = np.where(usable.any(axis=1), cols - np.argmax(usable[:, ::-1], axis=1), 0)
    inside = column < width[:, None]
    at_zero = np.any(inside & ((survival <= 0.0) | ~np.isfinite(greenwood)), axis=1)
    with np.errstate(invalid="ignore"):
        a_vals = n * greenwood / (1.0 + n * greenwood)
    a_lo, a_hi = a_vals[:, 0], a_vals[np.arange(rows), width - 1]
    coeff = np.full(rows, np.nan)
    solve = (width > 0) & ~at_zero & (a_lo < a_hi)
    coeff[solve] = _critical_rows(a_lo[solve], a_hi[solve], level)
    reasons = [None] * rows
    for r in np.flatnonzero(np.isnan(coeff)).tolist():
        lo, hi = float(a_lo[r]), float(a_hi[r])
        if width[r] == 0:
            reasons[r] = (f"no step has positive survival with at least "
                          f"{MIN_RISK_SHARE:.0%} of the sample at risk")
        elif at_zero[r]:
            reasons[r] = "band range includes times where survival is 0"
        elif not lo < hi:
            reasons[r] = f"degenerate range: a(t_L) = a(t_U) = {lo:.6g}"
        elif not 0.0 < lo < hi < 1.0:
            reasons[r] = f"band requires 0 < a_L < a_U < 1, got ({lo}, {hi})"
        else:
            reasons[r] = "critical value solve failed to bracket"
    with np.errstate(invalid="ignore"):
        half_width = coeff[:, None] * survival * np.sqrt(greenwood)
    return (np.where(np.isnan(coeff), 0, width), coeff,
            np.clip(survival - half_width, 0.0, 1.0),
            np.clip(survival + half_width, 0.0, 1.0), reasons)
