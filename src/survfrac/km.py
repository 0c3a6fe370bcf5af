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
    "ep_critical_value",
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
    """Equal-precision confidence band on a time range.

    ``lower`` and ``upper`` are step functions sharing ``times``, the
    curve's first event times up to the end of ``range``, each clamped into
    [0, 1].  The curve value 1 applies before the first banded time.
    """

    level: float
    coefficient: float
    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    range: tuple[float, float]

    def __post_init__(self):
        for name in ("times", "lower", "upper"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


_EP_TOL = 1e-6  # absolute tolerance of the critical-value bisection
# np.exp may differ from math.exp in the last bit.  A crossing value within
# this share of alpha is recomputed with math.exp, so every bracket and
# bisection decision is the one the scalar solve makes.
_EXP_GUARD = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_level(level: float) -> None:
    """Reject a confidence level outside (0, 1), NaN included."""
    if not 0.0 < level < 1.0:
        raise DataError(f"level must be in (0, 1), got {level}")


def _crossing(x, log_ratio, exp):
    """The boundary-crossing probability at ``x``, with ``exp`` for e**."""
    return exp(-0.5 * x * x) / _SQRT_2PI * ((x - 1.0 / x) * log_ratio + 4.0 / x)


def _above(x: np.ndarray, log_ratio: np.ndarray, alpha: float) -> np.ndarray:
    """``crossing(x) > alpha`` per element, decided as with ``math.exp``."""
    value = _crossing(x, log_ratio, np.exp)
    above = value > alpha
    for i in np.flatnonzero(np.abs(value - alpha) <= _EXP_GUARD * alpha).tolist():
        above[i] = _crossing(float(x[i]), float(log_ratio[i]), math.exp) > alpha
    return above


def _critical_rows(a_lower, a_upper, level: float) -> np.ndarray:
    """Row form of :func:`ep_critical_value`: e_alpha for each pair
    ``(a_lower[r], a_upper[r])``, NaN where the pair lies outside
    0 < a_L < a_U < 1 or no bracket closes below 1e3.

    Every row runs the scalar bracket and bisection, all rows at once; a
    row that has stopped is carried along unchanged.
    """
    alpha = 1.0 - level
    a_lower = np.asarray(a_lower, dtype=float)
    a_upper = np.asarray(a_upper, dtype=float)
    coeff = np.full(a_lower.shape, np.nan)
    rows = np.flatnonzero((0.0 < a_lower) & (a_lower < a_upper) & (a_upper < 1.0))
    a_lo, a_hi = a_lower[rows], a_upper[rows]
    with np.errstate(divide="ignore", over="ignore"):
        ratio = a_hi * (1.0 - a_lo) / (a_lo * (1.0 - a_hi))
    log_ratio = np.array([math.log(v) for v in ratio.tolist()])
    # an infinite log ratio (a_L (1 - a_U) below the float range) puts the
    # crossing above alpha at every x, so no bracket closes
    finite = np.isfinite(log_ratio)
    rows, log_ratio = rows[finite], log_ratio[finite]

    lo, hi = np.ones(rows.size), np.full(rows.size, 2.0)
    growing = np.ones(rows.size, dtype=bool)
    while growing.any():
        growing &= _above(hi, log_ratio, alpha)
        hi[growing] *= 2.0
        growing &= hi <= 1e3
    bracketed = hi <= 1e3

    active = bracketed & (hi - lo > _EP_TOL)
    while active.any():
        mid = 0.5 * (lo + hi)
        up = _above(mid, log_ratio, alpha)
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        active &= hi - lo > _EP_TOL
    coeff[rows[bracketed]] = (0.5 * (lo + hi))[bracketed]
    return coeff


def _unsolved(a_lower, a_upper) -> str:
    """Why :func:`_critical_rows` gives no value for the pair."""
    if not 0.0 < a_lower < a_upper < 1.0:
        return f"band requires 0 < a_L < a_U < 1, got ({a_lower}, {a_upper})"
    return "critical value solve failed to bracket"


def ep_critical_value(a_lower: float, a_upper: float, level: float) -> float:
    """Two-sided equal-precision critical coefficient e_alpha.

    Solves the Brownian-bridge boundary-crossing approximation

        alpha = phi(e) * [ (e - 1/e) * log(a_U (1-a_L) / (a_L (1-a_U))) + 4/e ]

    for e by bisection to absolute tolerance ``_EP_TOL``.  This is the
    one-row case of :func:`_critical_rows`, which every band calls; a
    tabulated coefficient can be substituted there if preferred.
    """
    _check_level(level)
    coeff = float(_critical_rows([a_lower], [a_upper], level)[0])
    if math.isnan(coeff):
        raise BandUndefinedError(_unsolved(a_lower, a_upper))
    return coeff


def ep_band(curve: KmCurve, level: float) -> BandPair:
    """Equal-precision confidence band (linear, untransformed) for the curve.

    The band is S(t) -+ e_alpha * S(t) * sqrt(greenwood(t)), clamped to
    [0, 1], over the curve's first steps: from the first event time to the
    last event time where survival is still positive and at least
    ``MIN_RISK_SHARE`` of the sample remains at risk (the band is undefined
    where the curve sits at 0 or 1, and unreliable once the risk set has
    nearly emptied).
    """
    _check_level(level)
    if len(curve) == 0:
        raise BandUndefinedError("curve has no steps")
    width = _range_widths(curve.survival[None], curve.at_risk[None], curve.n, [len(curve)])
    coeff, lower, upper, (reason,) = _band_rows(
        curve.survival[None], curve.greenwood[None], curve.n, width, level)
    if reason is not None:
        raise BandUndefinedError(reason)
    times = curve.times[: width[0]]
    return BandPair(level=level, coefficient=float(coeff[0]), times=times,
                    lower=lower[0, : times.size], upper=upper[0, : times.size],
                    range=(float(times[0]), float(times[-1])))


def _range_widths(survival, at_risk, n: int, steps) -> np.ndarray:
    """Width of each row's band range, rows laid out as
    :class:`_CurveRows`: the columns up to the last step with positive
    survival and at least ``MIN_RISK_SHARE`` at risk, or 0 if none has."""
    cols = survival.shape[1]
    usable = ((survival > 0.0) & (at_risk >= MIN_RISK_SHARE * n)
              & (np.arange(cols) < np.asarray(steps)[:, None]))
    return np.where(usable.any(axis=1), cols - np.argmax(usable[:, ::-1], axis=1), 0)


def _band_rows(survival, greenwood, n: int, width, level: float):
    """Equal-precision bands on rows of curves of sample size ``n``: row
    ``r``'s range is its first ``width[r]`` columns, and every row has a
    column.  :func:`ep_band` is the one-row case.

    Returns ``(coeff, lower, upper, reasons)``: the critical value per row
    (NaN without a band), the clamped edges over all columns, and per row
    None where the band exists or the reason it does not.
    """
    width = np.asarray(width)
    rows, cols = survival.shape
    inside = np.arange(cols) < width[:, None]
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
        else:
            reasons[r] = _unsolved(lo, hi)
    with np.errstate(invalid="ignore"):
        half_width = coeff[:, None] * survival * np.sqrt(greenwood)
    return (coeff, np.clip(survival - half_width, 0.0, 1.0),
            np.clip(survival + half_width, 0.0, 1.0), reasons)
