"""Mean survival by ordered population fractions over a proportion grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError
from .km import BandPair, KmCurve

__all__ = [
    "FractionGrid",
    "FractionMeans",
    "max_observed_fraction",
    "fraction_means",
    "fraction_mean_bounds",
    "restricted_mean",
    "truncate_grid",
    "decile_grid",
]


@dataclass(frozen=True)
class FractionGrid:
    """Ordered proportions 0 = lambda_0 < lambda_1 < ... < lambda_K <= 1.

    Fraction k covers the population slice (lambda_{k-1}, lambda_k].  On the
    survival scale the slice maps to gamma values 1 - lambda.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) < 2:
            raise DataError("grid needs at least one fraction")
        if lams[0] != 0.0:
            raise DataError(f"grid must start at 0, got {lams[0]}")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise DataError(f"grid proportions must strictly increase: {lams}")
        if lams[-1] > 1.0:
            raise DataError(f"grid proportions cannot exceed 1: {lams[-1]}")
        if any(map(math.isnan, lams)):
            raise DataError(f"grid proportions cannot be NaN: {lams}")

    @classmethod
    def from_uppers(cls, uppers) -> "FractionGrid":
        """Build a grid from the fraction upper endpoints (lambda_0 = 0 implied)."""
        uppers = tuple(float(x) for x in uppers)
        if uppers and uppers[0] == 0.0:
            uppers = uppers[1:]
        return cls((0.0,) + uppers)

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(1.0 - lam for lam in self.lambdas)

    @property
    def k(self) -> int:
        return len(self.lambdas) - 1

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lambdas, self.lambdas[1:]))


@dataclass(frozen=True)
class FractionMeans:
    """Per-fraction estimates over a grid.

    ``mu[k]`` integrates the estimated quantile step function over fraction
    k+1; ``mu_bar`` divides by the fraction width.  A fraction whose upper
    gamma level is never reached by the fitted curve is reported as a
    flagged partial sum (``computable[k]`` False) rather than an error.
    ``bounds`` entries may hold ``math.inf`` uppers.
    """

    grid: FractionGrid
    mu: tuple[float, ...]
    mu_bar: tuple[float, ...]
    computable: tuple[bool, ...]
    events: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...] | None = None


def max_observed_fraction(curve: KmCurve) -> float:
    """Largest proportion of the population observed to fail: 1 - S(last event)."""
    if len(curve) == 0:
        raise ValueError("curve has no steps")
    return 1.0 - float(curve.survival[-1])


# OpenBLAS splits a dot longer than 10 000 elements over its threads and
# adds the partial sums in an order that depends on the thread count.
_DOT_CHUNK = 8192


def _dot(x, y):
    """Product sum over the last axis of ``x`` and ``y``, the same for any
    BLAS thread count.

    Up to ``_DOT_CHUNK`` elements this is one BLAS dot per broadcast pair
    of rows, through ``np.matmul``; longer sums are taken in chunks of that
    length, added left to right.
    """
    def part(a, b):
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]

    if x.shape[-1] <= _DOT_CHUNK:
        return part(x, y)
    total = part(x[..., :_DOT_CHUNK], y[..., :_DOT_CHUNK])
    for start in range(_DOT_CHUNK, x.shape[-1], _DOT_CHUNK):
        stop = start + _DOT_CHUNK
        total = total + part(x[..., start:stop], y[..., start:stop])
    return total


def fraction_means(
    curve: KmCurve,
    grid: FractionGrid,
    band: BandPair | None = None,
) -> FractionMeans:
    """Estimate the mean survival contribution of each population fraction.

    For fraction k the estimate sums, over curve steps whose survival lies
    in the window [gamma_k, gamma_{k-1}],

        y_j * [ min(S(y_{j-1}), gamma_{k-1}) - max(S(y_j), gamma_k) ]

    with the leading convention S(y_0) = 1.  ``events[k]`` counts the
    observed events at steps contributing positive mass; a step straddling
    a window boundary counts in both adjacent fractions.  This is the
    one-row case of :func:`_fraction_mean_rows`.

    When ``band`` is given, per-fraction bounds from
    :func:`fraction_mean_bounds` are attached.
    """
    mu, computable, events = _fraction_mean_rows(
        curve.times[None], curve.survival[None], curve.events[None],
        np.array([len(curve)]), grid,
    )
    bounds = fraction_mean_bounds(curve, band, grid) if band is not None else None
    return FractionMeans(
        grid=grid,
        mu=tuple(mu[0].tolist()),
        mu_bar=tuple((mu[0] / np.asarray(grid.widths)).tolist()),
        computable=tuple(computable[0].tolist()),
        events=tuple(events[0].tolist()),
        bounds=bounds,
    )


def fraction_mean_bounds(
    curve: KmCurve,
    band: BandPair,
    grid: FractionGrid,
) -> tuple[tuple[float, float], ...]:
    """Band-integrated bounds for each fraction mean.

    Applies the fraction-mean formula to the band's lower and upper
    survival edges (restricted to the band range, running-minimum
    monotonized so the first-crossing quantile inversion is well defined).
    When the upper edge never descends to gamma_k inside the band range no
    finite upper bound exists and +inf is reported; the lower edge
    contributes whatever mass it attains.  This is the one-row case of
    :func:`_fraction_bound_rows`.
    """
    lower, upper = _fraction_bound_rows(
        band.times[None], band.lower[None], band.upper[None],
        np.array([band.times.size]), np.array([True]), grid,
    )
    return tuple(zip(lower[0].tolist(), upper[0].tolist()))


def restricted_mean(curve: KmCurve, horizon: float) -> float:
    """Area under the fitted survival step function from 0 to ``horizon``;
    the one-row case of :func:`_restricted_mean_rows`."""
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return float(_restricted_mean_rows(curve.times, curve.survival[None], horizon)[0])


def _reaches(last, grid: FractionGrid) -> np.ndarray:
    """Computable fractions, rows x K, of rows whose decreasing survival
    ends at ``last``: those whose lower window edge gamma_k it reaches."""
    return np.asarray(last)[:, None] <= np.asarray(grid.gammas[1:])


def _window_masses(times, edge, width, grid: FractionGrid, events=None):
    """Mass of each fraction's survival window [gamma_k, gamma_{k-1}]
    under rows of decreasing step functions: ``(mass, counts)``,
    ``edge.shape[:-1]`` x K.

    ``edge`` is ``edge[..., rows, cols]``, a stack of step functions over
    the same rows: row ``r`` holds its steps in the first ``w = width[r]``
    columns of ``times`` and of each edge, with the leading value 1
    implied.  Each mass is ``_dot(times[r, :w], overlap[..., r, :w])``:
    stacked rows of one width go through the same BLAS dot as a single
    row, so a row's masses do not depend on the rows evaluated with it.
    With ``events`` given, ``counts`` holds the events at the steps of
    positive overlap (a step straddling a window edge counts in both
    fractions), else None.
    """
    width = np.asarray(width)
    order = None
    if np.any(width[1:] < width[:-1]):
        # rows of one width become a contiguous run
        order = np.argsort(width, kind="stable")
        times, edge, width = times[order], edge[..., order, :], width[order]
        if events is not None:
            events = events[order]
    firsts = np.flatnonzero(np.diff(width, prepend=-1)).tolist()
    runs = list(zip(firsts, firsts[1:] + [width.size], width[firsts].tolist()))
    mass = np.empty(edge.shape[:-1] + (grid.k,))
    counts = None
    if events is not None:
        events = np.where(np.arange(edge.shape[-1]) < width[:, None], events, 0)
        counts = np.empty(mass.shape, dtype=events.dtype)
    overlap = np.empty_like(edge)
    floor = np.empty_like(edge)
    gammas = grid.gammas
    for j in range(grid.k):
        # each step spans (edge, previous edge], the first step (edge, 1]
        overlap[..., 0] = gammas[j]
        np.minimum(edge[..., :-1], gammas[j], out=overlap[..., 1:])
        np.maximum(edge, gammas[j + 1], out=floor)
        overlap -= floor
        np.maximum(overlap, 0.0, out=overlap)
        for a, b, w in runs:
            mass[..., a:b, j] = _dot(times[a:b, :w], overlap[..., a:b, :w])
        if counts is not None:
            np.sum(events, axis=-1, where=overlap > 0.0, out=counts[..., j])
    if order is not None:
        back = np.argsort(order)
        mass = mass[..., back, :]
        if counts is not None:
            counts = counts[..., back, :]
    return mass, counts


def _fraction_mean_rows(times, survival, events, steps, grid: FractionGrid):
    """Row form of :func:`fraction_means` on the curves of
    :func:`survfrac.km._fit_rows`: ``(mu, computable, events)``, rows x K.

    Row ``r`` holds one curve's steps in its first ``steps[r]`` columns.
    """
    mu, counts = _window_masses(times, survival, steps, grid, events)
    last = survival[np.arange(steps.size), steps - 1]
    return mu, _reaches(last, grid), counts


def _fraction_bound_rows(times, lower, upper, width, defined, grid: FractionGrid):
    """Row form of :func:`fraction_mean_bounds` on the bands of
    :func:`survfrac.km._band_rows`: ``(lower, upper)`` masses, rows x K.

    Rows without a band get ``(nan, inf)``, as the study reports them.
    """
    edges = np.stack((lower, upper))
    np.minimum.accumulate(edges, axis=2, out=edges)
    last = edges[1, np.arange(width.size), width - 1]
    reaches = defined[:, None] & _reaches(last, grid)
    (lo_mass, up_mass), _ = _window_masses(times, edges, width, grid)
    return (np.where(defined[:, None], lo_mass, np.nan),
            np.where(reaches, up_mass, np.inf))


def _restricted_mean_rows(times, surv, horizon: float) -> np.ndarray:
    """Row form of :func:`restricted_mean` on survival rows valued at the
    shared sorted ``times``, with the leading value 1."""
    values = np.concatenate((np.ones((surv.shape[0], 1)), surv), axis=1)
    spans = np.diff(np.minimum(times, horizon), prepend=0.0, append=horizon)
    return _dot(values, spans)


_GRID_TOL = 1e-12  # slack for a fraction that rounding puts past the maximum


def truncate_grid(grid: FractionGrid, max_fraction: float) -> FractionGrid:
    """Drop fractions beyond ``max_fraction``.

    Used for group comparisons, which are restricted to the last fraction
    commonly observed in every group.
    """
    kept = tuple(lam for lam in grid.lambdas if lam <= max_fraction + _GRID_TOL)
    if len(kept) < 2:
        raise DataError(
            f"no grid fraction lies within max observed fraction {max_fraction:.6g}"
        )
    return FractionGrid(kept)


def decile_grid(max_fraction: float) -> FractionGrid:
    """Deciles {0.1, 0.2, ...} up to ``max_fraction`` (at most 1.0)."""
    uppers = [k / 10 for k in range(1, 11) if k / 10 <= max_fraction + _GRID_TOL]
    if not uppers:
        raise DataError(
            f"max observed fraction {max_fraction:.6g} is below the first decile; "
            "supply explicit proportions"
        )
    return FractionGrid.from_uppers(uppers)
