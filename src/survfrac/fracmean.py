"""Mean survival by ordered population fractions over a proportion grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            raise ValueError("grid needs at least one fraction")
        if lams[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {lams[0]}")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError(f"grid proportions must strictly increase: {lams}")
        if lams[-1] > 1.0:
            raise ValueError(f"grid proportions cannot exceed 1: {lams[-1]}")

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

    Up to ``_DOT_CHUNK`` elements this is ``x @ y`` (per broadcast pair of
    rows for stacked operands, through ``np.matmul``, which calls the same
    BLAS dot); longer sums are taken in chunks of that length, added left
    to right.
    """
    def part(a, b):
        if a.ndim == 1 and b.ndim == 1:
            return a @ b
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]

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
    """Area under the fitted survival step function from 0 to ``horizon``."""
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    clipped = np.minimum(curve.times, horizon)
    starts = np.concatenate(([0.0], clipped))
    ends = np.concatenate((clipped, [horizon]))
    values = np.concatenate(([1.0], curve.survival))
    return float(_dot(values, np.maximum(ends - starts, 0.0)))


def _fraction_rows(times, surv, grid: FractionGrid):
    """Row form of :func:`fraction_means`: ``(mu_bar, computable)``.

    ``surv`` holds one survival row per sample, valued at every one of the
    shared sorted ``times``; a column without events repeats the previous
    value and so adds no mass.  Results are (rows x K).
    """
    prev = np.empty_like(surv)
    prev[:, 0] = 1.0
    prev[:, 1:] = surv[:, :-1]
    gammas = grid.gammas
    widths = grid.widths
    mu_bar = np.empty((surv.shape[0], grid.k))
    for j in range(grid.k):
        overlap = np.minimum(prev, gammas[j]) - np.maximum(surv, gammas[j + 1])
        np.maximum(overlap, 0.0, out=overlap)
        # a per-row sum, not a matrix product, whose blocking could make a
        # row's rounding depend on the rows evaluated with it
        mu_bar[:, j] = (overlap * times).sum(axis=1) / widths[j]
    # survival never increases along a row, so its last value decides
    computable = surv[:, -1:] <= np.asarray(gammas[1:])
    return mu_bar, computable


def _window_overlap_rows(edge, grid: FractionGrid) -> np.ndarray:
    """Overlap of each step with each fraction's survival window
    [gamma_k, gamma_{k-1}]: rows x K x cols.

    ``edge`` holds decreasing survival step rows with the leading value 1
    implied.
    """
    prev = np.empty_like(edge)
    prev[:, 0] = 1.0
    prev[:, 1:] = edge[:, :-1]
    gammas = np.asarray(grid.gammas)[:, None]
    overlap = (np.minimum(prev[:, None, :], gammas[:-1])
               - np.maximum(edge[:, None, :], gammas[1:]))
    return np.maximum(overlap, 0.0, out=overlap)


def _window_mass_rows(times, overlap, width) -> np.ndarray:
    """``times[r, :w] @ overlap[r, j, :w]`` with ``w = width[r]``: rows x K.

    Each mass is the very product ``_dot(times[r, :w], overlap[r, j, :w])``
    would take: :func:`_dot` on stacked rows calls the same BLAS dot per
    pair, which may fuse multiply-adds as no numpy row reduction does, so
    a row's masses do not depend on the rows evaluated with it.  Rows are
    stacked by width.
    """
    out = np.empty(overlap.shape[:2])
    # a set, not np.unique, whose hashing path costs about 1 MiB of peak
    # memory on first use
    for w in set(width.tolist()):
        rows = np.flatnonzero(width == w)
        out[rows] = _dot(times[rows, None, :w], overlap[rows, :, :w])
    return out


def _fraction_mean_rows(times, survival, events, steps, grid: FractionGrid):
    """Row form of :func:`fraction_means` on the curves of
    :func:`survfrac.km._fit_rows`: ``(mu, computable, events)``, rows x K.

    Row ``r`` holds one curve's steps in its first ``steps[r]`` columns.
    """
    valid = (np.arange(times.shape[1]) < steps[:, None])[:, None, :]
    overlap = _window_overlap_rows(survival, grid)
    mu = _window_mass_rows(times, overlap, steps)
    lows = np.asarray(grid.gammas[1:])[:, None]
    computable = np.any(valid & (survival[:, None, :] <= lows), axis=2)
    events = np.where(valid & (overlap > 0.0), events[:, None, :], 0).sum(axis=2)
    return mu, computable, events


def _fraction_bound_rows(times, lower, upper, width, defined, grid: FractionGrid):
    """Row form of :func:`fraction_mean_bounds` on the bands of
    :func:`survfrac.km._band_rows`: ``(lower, upper)`` masses, rows x K.

    Rows without a band get ``(nan, inf)``, as the study reports them.
    """
    lower_edge = np.minimum.accumulate(lower, axis=1)
    upper_edge = np.minimum.accumulate(upper, axis=1)
    last = upper_edge[np.arange(width.size), width - 1]
    reaches = defined[:, None] & (last[:, None] <= np.asarray(grid.gammas[1:]))
    lo_mass = _window_mass_rows(times, _window_overlap_rows(lower_edge, grid), width)
    up_mass = _window_mass_rows(times, _window_overlap_rows(upper_edge, grid), width)
    return (np.where(defined[:, None], lo_mass, np.nan),
            np.where(reaches, up_mass, np.inf))


def _restricted_mean_rows(times, surv, horizon: float) -> np.ndarray:
    """Row form of :func:`restricted_mean`, laid out as :func:`_fraction_rows`."""
    edges = np.minimum(times, horizon)
    return edges[0] + (surv * np.diff(edges, append=horizon)).sum(axis=1)


_GRID_TOL = 1e-12  # slack for a fraction that rounding puts past the maximum


def truncate_grid(grid: FractionGrid, max_fraction: float) -> FractionGrid:
    """Drop fractions beyond ``max_fraction``.

    Used for group comparisons, which are restricted to the last fraction
    commonly observed in every group.
    """
    kept = tuple(lam for lam in grid.lambdas if lam <= max_fraction + _GRID_TOL)
    if len(kept) < 2:
        raise ValueError(
            f"no grid fraction lies within max observed fraction {max_fraction:.6g}"
        )
    return FractionGrid(kept)


def decile_grid(max_fraction: float) -> FractionGrid:
    """Deciles {0.1, 0.2, ...} up to ``max_fraction`` (at most 1.0)."""
    uppers = [k / 10 for k in range(1, 11) if k / 10 <= max_fraction + _GRID_TOL]
    if not uppers:
        raise ValueError(
            f"max observed fraction {max_fraction:.6g} is below the first decile; "
            "supply explicit proportions"
        )
    return FractionGrid.from_uppers(uppers)
