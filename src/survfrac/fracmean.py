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
    one-row case of :func:`_window_masses`.

    When ``band`` is given, per-fraction bounds from
    :func:`fraction_mean_bounds` are attached.
    """
    if len(curve) == 0:
        raise ValueError("curve has no steps")
    mu, computable, events = _window_masses(curve.times[None], curve.survival[None],
                                            np.array([len(curve)]), grid, curve.events[None])
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
    if band.times.size == 0:
        raise ValueError("band has no steps")
    lower, upper = _fraction_bound_rows(
        band.times[None], band.lower[None], band.upper[None],
        np.array([band.times.size]), np.array([True]), grid,
    )
    return tuple(zip(lower[0].tolist(), upper[0].tolist()))


def restricted_mean(curve: KmCurve, horizon: float) -> float:
    """Area under the fitted survival step function from 0 to ``horizon``;
    the one-row case of :func:`_restricted_mean_rows`."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    return float(_restricted_mean_rows(curve.times, curve.survival[None], horizon)[0])


def _window_masses(times, edge, width, grid: FractionGrid, events=None):
    """Mass of each fraction's survival window [gamma_k, gamma_{k-1}]
    under rows of decreasing step functions: ``(mass, reaches, counts)``,
    ``edge.shape[:-1]`` x K.

    ``edge`` is ``edge[..., rows, cols]``, a stack of step functions over
    the same rows: row ``r`` holds its steps in the first ``w = width[r]``
    columns of each edge (not NaN) and of ``times`` (finite, broadcast to
    the rows), with the leading value 1 implied.  A window covers a
    contiguous run of steps, whose boundary steps, the first below each
    gamma, are found exactly.  The steps strictly inside add
    ``t_j * (e_{j-1} - e_j)`` in one ``np.add.reduceat`` per block, and the
    two boundary steps their partial overlap.  Each sum reads only its own
    row, so a row's masses do not depend on the rows evaluated with it.
    ``reaches`` flags the fractions whose lower edge gamma_k the row's last
    value reaches, the computable ones; a row of width 0 reaches none.
    With ``events`` given, ``counts`` holds the events at the steps of
    positive overlap (a step straddling a window edge counts in both
    fractions), else None.
    """
    stack, cols = edge.shape[:-1], edge.shape[-1]
    # value[..., c] is the edge after step c: column 0 holds the leading 1
    # and column cols + 1 a spare step, and every column past the width
    # repeats the last value, so the steps there have no width
    value = np.ones(stack + (cols + 2,))
    value[..., 1:-1] = edge
    last = np.broadcast_to(np.asarray(width)[:, None], stack + (1,))
    np.copyto(value, np.take_along_axis(value, last, -1), where=np.arange(cols + 2) > last)

    # the first step below gamma_k comes after the values at or above it,
    # counted by one search over keys ordered by row, then by falling value:
    # complex numbers compare exactly, real part first.  A row that never
    # descends below gamma_k ends its window at the spare step
    gammas = np.asarray(grid.gammas)
    k = grid.k
    row = np.arange(value[..., 0].size).reshape(stack + (1,))
    keys = np.empty(value.shape, complex)
    keys.real = row
    np.negative(value, out=keys.imag)
    probes = np.empty(stack + (k + 1,), complex)
    probes.real = row
    probes.imag = -gammas
    above = np.searchsorted(keys.ravel(), probes.ravel(), side="right").reshape(probes.shape)
    del keys
    cut = np.minimum(above - (cols + 2) * row, cols + 1) - 1  # step c is term column c - 1

    prev = np.take_along_axis(value, cut, -1)
    cur = np.take_along_axis(value, cut + 1, -1)
    hi, lo = gammas[:-1], gammas[1:]
    top = np.maximum(np.minimum(prev[..., :-1], hi) - np.maximum(cur[..., :-1], lo), 0.0)
    bottom = np.maximum(np.minimum(prev[..., 1:], hi) - np.maximum(cur[..., 1:], lo), 0.0)
    bottom[cut[..., 1:] == cut[..., :-1]] = 0.0  # one step straddles both edges
    at = (cut + (cols + 1) * row).ravel()

    def window_sums(inner, ends, top_weight, bottom_weight):
        # each window's segment starts at its upper boundary step, zeroed,
        # so an empty window sums to 0; the segment after the last gamma is
        # unused.  The boundary steps add ``ends`` times their weights
        inner.ravel()[at] = 0
        total = np.add.reduceat(inner.ravel(), at).reshape(stack + (k + 1,))[..., :-1]
        return total + ends[..., :-1] * top_weight + ends[..., 1:] * bottom_weight

    term = value[..., :-1] - value[..., 1:]
    term[..., :-1] *= times
    # the spare step overlaps no window, so any time serves for it
    t = np.take_along_axis(np.broadcast_to(times, edge.shape), np.minimum(cut, cols - 1), -1)
    mass = window_sums(term, t, top, bottom)
    counts = None
    if events is not None:
        ev = np.zeros(term.shape, dtype=events.dtype)
        np.copyto(ev[..., :-1], events, where=value[..., :-2] > value[..., 1:-1])
        counts = window_sums(ev, np.take_along_axis(ev, cut, -1), top > 0.0, bottom > 0.0)
    return mass, value[..., -1:] <= lo, counts


def _fraction_bound_rows(times, lower, upper, width, defined, grid: FractionGrid):
    """Row form of :func:`fraction_mean_bounds` on the bands of
    :func:`survfrac.km._band_rows`: ``(lower, upper)`` masses, rows x K.

    Rows without a band get ``(nan, inf)``, as the study reports them.
    """
    edges = np.stack((lower, upper))
    np.minimum.accumulate(edges, axis=2, out=edges)
    # a row without a band holds NaN edges: at width 0 it reaches no fraction
    (lo_mass, up_mass), (_, reaches), _ = _window_masses(
        times, edges, np.where(defined, width, 0), grid)
    return (np.where(defined[:, None], lo_mass, np.nan),
            np.where(reaches, up_mass, np.inf))


def _restricted_mean_rows(times, surv, horizon: float) -> np.ndarray:
    """Row form of :func:`restricted_mean` on survival rows valued at the
    shared sorted ``times``, with the leading value 1.  Each row adds its
    own products in numpy's pairwise order, the same however many rows
    come with it; ``np.einsum`` would not do, since it sums a lone row of
    more than 8 192 columns in another order than a row of a stack."""
    values = np.concatenate((np.ones((surv.shape[0], 1)), surv), axis=1)
    values *= np.diff(np.minimum(times, horizon), prepend=0.0, append=horizon)
    return values.sum(axis=1)


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
