"""Fraction masses, flags, event counts and restricted means against exact
rational arithmetic.

The float curve of ``fit_km`` and the float band edges are taken as given,
since the curve is a product and the band involves a square root; what the
fraction layer computes from them is recomputed in ``fractions.Fraction``.
Flags and counts must match exactly.  A sum of n nonnegative terms, each
rounded twice (a difference and a product), is within (n + 2) * 2**-53 of
its exact value relative, in any order of addition: a fraction mass sums
one term per step of its row.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import grid_on_steps
from survfrac import (
    BandUndefinedError,
    Dataset,
    FractionGrid,
    ep_band,
    fit_km,
    fraction_means,
    restricted_mean,
)
from survfrac.fracmean import _window_masses


def assert_near_exact(got, exact, terms):
    """``got`` within ``(terms + 2) * 2**-53`` of the exact nonnegative
    ``exact`` relative; 0 exactly when ``exact`` is 0."""
    assert abs(Fraction(float(got)) - exact) <= Fraction(terms + 2, 2**53) * exact, (
        float(got), float(exact))


def exact_window(times, edge, hi, lo):
    """Exact mass of the survival window [lo, hi] under the step function
    with value ``edge[j]`` from ``times[j]`` on and the leading value 1, and
    the mask of steps of positive overlap.  The minimum and maximum of
    floats, and the sign of their difference, are exact in floats."""
    prev = np.concatenate(([1.0], edge))[:-1]
    top, floor = np.minimum(prev, hi), np.maximum(edge, lo)
    positive = top > floor
    mass = sum((Fraction(t) * (Fraction(a) - Fraction(b))
                for t, a, b in zip(times[positive].tolist(), top[positive].tolist(),
                                   floor[positive].tolist())), Fraction(0))
    return mass, positive


def check_curve(curve, grid, horizons=()):
    """``fraction_means`` and ``restricted_mean`` of one fitted curve."""
    fm = fraction_means(curve, grid)
    gammas = grid.gammas
    for k in range(grid.k):
        mass, positive = exact_window(curve.times, curve.survival, gammas[k], gammas[k + 1])
        assert_near_exact(fm.mu[k], mass, len(curve))
        assert fm.computable[k] == bool(np.any(curve.survival <= gammas[k + 1]))
        assert fm.events[k] == int(curve.events[positive].sum())
    values = [1.0] + curve.survival.tolist()
    for horizon in horizons:
        ends = [min(t, horizon) for t in curve.times.tolist()] + [horizon]
        starts = [0.0] + ends[:-1]
        exact = sum((Fraction(v) * (Fraction(b) - Fraction(a))
                     for v, a, b in zip(values, starts, ends)), Fraction(0))
        assert_near_exact(restricted_mean(curve, horizon), exact, len(values))


def check_band(curve, band, grid):
    """The bounds ``fraction_means`` attaches for the band, from its
    running-minimum edges: the lower edge's masses, and the upper edge's
    where it reaches the window, else ``inf``."""
    bounds = fraction_means(curve, grid, band=band).bounds
    lower = np.minimum.accumulate(band.lower)
    upper = np.minimum.accumulate(band.upper)
    gammas = grid.gammas
    for k, (got_lo, got_up) in enumerate(bounds):
        hi, lo = gammas[k], gammas[k + 1]
        assert_near_exact(got_lo, exact_window(band.times, lower, hi, lo)[0], band.times.size)
        if upper[-1] <= lo:
            assert_near_exact(got_up, exact_window(band.times, upper, hi, lo)[0],
                              band.times.size)
        else:
            assert got_up == float("inf")


def check_sample(ds, grid, every=1):
    """The means on ``grid`` and on grids through every ``every``-th step
    value of the curve and of the band edges, restricted means at horizons
    around the steps, and the bounds of the default band where it exists."""
    curve = fit_km(ds)
    t = curve.times
    # before the first step, on a step, between steps and after the last
    horizons = [float(t[0]) / 2, float(t[len(t) // 2]), float(t.mean()) + 1 / 16,
                float(t[-1]) + 0.5]
    check_curve(curve, grid, [h for h in horizons if h > 0])
    on_steps = grid_on_steps(curve.survival[::every])
    if on_steps is not None:
        check_curve(curve, on_steps)
    try:
        band = ep_band(curve, 0.9)
    except BandUndefinedError:
        return
    for g in (grid, on_steps, grid_on_steps(np.minimum.accumulate(band.lower)[::every]),
              grid_on_steps(np.minimum.accumulate(band.upper)[::every])):
        if g is not None:
            check_band(curve, band, g)


def _dataset(times, status):
    return Dataset(times=np.asarray(times, dtype=float),
                   status=np.asarray(status, dtype=np.int64))


@st.composite
def _samples(draw):
    """Dyadic times on a coarse lattice, so events tie with events and with
    censorings and some times carry censorings only; in half of the
    samples every observation at the largest time is an event, so the
    curve ends at 0."""
    n = draw(st.integers(1, 60))
    times = draw(hnp.arrays(float, n, elements=st.integers(0, 48).map(lambda i: i / 8)))
    status = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    if draw(st.booleans()):
        status[times == times.max()] = 1
    assume(status.any())
    uppers = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8, unique=True))
    return _dataset(times, status), FractionGrid.from_uppers(sorted(uppers))


DECILES = FractionGrid.from_uppers([k / 10 for k in range(1, 11)])


@settings(max_examples=200, deadline=None, database=None)
@given(_samples())
# ties, a censor-only time and a terminal zero
@example((_dataset([0.5, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0],
                   [1, 1, 0, 0, 0, 1, 1, 1]), DECILES))
# quarters of the sample fail at a time, so survival falls on the grid edges
@example((_dataset([1.0] * 4 + [2.0] * 4 + [3.0] * 4 + [4.0] * 4, [1] * 16),
          FractionGrid.from_uppers([0.25, 0.5, 0.75, 1.0])))
def test_fraction_layer_matches_exact_arithmetic(sample):
    check_sample(*sample)


def test_fraction_layer_matches_exact_arithmetic_on_a_long_curve():
    rng = np.random.default_rng(23)
    n = 12_000
    times = (rng.permutation(n) + rng.integers(0, 8, size=n) / 8).astype(float)
    status = (rng.random(n) < 0.95).astype(np.int64)
    ds = _dataset(times, status)
    assert len(fit_km(ds)) > 10_000
    check_sample(ds, FractionGrid.from_uppers([0.05, 0.3, 0.5, 0.8, 0.9, 0.95]), every=997)


@st.composite
def _blocks(draw):
    """Rows of decreasing dyadic edges with repeated values and zeros, of
    mixed widths including 0, over shared columns whose entries past a
    row's width must not count; a grid, random or through edge values."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    width = draw(hnp.arrays(np.int64, rows, elements=st.integers(0, cols)))
    edge = np.sort(draw(hnp.arrays(float, (rows, cols),
                                   elements=st.integers(0, 16).map(lambda i: i / 16))))[:, ::-1]
    gaps = draw(hnp.arrays(float, (rows, cols), elements=st.integers(0, 8).map(lambda i: i / 4)))
    times = np.cumsum(gaps, axis=1)
    events = draw(hnp.arrays(np.int64, (rows, cols), elements=st.integers(0, 3)))
    if draw(st.booleans()):
        grid = FractionGrid.from_uppers(
            sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6, unique=True))))
    else:
        grid = grid_on_steps(edge.ravel()) or DECILES
    return times, np.ascontiguousarray(edge), width, events, grid


@settings(max_examples=200, deadline=None, database=None)
@given(_blocks())
def test_window_masses_of_mixed_widths_match_exact_arithmetic(block):
    times, edge, width, events, grid = block
    mass, reaches, counts = _window_masses(times, edge, width, grid, events)
    # a stack of two edges over the same rows, the form the bounds take
    stacked, stacked_reaches, _ = _window_masses(times, np.stack((edge, edge / 2)), width, grid)
    assert stacked[0].tobytes() == mass.tobytes()
    assert np.array_equal(stacked_reaches[0], reaches)
    gammas = grid.gammas
    for r, w in enumerate(width.tolist()):
        assert reaches[r].tolist() == [w > 0 and edge[r, w - 1] <= g for g in gammas[1:]]
        assert stacked_reaches[1, r].tolist() == [w > 0 and edge[r, w - 1] / 2 <= g
                                                  for g in gammas[1:]]
        for k in range(grid.k):
            hi, lo = gammas[k], gammas[k + 1]
            exact, positive = exact_window(times[r, :w], edge[r, :w], hi, lo)
            assert_near_exact(mass[r, k], exact, w)
            assert counts[r, k] == int(events[r, :w][positive].sum())
            assert_near_exact(stacked[1, r, k], exact_window(times[r, :w], edge[r, :w] / 2,
                                                             hi, lo)[0], w)
