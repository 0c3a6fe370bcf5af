"""The public per-sample functions against their per-sample references.

``fit_km``, ``fraction_means``, ``fraction_mean_bounds``, ``ep_band`` and
``restricted_mean`` are the one-row case of the row kernels that the study
and the bootstrap run; ``helpers`` keeps the per-sample code they replaced.
Every result must match its reference bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    _reference_window_masses,
    reference_ep_band,
    reference_fit_km,
    reference_fraction_mean_bounds,
    reference_fraction_means,
    reference_restricted_mean,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    EmptyEventsError,
    FractionGrid,
    KmCurve,
    ep_band,
    fit_km,
    fraction_mean_bounds,
    fraction_means,
    restricted_mean,
)
from survfrac.fracmean import _DOT_CHUNK, _window_masses

CURVE_FIELDS = ("times", "at_risk", "events", "survival", "greenwood")


def assert_same_curve(curve, ref):
    assert curve.n == ref.n
    for name in CURVE_FIELDS:
        got, want = getattr(curve, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_bits(got, want):
    """Same values, types and bits: ``repr`` tells -0.0 from 0.0, a numpy
    scalar from a Python float and a list from a tuple."""
    assert repr(got) == repr(want)


def grid_on_steps(values):
    """A grid with a window edge at each survival value below 1, where
    ``1 - (1 - v)`` gives ``v`` back, so edges meet steps exactly."""
    uppers = sorted({1.0 - v for v in values.tolist() if v < 1.0})
    return FractionGrid.from_uppers(uppers) if uppers else None


def check_against_references(ds, grid, band_ranges, on_steps=False):
    """Fit, fraction means and the bounds of each band range, public
    against reference; a range without a band is skipped.  With
    ``on_steps`` the means and bounds are also taken on grids whose edges
    fall on the curve's and the band edges' step values."""
    curve = fit_km(ds)
    assert_same_curve(curve, reference_fit_km(ds))
    grids = [grid] + ([grid_on_steps(curve.survival)] if on_steps else [])
    for g in grids:
        assert_same_bits(fraction_means(curve, g), reference_fraction_means(curve, g))
    for band_range in band_ranges:
        try:
            band = ep_band(curve, 0.9, range=band_range)
        except BandUndefinedError:
            continue
        if on_steps:
            grids = [grid] + [grid_on_steps(np.minimum.accumulate(edge))
                              for edge in (band.lower, band.upper)]
        for g in filter(None, grids):
            assert_same_bits(fraction_mean_bounds(curve, band, g),
                             reference_fraction_mean_bounds(curve, band, g))
            assert_same_bits(fraction_means(curve, g, band=band),
                             reference_fraction_means(curve, g, band=band))


def _dataset(times, status):
    return Dataset(times=np.asarray(times, dtype=float),
                   status=np.asarray(status, dtype=np.int64))


@st.composite
def _samples(draw):
    """A sample, a grid and band ranges: half of the samples have times on
    a coarse lattice, so events tie with events and with censorings, and
    some times carry censorings only."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        times = draw(hnp.arrays(float, n, elements=st.integers(0, 12).map(float)))
    else:
        times = draw(hnp.arrays(float, n, elements=st.floats(0.0, 50.0, width=32)))
    status = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(status.any())
    uppers = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6, unique=True))
    grid = FractionGrid.from_uppers(sorted(uppers))
    lo, hi = sorted(draw(st.lists(st.sampled_from(times.tolist()), min_size=2, max_size=2)))
    return _dataset(times, status), grid, [None, (lo, hi)]


DECILES = FractionGrid.from_uppers([k / 10 for k in range(1, 11)])


@settings(max_examples=400, deadline=None, database=None)
@given(_samples())
# a single event among censorings
@example((_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0]), DECILES, [None, (2.0, 2.0)]))
# a terminal step that empties the risk set: survival ends at 0
@example((_dataset([1.0, 2.0, 3.0, 3.0], [1, 0, 1, 1]), DECILES, [None, (1.0, 3.0)]))
# ties between events, and a time with censorings only
@example((_dataset([2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0],
                   [1, 1, 0, 0, 0, 1, 1, 0]), DECILES, [None, (2.0, 4.0)]))
def test_one_row_functions_match_references(sample):
    ds, grid, band_ranges = sample
    check_against_references(ds, grid, band_ranges, on_steps=True)


def test_one_row_functions_match_references_beyond_the_dot_chunk():
    # mostly events over distinct times, so the curve and its band hold
    # more steps than one chunk of ``_dot`` takes
    rng = np.random.default_rng(17)
    n = 10_000
    times = rng.permutation(n) + rng.random(n)
    status = (rng.random(n) < 0.95).astype(np.int64)
    ds = _dataset(times, status)
    curve = fit_km(ds)
    band = ep_band(curve, 0.9)
    assert len(curve) > _DOT_CHUNK and band.times.size > _DOT_CHUNK
    grid = FractionGrid.from_uppers([0.05, 0.3, 0.5, 0.8, 0.9])
    check_against_references(ds, grid, [None, (float(times.min()), float(times.max()))])


@st.composite
def _curves_with_horizons(draw):
    """A curve, some longer than one chunk of ``_dot``, and a horizon
    before its first step, on a step, between steps or after the last."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(_DOT_CHUNK - 2, 2 * _DOT_CHUNK + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(rng.exponential(size=m)) + draw(st.sampled_from([0.0, 0.5]))
    survival = np.cumprod(rng.uniform(0.5, 1.0, size=m))
    if draw(st.booleans()):
        survival[-1] = 0.0
    curve = KmCurve(times=times, at_risk=np.arange(m, 0, -1), events=np.ones(m, dtype=np.int64),
                    survival=survival, greenwood=np.zeros(m), n=m)
    j = draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(["before", "on", "between", "after"]))
    if kind == "before":
        horizon = times[0] * draw(st.floats(0.01, 1.0, exclude_max=True))
    elif kind == "on":
        horizon = times[j]
    elif kind == "between":
        horizon = times[j] + draw(st.floats(0.0, 1.0)) * (times[min(j + 1, m - 1)] - times[j])
    else:
        horizon = times[-1] * draw(st.floats(1.0, 1e3))
    assume(horizon > 0)
    return curve, float(horizon)


@settings(max_examples=150, deadline=None, database=None)
@given(_curves_with_horizons())
def test_restricted_mean_matches_reference(sample):
    curve, horizon = sample
    assert_same_bits(restricted_mean(curve, horizon),
                     reference_restricted_mean(curve, horizon))


def test_window_masses_of_mixed_widths_match_each_row_alone():
    # rows of unsorted, repeated widths, one longer than a chunk of
    # ``_dot``; the columns past a row's width hold steps that must not count
    rng = np.random.default_rng(3)
    width = np.array([5, 1, 9, 5, 0, 9, 2, _DOT_CHUNK + 7, 5, 3])
    cols = width.max() + 4
    times = np.cumsum(rng.exponential(size=(width.size, cols)), axis=1)
    edge = np.cumprod(rng.uniform(0.3, 1.0, size=(width.size, cols)), axis=1)
    events = rng.integers(1, 4, size=(width.size, cols))
    grid = FractionGrid.from_uppers([0.1, 0.35, 0.6, 0.9, 1.0])
    mass, counts = _window_masses(times, edge, width, grid, events)
    for r, w in enumerate(width.tolist()):
        alone, alone_counts = _window_masses(times[r:r + 1], edge[r:r + 1], width[r:r + 1],
                                             grid, events[r:r + 1])
        assert mass[r].tobytes() == alone[0].tobytes()
        assert counts[r].tolist() == alone_counts[0].tolist()
        gammas = grid.gammas
        for k in range(grid.k):
            want, overlap = _reference_window_masses(times[r, :w], edge[r, :w],
                                                     gammas[k], gammas[k + 1])
            assert mass[r, k].tobytes() == np.float64(want).tobytes()
            assert counts[r, k] == events[r, :w][overlap > 0.0].sum()


def test_one_row_fit_rejects_a_sample_without_events():
    ds = _dataset([1.0, 2.0], [0, 0])
    for fit in (fit_km, reference_fit_km):
        with pytest.raises(EmptyEventsError,
                           match="^cannot fit a curve to a sample with no events$"):
            fit(ds)


def band_outcome(band_fn, curve, level, band_range):
    """The band's bits, or the type and text of the error that stops it."""
    try:
        band = band_fn(curve, level, range=band_range)
    except ValueError as exc:  # BandUndefinedError included
        return type(exc), str(exc)
    arrays = tuple((a.dtype.str, a.shape, a.tobytes())
                   for a in (band.times, band.lower, band.upper))
    return repr((band.level, band.coefficient, band.range)), arrays


@st.composite
def _fitted_curves(draw):
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        times = draw(hnp.arrays(float, n, elements=st.integers(0, 8).map(float)))
    else:
        times = draw(hnp.arrays(float, n, elements=st.floats(0.0, 20.0, width=32)))
    status = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(status.any())
    return fit_km(_dataset(times, status))


@st.composite
def _built_curves(draw):
    """Hand-built curves the fit never gives: no steps, a first Greenwood
    term of 0, repeated a-values, a zero or infinite tail."""
    m = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m,
                                 unique=True)))
    survival = sorted(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 1.0]),
                                    min_size=m, max_size=m)), reverse=True)
    greenwood = sorted(draw(st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.3, math.inf]),
                                     min_size=m, max_size=m)))
    if m and draw(st.booleans()):
        greenwood[0] = 0.0
    at_risk = sorted(draw(st.lists(st.integers(1, 40), min_size=m, max_size=m)),
                     reverse=True)
    n = draw(st.integers(max(at_risk, default=1), 60))
    return KmCurve(times=np.array(times, dtype=float),
                   at_risk=np.array(at_risk, dtype=np.int64),
                   events=np.ones(m, dtype=np.int64),
                   survival=np.array(survival, dtype=float),
                   greenwood=np.array(greenwood, dtype=float), n=n)


@st.composite
def _curves_with_ranges(draw):
    """A fitted or hand-built curve with None or an explicit range: on
    steps (one step when both ends agree), between steps, reversed, or
    with NaN or infinite ends."""
    curve = draw(st.one_of(_fitted_curves(), _built_curves()))
    if draw(st.booleans()):
        return curve, None
    ends = curve.times.tolist()
    ends += [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    ends += [0.0, math.nan, math.inf, -math.inf]
    return curve, (draw(st.sampled_from(ends)), draw(st.sampled_from(ends)))


LEVELS = st.sampled_from([1e-9, 0.5, 0.8, 0.9, 0.95, 0.99])
STEPS = _dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0])


@settings(max_examples=500, deadline=None, database=None)
@given(_curves_with_ranges(), LEVELS)
# levels outside (0, 1)
@example((fit_km(STEPS), None), 0.0)
@example((fit_km(STEPS), (1.0, 3.0)), 1.0)
@example((fit_km(STEPS), None), math.nan)
# survival stays positive, but no step keeps 5% of the sample at risk
@example((fit_km(_dataset(np.r_[np.ones(96), 2.0, 3.0, 4.0, 5.0],
                          np.r_[np.zeros(96), 1, 1, 1, 1])), None), 0.95)
def test_ep_band_matches_reference(sample, level):
    curve, band_range = sample
    assert band_outcome(ep_band, curve, level, band_range) == band_outcome(
        reference_ep_band, curve, level, band_range)
