"""The public per-sample functions against their per-sample references.

``fit_km``, ``fraction_means``, ``fraction_mean_bounds``, ``ep_band`` and
``restricted_mean`` are the one-row case of the row kernels that the study
and the bootstrap run; ``helpers`` keeps the per-sample code they replaced.
Curves, bands, flags and counts must match their references bit for bit;
the masses and restricted means, which the kernels sum in another order
than the references, within the bound of ``helpers.assert_sum_close``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    _reference_window_masses,
    assert_sum_close,
    grid_on_steps,
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
from survfrac.fracmean import _restricted_mean_rows, _window_masses

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


def _kinds(value):
    return tuple(map(_kinds, value)) if isinstance(value, tuple) else type(value)


def assert_close_sums(got, want, terms):
    """Tuples of Python floats nested alike, each entry within the bound for
    sums of ``terms`` terms."""
    assert _kinds(got) == _kinds(want)
    assert_sum_close(got, want, terms)


def assert_close_means(got, want, steps, band_steps=None):
    """Grid, flags and event counts bit for bit, ``mu`` within the bound for
    ``steps`` terms and ``mu_bar`` as ``mu`` over the widths; bounds within
    the bound for ``band_steps`` terms."""
    assert got.grid == want.grid
    assert_same_bits((got.computable, got.events), (want.computable, want.events))
    assert_close_sums(got.mu, want.mu, steps)
    assert_same_bits(got.mu_bar, tuple(m / w for m, w in zip(got.mu, got.grid.widths)))
    if want.bounds is None:
        assert got.bounds is None
    else:
        assert_close_sums(got.bounds, want.bounds, band_steps)


def check_against_references(ds, grid, on_steps=False):
    """Fit, fraction means and the band's bounds, public against
    reference; the bounds are skipped without a band.  With ``on_steps``
    the means and bounds are also taken on grids whose edges fall on the
    curve's and the band edges' step values."""
    curve = fit_km(ds)
    assert_same_curve(curve, reference_fit_km(ds))
    grids = [grid] + ([grid_on_steps(curve.survival)] if on_steps else [])
    for g in grids:
        assert_close_means(fraction_means(curve, g), reference_fraction_means(curve, g),
                           len(curve))
    try:
        band = ep_band(curve, 0.9)
    except BandUndefinedError:
        return
    if on_steps:
        grids = [grid] + [grid_on_steps(np.minimum.accumulate(edge))
                          for edge in (band.lower, band.upper)]
    for g in filter(None, grids):
        assert_close_sums(fraction_mean_bounds(curve, band, g),
                          reference_fraction_mean_bounds(curve, band, g), band.times.size)
        assert_close_means(fraction_means(curve, g, band=band),
                           reference_fraction_means(curve, g, band=band),
                           len(curve), band.times.size)


def _dataset(times, status):
    return Dataset(times=np.asarray(times, dtype=float),
                   status=np.asarray(status, dtype=np.int64))


@st.composite
def _samples(draw):
    """A sample and a grid: half of the samples have times on a coarse
    lattice, so events tie with events and with censorings, and some
    times carry censorings only."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        times = draw(hnp.arrays(float, n, elements=st.integers(0, 12).map(float)))
    else:
        times = draw(hnp.arrays(float, n, elements=st.floats(0.0, 50.0, width=32)))
    status = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(status.any())
    uppers = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6, unique=True))
    return _dataset(times, status), FractionGrid.from_uppers(sorted(uppers))


DECILES = FractionGrid.from_uppers([k / 10 for k in range(1, 11)])


@settings(max_examples=400, deadline=None, database=None)
@given(_samples())
# a single event among censorings
@example((_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0]), DECILES))
# a terminal step that empties the risk set: survival ends at 0
@example((_dataset([1.0, 2.0, 3.0, 3.0], [1, 0, 1, 1]), DECILES))
# ties between events, and a time with censorings only
@example((_dataset([2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0],
                   [1, 1, 0, 0, 0, 1, 1, 0]), DECILES))
def test_one_row_functions_match_references(sample):
    ds, grid = sample
    check_against_references(ds, grid, on_steps=True)


def test_one_row_functions_match_references_on_a_long_curve():
    # mostly events over distinct times, so the curve and its band hold
    # thousands of steps
    rng = np.random.default_rng(17)
    n = 10_000
    times = rng.permutation(n) + rng.random(n)
    status = (rng.random(n) < 0.95).astype(np.int64)
    ds = _dataset(times, status)
    curve = fit_km(ds)
    band = ep_band(curve, 0.9)
    assert len(curve) > 9_000 and band.times.size > 9_000
    grid = FractionGrid.from_uppers([0.05, 0.3, 0.5, 0.8, 0.9])
    check_against_references(ds, grid)


@st.composite
def _curves_with_horizons(draw):
    """A curve, short or of thousands of steps, and a horizon before its
    first step, on a step, between steps or after the last."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(8_190, 16_387)))
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
    got = restricted_mean(curve, horizon)
    assert type(got) is float
    assert_sum_close(got, reference_restricted_mean(curve, horizon), len(curve) + 1)


def test_window_masses_of_mixed_widths_match_each_row_alone():
    # rows of unsorted, repeated widths, one of thousands of steps; the
    # columns past a row's width hold steps that must not count
    rng = np.random.default_rng(3)
    width = np.array([5, 1, 9, 5, 0, 9, 2, 8_199, 5, 3])
    cols = width.max() + 4
    times = np.cumsum(rng.exponential(size=(width.size, cols)), axis=1)
    edge = np.cumprod(rng.uniform(0.3, 1.0, size=(width.size, cols)), axis=1)
    events = rng.integers(1, 4, size=(width.size, cols))
    grid = FractionGrid.from_uppers([0.1, 0.35, 0.6, 0.9, 1.0])
    mass, reaches, counts = _window_masses(times, edge, width, grid, events)
    for r, w in enumerate(width.tolist()):
        alone, alone_reaches, alone_counts = _window_masses(
            times[r:r + 1], edge[r:r + 1], width[r:r + 1], grid, events[r:r + 1])
        assert mass[r].tobytes() == alone[0].tobytes()
        assert reaches[r].tolist() == alone_reaches[0].tolist()
        assert counts[r].tolist() == alone_counts[0].tolist()
        gammas = grid.gammas
        assert reaches[r].tolist() == [w > 0 and edge[r, w - 1] <= g for g in gammas[1:]]
        for k in range(grid.k):
            want, overlap = _reference_window_masses(times[r, :w], edge[r, :w],
                                                     gammas[k], gammas[k + 1])
            assert_sum_close(mass[r, k], want, w)
            assert counts[r, k] == events[r, :w][overlap > 0.0].sum()


def test_restricted_means_of_a_block_match_each_row_alone():
    # the bootstrap's last block may hold a single replicate; rows of more
    # than 8 192 columns are where a lone row can be summed another way
    rng = np.random.default_rng(4)
    for m in (5, 9_000):
        times = np.cumsum(rng.exponential(size=m))
        surv = np.sort(rng.random((4, m)), axis=1)[:, ::-1]
        horizon = float(times[-1]) + 1.0
        block = _restricted_mean_rows(times, surv, horizon)
        for r in range(4):
            alone = _restricted_mean_rows(times, surv[r:r + 1], horizon)
            assert alone.tobytes() == block[r:r + 1].tobytes()


def test_one_row_fit_rejects_a_sample_without_events():
    ds = _dataset([1.0, 2.0], [0, 0])
    for fit in (fit_km, reference_fit_km):
        with pytest.raises(EmptyEventsError,
                           match="^cannot fit a curve to a sample with no events$"):
            fit(ds)


def band_outcome(band_fn, curve, level):
    """The band's bits, or the type and text of the error that stops it."""
    try:
        band = band_fn(curve, level)
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


LEVELS = st.sampled_from([1e-9, 0.5, 0.8, 0.9, 0.95, 0.99])
STEPS = _dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0])


@settings(max_examples=500, deadline=None, database=None)
@given(st.one_of(_fitted_curves(), _built_curves()), LEVELS)
# levels outside (0, 1)
@example(fit_km(STEPS), 0.0)
@example(fit_km(STEPS), 1.0)
@example(fit_km(STEPS), math.nan)
# survival stays positive, but no step keeps 5% of the sample at risk
@example(fit_km(_dataset(np.r_[np.ones(96), 2.0, 3.0, 4.0, 5.0],
                         np.r_[np.zeros(96), 1, 1, 1, 1])), 0.95)
def test_ep_band_matches_reference(curve, level):
    assert band_outcome(ep_band, curve, level) == band_outcome(reference_ep_band, curve, level)
