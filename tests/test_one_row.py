"""The public per-sample functions against their per-sample references.

``fit_km``, ``fraction_means`` and ``fraction_mean_bounds`` are the one-row
case of the study's row kernels; ``helpers`` keeps the per-sample loops
they replaced.  Every result must match its reference bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    reference_fit_km,
    reference_fraction_mean_bounds,
    reference_fraction_means,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    EmptyEventsError,
    FractionGrid,
    ep_band,
    fit_km,
    fraction_mean_bounds,
    fraction_means,
)
from survfrac.fracmean import _DOT_CHUNK

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


def test_one_row_fit_rejects_a_sample_without_events():
    ds = _dataset([1.0, 2.0], [0, 0])
    for fit in (fit_km, reference_fit_km):
        with pytest.raises(EmptyEventsError,
                           match="^cannot fit a curve to a sample with no events$"):
            fit(ds)
