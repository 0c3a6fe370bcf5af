import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    COEFF_ULPS,
    empirical_survival,
    km_curve_of,
    random_censored_dataset,
    reference_ep_critical_value,
    reference_fit_km,
    uncensored,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    EmptyEventsError,
    KmCurve,
    ep_band,
    fit_km,
    quantile,
    survival_at,
)
from survfrac import km


def test_fit_censored_first():
    curve = km_curve_of([1, 2, 3], [0, 1, 1])
    assert list(curve.times) == [2.0, 3.0]
    assert list(curve.at_risk) == [2, 1]
    assert list(curve.events) == [1, 1]
    assert list(curve.survival) == [0.5, 0.0]
    assert curve.greenwood[0] == 0.5  # 1/(2*1)
    assert math.isinf(curve.greenwood[1])


def test_fit_uncensored_equals_empirical():
    curve = fit_km(uncensored([1, 2, 3, 4]))
    assert list(curve.survival) == [0.75, 0.5, 0.25, 0.0]
    assert list(curve.at_risk) == [4, 3, 2, 1]


def test_fit_tie_events_before_censorings():
    curve = km_curve_of([2, 2, 3], [1, 0, 1])
    assert list(curve.times) == [2.0, 3.0]
    assert curve.at_risk[0] == 3
    assert curve.survival[0] == pytest.approx(2 / 3, rel=1e-15)
    assert curve.survival[1] == 0.0


def test_fit_multiple_events_one_time():
    curve = km_curve_of([1, 1, 2], [1, 1, 1])
    assert list(curve.times) == [1.0, 2.0]
    assert list(curve.events) == [2, 1]
    assert list(curve.survival) == [1 / 3, 0.0]


def test_fit_requires_an_event():
    from survfrac import Dataset

    ds = Dataset(times=np.array([1.0, 2.0]), status=np.array([0, 0]))
    with pytest.raises(EmptyEventsError):
        fit_km(ds)


def test_no_censoring_reduction_exact():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        times = rng.integers(1, 8, size=n).astype(float)  # force ties
        curve = fit_km(uncensored(times))
        probes = np.concatenate((curve.times, curve.times - 0.5, [0.0, 100.0]))
        for t in probes:
            if t < 0:
                continue
            assert survival_at(curve, t) == empirical_survival(times, t)


def test_survival_at_conventions():
    curve = fit_km(uncensored([1, 2, 3, 4]))
    assert survival_at(curve, 0.0) == 1.0
    assert survival_at(curve, 2.5) == 0.5
    assert survival_at(curve, 100.0) == 0.0
    np.testing.assert_array_equal(
        survival_at(curve, np.array([0.5, 1.0, 3.9])), [1.0, 0.75, 0.25]
    )


def test_quantile_examples():
    curve = fit_km(uncensored([1, 2, 3, 4]))
    assert quantile(curve, 0.5) == 2.0
    assert quantile(curve, 1.0) == 4.0
    plateau = km_curve_of([1, 5, 6], [1, 0, 0])
    assert quantile(plateau, 0.9) is None
    assert quantile(plateau, 0.1) == 1.0


@pytest.mark.parametrize("p", [0.0, -0.2, 1.0001, 2.0])
def test_quantile_domain(p):
    curve = fit_km(uncensored([1, 2]))
    with pytest.raises(ValueError):
        quantile(curve, p)


def test_quantile_galois_connection():
    rng = np.random.default_rng(23)
    for _ in range(40):
        ds = random_censored_dataset(rng)
        curve = fit_km(ds)
        for p in rng.uniform(0.01, 1.0, size=8):
            q = quantile(curve, p)
            if q is None:
                assert np.all(curve.survival > 1.0 - p)
                continue
            assert survival_at(curve, q) <= 1.0 - p
            earlier = curve.times[curve.times < q]
            if earlier.size:
                assert survival_at(curve, earlier[-1]) > 1.0 - p


def test_monotonicity_invariants():
    rng = np.random.default_rng(37)
    for _ in range(40):
        curve = fit_km(random_censored_dataset(rng, tie_share=0.05))
        assert np.all(np.diff(curve.survival) < 0)
        gw = curve.greenwood[np.isfinite(curve.greenwood)]
        assert np.all(np.diff(gw) >= 0) and np.all(gw >= 0)
        assert np.all(np.diff(curve.times) > 0)


def _scalar_crossing(e, a_lower, a_upper):
    """The crossing probability at ``e`` for the pair and its slope in ``e``,
    with ``math`` alone."""
    lr = math.log(a_upper * (1 - a_lower) / (a_lower * (1 - a_upper)))
    dens = math.exp(-0.5 * e * e) / math.sqrt(2 * math.pi)
    return (dens * ((e - 1 / e) * lr + 4 / e),
            dens * (2 * lr - 4 + (lr - 4) / (e * e) - lr * e * e))


def test_critical_rows_reference_points():
    # 2.8826 is the classical tabulated 95% coefficient for (0.1, 0.6)
    tabulated, e = km._critical_rows([0.1, 0.02], [0.6, 0.95], 0.95).tolist()
    assert tabulated == pytest.approx(2.8826, abs=2e-4)
    resid, slope = _scalar_crossing(e, 0.02, 0.95)
    # e is within 2 ulps of the root, and each ulp of e moves the crossing
    # by |slope| ulp(e), about 9 ulps of alpha here; evaluating the crossing
    # rounds by up to 2 ulps of alpha more
    bound = 2 * abs(slope) * math.ulp(e) + 2 * math.ulp(0.05)
    assert abs(resid - 0.05) <= bound < 21 * math.ulp(0.05)


def test_crossing_slope_is_its_derivative():
    # a wrong slope still converges, through the bisection fallback and
    # slowly, so only a comparison with a central difference shows it
    x = np.linspace(1.1, 8.0, 24)
    h = 1e-6
    for log_ratio in (0.0, 0.5, 4.0, 40.0, 700.0):
        _, slope = km._crossing(x, log_ratio)
        diff = (km._crossing(x + h, log_ratio)[0] - km._crossing(x - h, log_ratio)[0]) / (2 * h)
        np.testing.assert_allclose(slope, diff, rtol=1e-6, atol=1e-9)


def test_critical_rows_monotone_in_level():
    es = [float(km._critical_rows([0.05], [0.9], lvl)[0])
          for lvl in (0.8, 0.9, 0.95, 0.99)]
    assert all(b > a for a, b in zip(es, es[1:]))


def test_critical_rows_nan_outside_domain():
    coeff = km._critical_rows([0.5, 0.0, 0.6, 0.1], [0.5, 0.5, 0.4, 1.0], 0.95)
    assert np.isnan(coeff).all()


# a share of the sample: anywhere in [0, 1], or within 1e-6 of either end
SHARE = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(5e-324, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([5e-324, 0.5, 1.0 - 2.0**-53]),
)


def reference_critical(a_lower, a_upper, level):
    """The reference's value, or NaN where it gives none."""
    try:
        value = reference_ep_critical_value(a_lower, a_upper, level)
    except (BandUndefinedError, ZeroDivisionError):
        return math.nan
    if math.isinf(a_upper * (1 - a_lower) / (a_lower * (1 - a_upper))):
        # the log ratio is infinite, so the crossing exceeds alpha at every x
        # and no bracket closes; the scalar body divides by zero (above) or
        # stops where exp underflows
        return math.nan
    return value


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(SHARE, SHARE), min_size=1, max_size=12),
       level=st.floats(0.5, 0.999))
@example(pairs=[(5e-324, 0.5), (5e-324, 0.25), (0.0, 0.5), (0.5, 0.5), (0.1, 0.6)],
         level=0.95)
def test_critical_rows_match_scalar_reference(pairs, level):
    coeff = km._critical_rows([p[0] for p in pairs], [p[1] for p in pairs], level)
    for (a_lower, a_upper), got in zip(pairs, coeff.tolist()):
        want = reference_critical(a_lower, a_upper, level)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= COEFF_ULPS * math.ulp(want), (got, want)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(SHARE, SHARE), min_size=1, max_size=12),
       level=st.sampled_from([1e-9, 0.01, 0.032]))
def test_critical_rows_nan_at_or_below_the_lowest_level(pairs, level):
    # the crossing at the bracket's lower end 1 is 4 phi(1) whatever L, so
    # at a level of 1 - 4 phi(1), about 0.0321, or below no bracket opens
    coeff = km._critical_rows([p[0] for p in pairs], [p[1] for p in pairs], level)
    assert np.isnan(coeff).all()


def test_critical_rows_solve_just_above_the_lowest_level():
    # the root is ill-conditioned near level 0.0321, so hold the residual,
    # not the distance to the reference
    rng = np.random.default_rng(43)
    pairs = []
    for _ in range(100):
        curve = fit_km(random_censored_dataset(rng, n_range=(8, 60), tie_share=0.3))
        try:
            width = ep_band(curve, 0.95).times.size
        except BandUndefinedError:
            continue
        gw = curve.greenwood[[0, width - 1]]
        pairs.append(curve.n * gw / (1.0 + curve.n * gw))
    assert len(pairs) > 50
    a_lower, a_upper = np.array(pairs).T
    coeff = km._critical_rows(a_lower, a_upper, 0.04)
    assert np.isfinite(coeff).all()
    alpha = 1.0 - 0.04
    for lo, hi, e in zip(a_lower.tolist(), a_upper.tolist(), coeff.tolist()):
        resid, slope = _scalar_crossing(e, lo, hi)
        # the solve stops on a step of at most 4 ulps of e
        assert abs(resid - alpha) <= 4 * abs(slope) * math.ulp(e) + 2 * math.ulp(alpha)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(SHARE, SHARE).map(sorted), min_size=1, max_size=24),
       level=st.floats(0.5, 0.999), block=st.integers(1, 24))
@example(pairs=[(1e-300, 0.5), (0.1, 0.6), (0.5, 0.5), (0.3, 1.0 - 2.0**-53)],
         level=0.95, block=3)
def test_critical_rows_row_independent(pairs, level, block):
    # every row takes its own steps: a row's coefficient is the bits of its
    # one-row solve, however the rows are split, ordered or strided
    a_lower, a_upper = np.array(pairs).T
    rows = len(pairs)
    alone = np.concatenate([km._critical_rows(a_lower[r:r + 1], a_upper[r:r + 1], level)
                            for r in range(rows)])
    split = np.concatenate([km._critical_rows(a_lower[s:s + block], a_upper[s:s + block],
                                              level) for s in range(0, rows, block)])
    reverse = km._critical_rows(a_lower[::-1], a_upper[::-1], level)[::-1]
    interleaved = np.repeat(np.stack([a_lower, a_upper]), 2, axis=1)
    strided = km._critical_rows(interleaved[0, ::2], interleaved[1, ::2], level)
    for got in (split, reverse, strided):
        assert got.tobytes() == alone.tobytes()


def test_fit_ignores_order_inside_ties():
    rng = np.random.default_rng(17)
    for _ in range(40):
        ds = random_censored_dataset(rng, tie_share=0.4)
        curve = fit_km(ds)
        for _ in range(3):
            perm = rng.permutation(len(ds))
            shuffled = fit_km(Dataset(times=ds.times[perm], status=ds.status[perm]))
            for name in ("times", "at_risk", "events", "survival", "greenwood"):
                assert getattr(shuffled, name).tolist() == getattr(curve, name).tolist()
        assert curve.times.tolist() == reference_fit_km(ds).times.tolist()


def test_band_orders_and_clamps():
    rng = np.random.default_rng(41)
    tested = 0
    for _ in range(60):
        ds = random_censored_dataset(rng, n_range=(8, 60))
        curve = fit_km(ds)
        try:
            band = ep_band(curve, 0.95)
        except BandUndefinedError:
            continue
        tested += 1
        s = curve.survival[: band.times.size]
        assert np.all(band.lower <= s + 1e-15)
        assert np.all(s <= band.upper + 1e-15)
        assert np.all((band.lower >= 0) & (band.upper <= 1))
        assert band.coefficient > 0
    assert tested > 20


def test_band_width_strictly_increases_with_level():
    curve = km_curve_of(np.arange(1.0, 31.0), np.ones(30))
    b90 = ep_band(curve, 0.90)
    b99 = ep_band(curve, 0.99)
    w90 = b90.upper - b90.lower
    w99 = b99.upper - b99.lower
    unclamped = (b99.upper < 1) & (b99.lower > 0)
    assert np.all(w99[unclamped] > w90[unclamped])


def test_band_level_outside_domain():
    curve = fit_km(uncensored([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        ep_band(curve, 0.0)
    with pytest.raises(ValueError):
        ep_band(curve, 1.0)


def hand_curve(survival, greenwood, n):
    """A curve built from its columns, with steps at 1, 2, ... and every
    step keeping the whole sample at risk."""
    steps = len(survival)
    return KmCurve(times=np.arange(1.0, steps + 1), at_risk=np.full(steps, n),
                   events=np.ones(steps, dtype=np.int64), survival=survival,
                   greenwood=greenwood, n=n)


@pytest.mark.parametrize("curve, reason", [
    (hand_curve([], [], 1), "curve has no steps"),
    # no step has 5 of the 100 subjects at risk after 96 censorings at t=1
    (km_curve_of([1.0] * 96 + [2.0, 3.0, 4.0, 5.0], [0] * 96 + [1] * 4),
     "no step has positive survival with at least 5% of the sample at risk"),
    (hand_curve([0.9, 0.0, 0.5], [0.01, 0.02, 0.03], 10),
     "band range includes times where survival is 0"),
    (hand_curve([0.9, 0.8], [0.01, math.inf], 10),
     "band range includes times where survival is 0"),
    (km_curve_of([1, 2, 3], [1, 0, 0]), "degenerate range: a(t_L) = a(t_U) = 0.333333"),
    (hand_curve([0.9, 0.8, 0.7], [0.01, 0.02, 1e300], 10),
     "band requires 0 < a_L < a_U < 1, got (0.09090909090909091, 1.0)"),
    # a_L (1 - a_U) underflows to 0, so the log ratio is infinite
    (hand_curve([0.9, 0.8], [5e-324, 2.0], 1), "critical value solve failed to bracket"),
])
def test_band_undefined_reasons(curve, reason):
    with pytest.raises(BandUndefinedError, match=f"^{re.escape(reason)}$"):
        ep_band(curve, 0.95)


def test_band_default_range_excludes_terminal_zero():
    curve = fit_km(uncensored([1, 2, 3, 4, 5, 6, 7, 8]))
    band = ep_band(curve, 0.95)
    assert band.times[-1] < curve.times[-1]
    assert np.all(band.lower >= 0)
