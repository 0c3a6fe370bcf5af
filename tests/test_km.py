import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
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
    ep_band,
    ep_critical_value,
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


def test_ep_critical_value_reference_points():
    # 2.8826 is the classical tabulated 95% coefficient for (0.1, 0.6)
    assert ep_critical_value(0.1, 0.6, 0.95) == pytest.approx(2.8826, abs=2e-4)
    # solved value satisfies the crossing equation to solver tolerance
    e = ep_critical_value(0.02, 0.95, 0.95)
    lr = math.log(0.95 * 0.98 / (0.02 * 0.05))
    resid = math.exp(-0.5 * e * e) / math.sqrt(2 * math.pi) * (
        (e - 1 / e) * lr + 4 / e
    )
    assert resid == pytest.approx(0.05, abs=1e-5)


def test_ep_critical_value_monotone_in_level():
    es = [ep_critical_value(0.05, 0.9, lvl) for lvl in (0.8, 0.9, 0.95, 0.99)]
    assert all(b > a for a, b in zip(es, es[1:]))


def test_ep_critical_value_domain():
    with pytest.raises(BandUndefinedError):
        ep_critical_value(0.5, 0.5, 0.95)
    with pytest.raises(BandUndefinedError):
        ep_critical_value(0.0, 0.5, 0.95)
    with pytest.raises(ValueError):
        ep_critical_value(0.1, 0.5, 1.5)


# a share of the sample: anywhere in [0, 1], or within 1e-6 of either end
SHARE = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(5e-324, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([5e-324, 0.5, 1.0 - 2.0**-53]),
)


def reference_critical(a_lower, a_upper, level):
    """The reference's value, or NaN and the reason it gives none."""
    try:
        value = reference_ep_critical_value(a_lower, a_upper, level)
    except BandUndefinedError as exc:
        return math.nan, str(exc)
    except ZeroDivisionError:
        value = None
    if value is None or math.isinf(a_upper * (1 - a_lower) / (a_lower * (1 - a_upper))):
        # the log ratio is infinite, so the crossing exceeds alpha at every x
        # and no bracket closes; the scalar body divides by zero or stops
        # where exp underflows
        return math.nan, "critical value solve failed to bracket"
    return value, None


@pytest.mark.parametrize("guard", [km._EXP_GUARD, math.inf], ids=["np-exp", "math-exp"])
@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(SHARE, SHARE), min_size=1, max_size=12),
       level=st.floats(0.5, 0.999))
@example(pairs=[(5e-324, 0.5), (5e-324, 0.25), (0.0, 0.5), (0.5, 0.5), (0.1, 0.6)],
         level=0.95)
def test_critical_rows_match_scalar_reference(guard, pairs, level):
    # the second run recomputes every comparison with math.exp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_EXP_GUARD", guard)
        coeff = km._critical_rows([p[0] for p in pairs], [p[1] for p in pairs], level)
        for (a_lower, a_upper), got in zip(pairs, coeff.tolist()):
            want, reason = reference_critical(a_lower, a_upper, level)
            if reason is None:
                assert got == want
                assert ep_critical_value(a_lower, a_upper, level) == want
            else:
                assert math.isnan(got)
                with pytest.raises(BandUndefinedError, match=f"^{re.escape(reason)}$"):
                    ep_critical_value(a_lower, a_upper, level)


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
        inside = (curve.times >= band.range[0]) & (curve.times <= band.range[1])
        s = curve.survival[inside]
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


def test_band_degenerate_and_domain_errors():
    single = km_curve_of([1, 2, 3], [1, 0, 0])
    with pytest.raises(BandUndefinedError):
        ep_band(single, 0.95)
    curve = fit_km(uncensored([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        ep_band(curve, 0.0)
    with pytest.raises(ValueError):
        ep_band(curve, 1.0)


def test_band_default_range_excludes_terminal_zero():
    curve = fit_km(uncensored([1, 2, 3, 4, 5, 6, 7, 8]))
    band = ep_band(curve, 0.95)
    assert band.range[1] < curve.times[-1]
    assert np.all(band.lower >= 0)
