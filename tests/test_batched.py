"""The product-limit row kernel and the block-batched bootstrap engine,
each against a slow independent reference."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_censored_dataset, random_grid, resample, uncensored
from survfrac import (
    Dataset,
    FractionGrid,
    bootstrap_compare,
    fit_km,
    fraction_means,
    restricted_mean,
)
from survfrac import engine, inference
from survfrac.fracmean import _restricted_mean_rows, _window_masses
from survfrac.inference import _estimate, _prepare, _replicate_diffs, _replicate_stats
from survfrac.km import _km_rows

GRID = FractionGrid((0.0, 0.2, 0.5, 0.9))


def exact_km(times, status):
    """Product-limit steps as exact rationals, events before censorings.

    Yields (time, at_risk, events, S, r) per event time, where r counts
    the distinct earlier times carrying a censoring: the censor-closed
    runs of the telescoped product before the step.
    """
    survival = Fraction(1)
    runs = 0
    for t in sorted(set(times)):
        at_risk = sum(1 for x in times if x >= t)
        events = sum(1 for x, s in zip(times, status) if x == t and s)
        censored = sum(1 for x, s in zip(times, status) if x == t and not s)
        if events:
            survival *= Fraction(at_risk - events, at_risk)
            yield t, at_risk, events, survival, runs
        runs += censored > 0


samples = st.lists(
    st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=60
)


@settings(max_examples=300, deadline=None, database=None)
@given(samples)
def test_fit_km_within_run_bound_of_exact_product(rows):
    times = [float(t) for t, _ in rows]
    status = [int(s) for _, s in rows]
    assume(any(status))
    curve = fit_km(Dataset(times=np.array(times), status=np.array(status)))
    steps = list(exact_km(times, status))
    assert curve.times.tolist() == [t for t, *_ in steps]
    assert curve.at_risk.tolist() == [n for _, n, *_ in steps]
    assert curve.events.tolist() == [d for _, _, d, *_ in steps]
    for s, (_, _, _, exact, r) in zip(curve.survival.tolist(), steps):
        if r == 0:
            assert s == float(exact)
        else:
            assert abs(Fraction(s) - exact) <= (r + 1) * exact / 2**52


@settings(max_examples=300, deadline=None, database=None)
@given(samples)
def test_greenwood_within_sum_bound_of_exact_terms(rows):
    # dyadic times, so ties stay ties.  Each term d / (n (n - d)) rounds
    # once and each running sum once more: step j lies within (j + 1) * 2**-53
    # of the exact sum, relative.  Where the whole risk set dies the term is
    # inf, and so is the sum
    times = [t / 4 for t, _ in rows]
    status = [int(s) for _, s in rows]
    assume(any(status))
    curve = fit_km(Dataset(times=np.array(times), status=np.array(status)))
    steps = list(exact_km(times, status))
    assert len(curve.greenwood) == len(steps)
    exact = Fraction(0)
    for j, (g, (_, n, d, *_)) in enumerate(zip(curve.greenwood.tolist(), steps)):
        assert (g == math.inf) == (n == d)
        if n == d:
            continue
        exact += Fraction(d, n * (n - d))
        assert abs(Fraction(g) - exact) <= (j + 1) * exact / 2**53


def test_km_rows_carries_value_over_columns_without_events():
    # columns: event, censor-only, empty, event, empty
    tot = np.array([[2, 1, 0, 2, 0]])
    ev = np.array([[1, 0, 0, 1, 0]])
    at_risk, surv = _km_rows(tot, ev)
    assert at_risk.tolist() == [[5, 3, 2, 2, 0]]
    assert surv[0].tolist() == [0.8, 0.8, 0.8, 0.4, 0.4]


def test_fit_km_linear_time_scaling_guard():
    ds = uncensored(np.random.default_rng(3).random(100_000))
    t0 = time.perf_counter()
    curve = fit_km(ds)
    elapsed = time.perf_counter() - t0
    assert curve.survival[-1] == 0.0
    assert elapsed < 1.0, f"fit_km on 1e5 rows took {elapsed:.2f} s"


def _heavy(rng, n=30):
    t = rng.exponential(size=n)
    c = rng.uniform(0, 0.8, size=n)
    status = (t <= c).astype(np.int64)
    status[0] = 1
    return Dataset(times=np.minimum(t, c), status=status)


SAMPLES = {
    "random": lambda rng: random_censored_dataset(rng, n=40),
    "tied": lambda rng: random_censored_dataset(rng, n=40, tie_share=0.25),
    "heavy": _heavy,
    "one-event": lambda rng: Dataset(
        times=np.array([1.0, 2.0, 3.0, 4.0]), status=np.array([1, 0, 0, 0])
    ),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_batched_replicates_match_per_replicate_refits(kind):
    rng = np.random.default_rng(101)
    ds = SAMPLES[kind](rng)
    horizon = float(np.median(ds.times))
    seed, B = 17, 300
    group = _prepare(ds)
    stats, computable, has_events = _replicate_stats(group, GRID, horizon, seed, 0, B)
    mu_bar, rmean = stats[:, :-1], stats[:, -1]
    assert computable[:, -1].all()
    discarded = 0
    for r in range(B):
        rs = resample(ds, seed, group.digest, r)
        assert has_events[r] == (rs.n_events > 0)
        if rs.n_events == 0:
            discarded += 1
            continue
        curve = fit_km(rs)
        fm = fraction_means(curve, GRID)
        np.testing.assert_allclose(mu_bar[r], fm.mu_bar, rtol=1e-12, atol=0)
        assert tuple(computable[r, :-1]) == fm.computable
        assert rmean[r] == pytest.approx(restricted_mean(curve, horizon), rel=1e-12)
    if kind == "one-event":
        assert discarded > 0


def _event_column_samples(seed, count):
    """Random samples at tie shares 0, 0.3 and 0.7, each also with
    censorings added at half its first event time (before that event
    unless it is at 0) and after its last time."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        ds = random_censored_dataset(rng, n_range=(2, 400), tie_share=(0.0, 0.3, 0.7)[i % 3])
        yield ds
        first = ds.times[ds.status == 1].min()
        yield Dataset(times=np.append(ds.times, [first / 2, ds.times.max() + 1]),
                      status=np.append(ds.status, [0, 0]))


def test_identity_replicate_equals_point_estimate():
    # the draw that takes each observation once: its row over the event
    # columns is the fitted curve, and its statistics the point estimates,
    # bit for bit
    rng = np.random.default_rng(29)
    for ds in _event_column_samples(7, 150):
        group = _prepare(ds)
        m = group.times.size
        curve = fit_km(ds)
        pairs = np.bincount(group.code, minlength=2 * m + 2).reshape(1, m + 1, 2)[:, :m]
        _, surv = _km_rows(pairs.sum(axis=2), pairs[..., 1])
        assert group.times.tolist() == curve.times.tolist()
        assert surv[0].tolist() == curve.survival.tolist()
        for grid in (GRID, random_grid(rng, 1.0)):
            mass, reaches, _ = _window_masses(group.times, surv, np.array([m]), grid)
            fm = fraction_means(curve, grid)
            assert mass[0].tolist() == list(fm.mu)
            assert tuple(reaches[0].tolist()) == fm.computable
        for horizon in {float(np.median(ds.times)), float(ds.times.max()) + 0.5} - {0.0}:
            rmean = _restricted_mean_rows(group.times, surv, horizon)
            assert rmean[0] == restricted_mean(curve, horizon)


def test_replicate_rows_equal_distinct_time_rows_at_event_columns():
    # dropping a censoring-only column drops a factor of exactly 1 from the
    # product: the rows over all distinct times, at the event columns, are
    # the rows over the event times alone, bit for bit
    seed, B = 3, 50
    for ds in _event_column_samples(11, 60):
        group = _prepare(ds)
        distinct = np.unique(ds.times)
        tot = np.zeros((B, distinct.size), dtype=np.int64)
        ev = np.zeros((B, distinct.size), dtype=np.int64)
        for r in range(B):
            rs = resample(ds, seed, group.digest, r)
            column = np.searchsorted(distinct, rs.times)
            np.add.at(tot[r], column, 1)
            np.add.at(ev[r], column, rs.status)
        _, reference = _km_rows(tot, ev)
        _, surv = _km_rows(*inference._replicate_counts(group, seed, 0, B))
        at_events = np.searchsorted(distinct, group.times)
        assert np.array_equal(surv, reference[:, at_events])


def _two_groups(seed=5):
    rng = np.random.default_rng(seed)
    return random_censored_dataset(rng, n=45), random_censored_dataset(rng, n=38)


def test_block_size_does_not_change_results(monkeypatch):
    g0, g1 = _two_groups()
    B, horizon = 203, 0.7
    results = []
    for rows in (1, 7, B):
        # a block holds _BLOCK_CELLS // (larger group size) replicates
        monkeypatch.setattr(engine, "_BLOCK_CELLS", rows * max(len(g0), len(g1)))
        results.append(_replicate_diffs(g0, g1, GRID, horizon, B, seed=4, workers=1))
    runs, discarded = zip(*results)
    for diffs in runs[1:]:
        assert np.array_equal(diffs, runs[0], equal_nan=True)
    assert discarded[0] == discarded[1] == discarded[2]
    estimates = [[_estimate(0.0, d[:, j], B, 0.95) for j in range(d.shape[1])]
                 for d in runs]
    assert estimates[0] == estimates[1] == estimates[2]


def test_one_pass_matches_per_replicate_two_pass_reference():
    g0, g1 = _two_groups(seed=8)
    B, seed, horizon = 250, 6, 0.9
    got = bootstrap_compare(g0, g1, GRID, horizon=horizon, B=B, seed=seed)
    d0, d1 = inference._group_digest(g0), inference._group_digest(g1)
    cols = [[] for _ in range(GRID.k)]
    rcol = []
    for r in range(B):
        r0, r1 = resample(g0, seed, d0, r), resample(g1, seed, d1, r)
        if r0.n_events == 0 or r1.n_events == 0:
            continue
        c0, c1 = fit_km(r0), fit_km(r1)
        f0, f1 = fraction_means(c0, GRID), fraction_means(c1, GRID)
        for j in range(GRID.k):
            if f0.computable[j] and f1.computable[j]:
                cols[j].append(f1.mu_bar[j] - f0.mu_bar[j])
        rcol.append(restricted_mean(c1, horizon) - restricted_mean(c0, horizon))
    for est, col in zip(got.fractions + [got.restricted], cols + [rcol]):
        assert est.effective_replicates == len(col)
        ordered = np.sort(col)
        lo_rank = max(1, math.ceil(0.025 * len(col)))
        assert est.ci_lower == pytest.approx(ordered[lo_rank - 1], rel=1e-12, abs=1e-15)
        assert est.ci_upper == pytest.approx(ordered[-lo_rank], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
def test_compare_rejects_bad_horizon(horizon):
    g0, g1 = _two_groups()
    with pytest.raises(ValueError):
        bootstrap_compare(g0, g1, GRID, horizon=horizon, B=100)


def test_compare_needs_something_to_compare():
    g0, g1 = _two_groups()
    with pytest.raises(ValueError):
        bootstrap_compare(g0, g1, None, B=100)
