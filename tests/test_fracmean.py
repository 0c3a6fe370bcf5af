import math

import numpy as np
import pytest

from helpers import (
    km_curve_of,
    midpoint_quadrature_mu,
    random_censored_dataset,
    random_grid,
    step_quantile_mu,
    uncensored,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    FractionGrid,
    decile_grid,
    ep_band,
    fit_km,
    fraction_mean_bounds,
    fraction_means,
    max_observed_fraction,
    restricted_mean,
    truncate_grid,
)


class TestFractionGrid:
    def test_valid(self):
        g = FractionGrid((0.0, 0.2, 0.95))
        assert g.k == 2
        assert g.gammas == (1.0, 0.8, 0.050000000000000044)
        assert g.widths == (0.2, 0.75)

    def test_from_uppers(self):
        assert FractionGrid.from_uppers((0.5, 1.0)).lambdas == (0.0, 0.5, 1.0)
        assert FractionGrid.from_uppers((0.0, 0.5)).lambdas == (0.0, 0.5)

    @pytest.mark.parametrize(
        "lams",
        [(0.2, 0.4), (0.0,), (0.0, 0.4, 0.4), (0.0, 0.5, 0.2), (0.0, 1.1)],
    )
    def test_invalid(self, lams):
        with pytest.raises(ValueError):
            FractionGrid(lams)

    def test_truncate(self):
        g = FractionGrid((0.0, 0.2, 0.4, 0.6))
        assert truncate_grid(g, 0.45).lambdas == (0.0, 0.2, 0.4)
        assert truncate_grid(g, 0.4).lambdas == (0.0, 0.2, 0.4)
        with pytest.raises(ValueError):
            truncate_grid(g, 0.1)

    def test_deciles(self):
        assert decile_grid(1.0).lambdas == (0.0,) + tuple(
            k / 10 for k in range(1, 11)
        )
        assert decile_grid(0.85).lambdas[-1] == 0.8
        assert decile_grid(0.8).lambdas[-1] == 0.8
        with pytest.raises(ValueError):
            decile_grid(0.05)


class TestMaxObservedFraction:
    def test_full_observation(self):
        assert max_observed_fraction(fit_km(uncensored([1, 2, 3, 4]))) == 1.0

    def test_half(self):
        curve = km_curve_of([1, 2, 5, 6], [1, 1, 0, 0])
        assert max_observed_fraction(curve) == 0.5

    def test_censored_early_but_exhausted(self):
        assert max_observed_fraction(km_curve_of([1, 2, 3], [0, 1, 1])) == 1.0


class TestFractionMeans:
    def test_hand_example(self):
        fm = fraction_means(fit_km(uncensored([1, 2, 3, 4])), FractionGrid((0.0, 0.5, 1.0)))
        assert fm.mu == (0.75, 1.75)
        assert fm.mu_bar == (1.5, 3.5)
        assert fm.computable == (True, True)
        assert fm.events == (2, 2)

    def test_full_grid_is_sample_mean(self):
        fm = fraction_means(fit_km(uncensored([1, 2, 3, 4])), FractionGrid((0.0, 1.0)))
        assert fm.mu == (2.5,)

    def test_flagged_partial_sum(self):
        curve = km_curve_of([1, 5, 6], [1, 0, 0])  # plateau at 2/3
        fm = fraction_means(curve, FractionGrid((0.0, 0.9)))
        assert fm.computable == (False,)
        assert fm.mu[0] == pytest.approx(1.0 * (1 - 2 / 3), rel=1e-15)
        assert fm.events == (1,)

    def test_boundary_step_counts_once_when_exact(self):
        # survival hits 0.5 exactly at the first fraction boundary
        fm = fraction_means(fit_km(uncensored([1, 2, 3, 4])), FractionGrid((0.0, 0.5, 1.0)))
        assert fm.events == (2, 2)

    def test_straddling_step_counts_in_both(self):
        fm = fraction_means(fit_km(uncensored([1, 2, 3, 4])), FractionGrid((0.0, 0.4, 1.0)))
        # step at time 2 covers survival [0.5, 0.75], straddling gamma = 0.6
        assert fm.events == (2, 3)

    def test_two_form_equivalence_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            ds = random_censored_dataset(rng)
            curve = fit_km(ds)
            grid = random_grid(rng, max_observed_fraction(curve))
            fm = fraction_means(curve, grid)
            other = step_quantile_mu(curve, grid)
            for a, b in zip(fm.mu, other):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_quadrature_oracle_randomized(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            ds = random_censored_dataset(rng)
            curve = fit_km(ds)
            grid = random_grid(rng, max_observed_fraction(curve))
            fm = fraction_means(curve, grid)
            oracle = midpoint_quadrature_mu(curve, grid, panels=100_000)
            for a, b in zip(fm.mu, oracle):
                assert a == pytest.approx(b, abs=1e-4)

    def test_partition_additivity_exact_on_dyadic(self):
        # power-of-two sample, integer times, eighth-grid: no rounding anywhere
        times = [3, 5, 6, 9, 11, 17, 20, 32]
        curve = fit_km(uncensored(times))
        coarse = fraction_means(curve, FractionGrid((0.0, 0.5, 1.0)))
        fine = fraction_means(
            curve, FractionGrid((0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0))
        )
        assert sum(fine.mu[:4]) == coarse.mu[0]
        assert sum(fine.mu[4:]) == coarse.mu[1]

    def test_partition_additivity_randomized(self):
        rng = np.random.default_rng(303)
        for _ in range(80):
            ds = random_censored_dataset(rng)
            curve = fit_km(ds)
            max_frac = max_observed_fraction(curve)
            coarse = random_grid(rng, max_frac, max_knots=2)
            extra = rng.uniform(0.0, coarse.lambdas[-1], size=3)
            refined_lams = np.unique(
                np.concatenate((coarse.lambdas, np.round(extra, 6)))
            )
            refined = FractionGrid(tuple(refined_lams))
            fine = fraction_means(curve, refined)
            for a, b in zip(coarse.lambdas, coarse.lambdas[1:]):
                total = sum(
                    m
                    for m, la, lb in zip(
                        fine.mu, refined.lambdas, refined.lambdas[1:]
                    )
                    if a <= la and lb <= b
                )
                coarse_mu = fraction_means(curve, coarse).mu
                idx = coarse.lambdas.index(a)
                assert total == pytest.approx(coarse_mu[idx], rel=5e-14, abs=1e-300)

    def test_mu_bar_monotone_over_computable(self):
        rng = np.random.default_rng(404)
        for _ in range(80):
            ds = random_censored_dataset(rng)
            curve = fit_km(ds)
            grid = random_grid(rng, max_observed_fraction(curve), max_knots=5)
            fm = fraction_means(curve, grid)
            bars = [b for b, c in zip(fm.mu_bar, fm.computable) if c]
            for a, b in zip(bars, bars[1:]):
                assert b >= a - 1e-12 * max(1.0, abs(a))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(505)
        grid = FractionGrid((0.0, 0.3, 0.6))
        for _ in range(20):
            ds = random_censored_dataset(rng)
            for c in (0.5, 3.0, 10.0):
                scaled = Dataset(times=ds.times * c, status=ds.status)
                fm = fraction_means(fit_km(ds), grid)
                fs = fraction_means(fit_km(scaled), grid)
                assert fs.computable == fm.computable
                assert fs.events == fm.events
                for a, b in zip(fm.mu, fs.mu):
                    assert b == pytest.approx(c * a, rel=1e-13, abs=1e-300)
                rm = restricted_mean(fit_km(ds), 1.0)
                rms = restricted_mean(fit_km(scaled), c * 1.0)
                assert rms == pytest.approx(c * rm, rel=1e-13)


class TestBounds:
    def test_bracketing_on_computable(self):
        rng = np.random.default_rng(606)
        tested = 0
        for _ in range(80):
            ds = random_censored_dataset(rng, n_range=(10, 60))
            curve = fit_km(ds)
            grid = random_grid(rng, max_observed_fraction(curve))
            try:
                band = ep_band(curve, 0.95)
            except BandUndefinedError:
                continue
            fm = fraction_means(curve, grid, band=band)
            for (lo, up), mu, comp in zip(fm.bounds, fm.mu, fm.computable):
                if comp:
                    tested += 1
                    assert lo <= mu + 1e-12
                    assert mu <= up + 1e-12
        assert tested > 30

    def test_plateau_gives_infinite_upper(self):
        # upper band edge cannot descend to gamma when the curve plateaus high
        curve = km_curve_of([1, 2, 9, 10, 11, 12], [1, 1, 0, 0, 0, 0])
        band = ep_band(curve, 0.95)
        grid = FractionGrid((0.0, 0.9,))
        (lo, up), = fraction_mean_bounds(curve, band, grid)
        assert math.isinf(up)
        assert lo >= 0.0

    def test_bounds_widen_with_level(self):
        curve = km_curve_of(np.arange(1.0, 41.0), np.ones(40))
        grid = FractionGrid((0.0, 0.5))
        lo90, up90 = fraction_mean_bounds(curve, ep_band(curve, 0.90), grid)[0]
        lo99, up99 = fraction_mean_bounds(curve, ep_band(curve, 0.99), grid)[0]
        assert lo99 < lo90
        assert up99 > up90

    def test_attached_by_fraction_means(self):
        curve = km_curve_of(np.arange(1.0, 31.0), np.ones(30))
        band = ep_band(curve, 0.95)
        grid = FractionGrid((0.0, 0.4, 0.8))
        fm = fraction_means(curve, grid, band=band)
        assert fm.bounds == fraction_mean_bounds(curve, band, grid)


class TestRestrictedMean:
    def test_hand_example(self):
        curve = fit_km(uncensored([1, 2, 3, 4]))
        assert restricted_mean(curve, 2.0) == 1.75

    def test_differs_from_mu_bar_at_same_fraction(self):
        curve = fit_km(uncensored([1, 2, 3, 4]))
        fm = fraction_means(curve, FractionGrid((0.0, 0.5)))
        assert restricted_mean(curve, 2.0) == 1.75
        assert fm.mu_bar[0] == 1.5

    def test_tiny_horizon(self):
        curve = fit_km(uncensored([1, 2, 3, 4]))
        assert restricted_mean(curve, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_beyond_last_event_equals_km_mean(self):
        curve = fit_km(uncensored([1, 2, 3, 4]))
        assert restricted_mean(curve, 100.0) == 2.5

    def test_plateau_tail_contributes(self):
        curve = km_curve_of([1, 2], [1, 0])  # S = 0.5 after t=1
        assert restricted_mean(curve, 3.0) == 1.0 + 0.5 * 2.0

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf])
    def test_domain(self, h):
        curve = fit_km(uncensored([1, 2]))
        with pytest.raises(ValueError):
            restricted_mean(curve, h)


def test_consecutive_mu_sum_equals_quantile_integral():
    rng = np.random.default_rng(707)
    for _ in range(30):
        ds = random_censored_dataset(rng)
        curve = fit_km(ds)
        max_frac = max_observed_fraction(curve)
        grid = random_grid(rng, max_frac, max_knots=4)
        fm = fraction_means(curve, grid)
        upto = [k for k in range(grid.k) if all(fm.computable[: k + 1])]
        for k in upto:
            single = FractionGrid((0.0, grid.lambdas[k + 1]))
            whole = fraction_means(curve, single).mu[0]
            assert sum(fm.mu[: k + 1]) == pytest.approx(whole, rel=1e-13, abs=1e-300)
