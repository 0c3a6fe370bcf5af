import numpy as np
import pytest

from helpers import random_censored_dataset, uncensored
from survfrac import (
    Dataset,
    FractionGrid,
    bootstrap_compare,
    fit_km,
    fraction_means,
)
from survfrac.inference import _percentile_ci

GRID = FractionGrid((0.0, 0.25, 0.5))


def two_samples(seed=1234, n0=40, n1=35):
    rng = np.random.default_rng(seed)
    g0 = random_censored_dataset(rng, n=n0)
    g1 = random_censored_dataset(rng, n=n1)
    return g0, g1


class TestPercentileCi:
    def test_order_statistics(self):
        diffs = np.arange(1.0, 101.0)  # 1..100
        lo, up = _percentile_ci(diffs, 0.9)
        # ceil(0.05*100) = 5 -> 5th and 96th order statistics
        assert (lo, up) == (5.0, 96.0)

    def test_non_integer_rank(self):
        diffs = np.arange(1.0, 98.0)  # 97 values
        lo, up = _percentile_ci(diffs, 0.95)
        # ceil(0.025*97) = ceil(2.425) = 3 -> 3rd and 95th
        assert (lo, up) == (3.0, 95.0)

    def test_integer_rank_at_the_default_level(self):
        # 1.0 - 0.95 rounds above 1/20 in floats, which took the 51st value
        values = np.arange(1.0, 2001.0)
        assert _percentile_ci(values, 0.95) == (50.0, 1951.0)
        assert _percentile_ci(values, np.float64(0.95)) == (50.0, 1951.0)

    @pytest.mark.parametrize("level", ["0.7", "0.8", "0.9", "0.95", "0.975", "0.99"])
    def test_rank_is_exact_for_every_replicate_count(self, level):
        # the lower rank ceil(b * (1 - level) / 2) in integers, with the
        # level p / q as written
        digits = level.split(".")[1]
        p, q = int(digits), 10 ** len(digits)
        values = np.arange(1.0, 5001.0)
        for b in range(1, 5001):
            rank = max(1, -(-b * (q - p) // (2 * q)))
            assert _percentile_ci(values[:b], float(level)) == (rank, b + 1 - rank)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(2)
        diffs = rng.normal(size=200)
        lo, up = _percentile_ci(diffs, 0.95)
        nlo, nup = _percentile_ci(-diffs, 0.95)
        assert (nlo, nup) == (-up, -lo)


class TestBootstrapFractionDiff:
    def test_identical_groups_zero_points(self):
        g = uncensored(np.arange(1.0, 31.0))
        out = bootstrap_compare(g, g, GRID, B=200, seed=5).fractions
        for est in out:
            assert est.point == 0.0
            assert est.ci_lower <= 0.0 <= est.ci_upper

    def test_point_is_direct_difference(self):
        g0, g1 = two_samples()
        out = bootstrap_compare(g0, g1, GRID, B=150, seed=5)
        # without a horizon there is no restricted-mean difference
        assert out.restricted is None
        fm0 = fraction_means(fit_km(g0), GRID)
        fm1 = fraction_means(fit_km(g1), GRID)
        for k, est in enumerate(out.fractions):
            assert est.point == fm1.mu_bar[k] - fm0.mu_bar[k]

    def test_deterministic_rerun_and_workers(self):
        g0, g1 = two_samples()
        a = bootstrap_compare(g0, g1, GRID, B=200, seed=9).fractions
        b = bootstrap_compare(g0, g1, GRID, B=200, seed=9).fractions
        assert a == b
        c = bootstrap_compare(g0, g1, GRID, B=200, seed=9, workers=2).fractions
        assert a == c

    def test_seed_changes_resamples(self):
        g0, g1 = two_samples()
        a = bootstrap_compare(g0, g1, GRID, B=200, seed=1).fractions
        b = bootstrap_compare(g0, g1, GRID, B=200, seed=2).fractions
        assert any(
            x.ci_lower != y.ci_lower or x.ci_upper != y.ci_upper
            for x, y in zip(a, b)
        )

    def test_label_swap_negates_and_reflects(self):
        g0, g1 = two_samples(seed=77)
        fwd = bootstrap_compare(g0, g1, GRID, B=257, seed=3).fractions
        rev = bootstrap_compare(g1, g0, GRID, B=257, seed=3).fractions
        for f, r in zip(fwd, rev):
            assert r.point == -f.point
            assert (r.ci_lower, r.ci_upper) == (-f.ci_upper, -f.ci_lower)
            assert r.effective_replicates == f.effective_replicates

    def test_label_swap_with_integer_rank(self):
        # (alpha/2) * B integral: rank symmetry must still reflect exactly
        g0, g1 = two_samples(seed=78)
        fwd = bootstrap_compare(g0, g1, GRID, B=400, seed=3).fractions
        rev = bootstrap_compare(g1, g0, GRID, B=400, seed=3).fractions
        for f, r in zip(fwd, rev):
            assert (r.ci_lower, r.ci_upper) == (-f.ci_upper, -f.ci_lower)

    def test_noncomputable_fractions_drop_replicates(self):
        rng = np.random.default_rng(31)
        # heavy censoring: the 0.9 fraction is rarely computable
        t = rng.exponential(size=30)
        c = rng.uniform(0, 0.8, size=30)
        heavy = Dataset(
            times=np.minimum(t, c), status=(t <= c).astype(np.int64)
        )
        grid = FractionGrid((0.0, 0.2, 0.9))
        out = bootstrap_compare(heavy, heavy, grid, B=200, seed=13).fractions
        assert out[1].effective_replicates < out[0].effective_replicates
        assert out[1].effective_replicates < 200
        for est in out:
            assert est.requested_replicates == 200
            assert est.effective_replicates <= 200
        if out[1].effective_replicates < 100:
            assert out[1].unreliable

    def test_discarded_all_censored_resamples(self):
        # one event among four observations: resamples often lose it
        tiny = Dataset(
            times=np.array([1.0, 2.0, 3.0, 4.0]),
            status=np.array([1, 0, 0, 0]),
        )
        grid = FractionGrid((0.0, 0.2))
        out = bootstrap_compare(tiny, tiny, grid, B=400, seed=17).fractions
        assert out[0].effective_replicates < 400

    def test_discarded_replicates_counted_apart(self):
        tiny = Dataset(
            times=np.array([1.0, 2.0, 3.0, 4.0]),
            status=np.array([1, 0, 0, 0]),
        )
        grid = FractionGrid((0.0, 0.2))
        out = bootstrap_compare(tiny, tiny, grid, horizon=2.5, B=400, seed=17)
        # every kept replicate has a restricted mean, so only discarded
        # replicates are missing from it
        assert out.discarded_replicates > 0
        assert out.discarded_replicates == 400 - out.restricted.effective_replicates

    def test_validation(self):
        g0, g1 = two_samples()
        with pytest.raises(ValueError):
            bootstrap_compare(g0, g1, GRID, B=50)
        with pytest.raises(ValueError):
            bootstrap_compare(g0, g1, GRID, B=200, level=1.2)


class TestBootstrapRestrictedMeanDiff:
    def test_identical_groups(self):
        g = uncensored(np.arange(1.0, 21.0))
        est = bootstrap_compare(g, g, None, horizon=5.0, B=150, seed=2).restricted
        assert est.point == 0.0
        assert est.ci_lower <= 0.0 <= est.ci_upper

    def test_tiny_horizon_zero_everywhere(self):
        g0, g1 = two_samples(seed=91)
        est = bootstrap_compare(g0, g1, None, horizon=1e-9, B=150, seed=2).restricted
        assert est.point == 0.0
        assert est.ci_lower == 0.0 and est.ci_upper == 0.0

    def test_swap_reflects(self):
        g0, g1 = two_samples(seed=92)
        f = bootstrap_compare(g0, g1, None, horizon=1.0, B=201, seed=4).restricted
        r = bootstrap_compare(g1, g0, None, horizon=1.0, B=201, seed=4).restricted
        assert r.point == -f.point
        assert (r.ci_lower, r.ci_upper) == (-f.ci_upper, -f.ci_lower)

    def test_deterministic(self):
        g0, g1 = two_samples(seed=93)
        a = bootstrap_compare(g0, g1, None, horizon=1.0, B=150, seed=8).restricted
        b = bootstrap_compare(g0, g1, None, horizon=1.0, B=150, seed=8).restricted
        assert a == b
