import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from survfrac import (
    FractionGrid,
    SimConfig,
    fit_km,
    fraction_means,
    generate_replicate,
    run_study,
    true_fraction_means,
)

PAPER_GRID = FractionGrid.from_uppers((0.2, 0.4, 0.6, 0.8, 0.95))


def closed_form_fraction_means(alpha, beta, grid):
    # for beta = 2: integral of Q is alpha * (asin(sqrt(p)) - sqrt(p(1-p)))
    assert beta == 2
    prim = [
        alpha * (math.asin(math.sqrt(p)) - math.sqrt(p * (1 - p)))
        for p in grid.lambdas
    ]
    return [b - a for a, b in zip(prim, prim[1:])]


def scipy_fraction_mean(beta, a, b):
    """Integral of (p / (1 - p))**(1/beta) over [a, b] by scipy's quad.

    A panel ending at 1 takes (1 - p)**-s as an algebraic weight.  Any
    other panel is integrated in p below 1/2 and in q = 1 - p above, so
    that the distance to the near singularity is an exact float.
    """
    s = 1.0 / beta
    if b == 1.0:
        return integrate.quad(lambda p: p**s, a, 1, weight="alg", wvar=(0, -s),
                              epsabs=0, epsrel=1e-13)[0]
    total = 0.0
    if a < 0.5:
        total += integrate.quad(lambda p: (p / (1 - p))**s, a, min(b, 0.5),
                                epsabs=0, epsrel=1e-13)[0]
    if b > 0.5:
        total += integrate.quad(lambda q: ((1 - q) / q)**s, 1 - b, 1 - max(a, 0.5),
                                epsabs=0, epsrel=1e-13)[0]
    return total


class TestTrueFractionMeans:
    def test_against_closed_form(self):
        got = true_fraction_means(1, 2, PAPER_GRID)
        expected = closed_form_fraction_means(1, 2, PAPER_GRID)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)

    def test_full_grid_total_is_distribution_mean(self):
        total = sum(true_fraction_means(1, 2, FractionGrid((0.0, 1.0))))
        assert total == pytest.approx(math.pi / 2, abs=1e-7)
        total3 = sum(true_fraction_means(3, 2, FractionGrid((0.0, 1.0))))
        assert total3 == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_additivity_under_refinement(self):
        whole = true_fraction_means(1, 2, FractionGrid((0.0, 0.2)))
        parts = true_fraction_means(1, 2, FractionGrid((0.0, 0.1, 0.2)))
        assert sum(parts) == pytest.approx(whole[0], abs=1e-10)

    def test_scale_equivariance(self):
        one = true_fraction_means(1, 2, PAPER_GRID)
        two = true_fraction_means(2, 2, PAPER_GRID)
        for a, b in zip(one, two):
            assert b == pytest.approx(2 * a, rel=1e-9)

    def test_divergent_mean(self):
        with pytest.raises(ValueError, match="diverges"):
            true_fraction_means(1, 1, FractionGrid((0.0, 1.0)))
        # restricted grids stay finite even for beta <= 1:
        # integral of p/(1-p) over (0, 0.5] is ln 2 - 1/2
        vals = true_fraction_means(1, 1, FractionGrid((0.0, 0.5)))
        assert vals[0] == pytest.approx(math.log(2) - 0.5, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    beta=st.floats(0.3, 20.0),
    edges=st.lists(st.one_of(st.floats(1e-3, 0.999), st.sampled_from([1e-6, 0.9999])),
                   min_size=1, max_size=5, unique=True),
    to_one=st.booleans(),
)
# the panels [0.95, 1] at beta = 1.3 and [0.9999, 1] at beta = 9 lose digits
# to a rule cut off at the singularity and to cancellation respectively
@example(beta=1.3, edges=[0.95], to_one=True)
@example(beta=1.05, edges=[1e-6, 0.9999], to_one=True)
@example(beta=9.0, edges=[0.9999], to_one=True)
@example(beta=1.0, edges=[1e-6, 0.5, 0.9999], to_one=False)
def test_true_fraction_means_match_scipy_quad(beta, edges, to_one):
    uppers = sorted(edges) + ([1.0] if to_one and beta > 1.0 else [])
    grid = FractionGrid.from_uppers(uppers)
    got = true_fraction_means(1.0, beta, grid)
    for (a, b), value in zip(zip(grid.lambdas, grid.lambdas[1:]), got):
        assert value == pytest.approx(scipy_fraction_mean(beta, a, b), rel=1e-12, abs=0)


class TestGenerateReplicate:
    def test_deterministic(self):
        cfg = SimConfig(n_datasets=10, n=50, seed=42)
        a = generate_replicate(cfg, 3)
        b = generate_replicate(cfg, 3)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.status, b.status)

    def test_distinct_replicates(self):
        cfg = SimConfig(n_datasets=10, n=50, seed=42)
        a = generate_replicate(cfg, 0)
        b = generate_replicate(cfg, 1)
        assert not np.array_equal(a.times, b.times)

    def test_index_domain(self):
        cfg = SimConfig(n_datasets=2, n=10)
        with pytest.raises(ValueError):
            generate_replicate(cfg, 2)

    def test_everything_censored_near_zero_horizon(self):
        cfg = SimConfig(n_datasets=1, n=50, censor_upper=1e-9, seed=1)
        ds = generate_replicate(cfg, 0)
        assert ds.n_events == 0
        assert np.all(ds.times < 1e-9)

    def test_sampler_matches_analytic_cdf(self):
        # effectively uncensored draws; KS distance < 0.01 at 1e5 draws
        cfg = SimConfig(n_datasets=1, n=100_000, censor_upper=1e12, seed=7)
        ds = generate_replicate(cfg, 0)
        ks = stats.kstest(ds.times, stats.fisk(c=2, scale=1).cdf)
        assert ks.statistic < 0.01

    def test_censoring_rate_table_parameters(self):
        cfg = SimConfig(n_datasets=500, n=200, seed=9)
        events = sum(
            generate_replicate(cfg, i).n_events for i in range(cfg.n_datasets)
        )
        rate = 1.0 - events / (cfg.n_datasets * cfg.n)
        assert 0.47 < rate < 0.53


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_datasets": 0},
            {"n": 1},
            {"alpha": 0.0},
            {"beta": -1.0},
            {"censor_upper": 0.0},
            {"band_level": 1.0},
        ],
    )
    def test_validation(self, kw):
        base = dict(n_datasets=5, n=20)
        base.update(kw)
        with pytest.raises(ValueError):
            SimConfig(**base)


class TestRunStudy:
    def test_deterministic_across_runs_and_workers(self):
        cfg = SimConfig(n_datasets=40, n=60, seed=11)
        a = run_study(cfg)
        b = run_study(cfg)
        assert a == b
        c = run_study(cfg, workers=2)
        assert a == c

    def test_single_replicate_passthrough(self):
        cfg = SimConfig(n_datasets=1, n=80, seed=3)
        summary = run_study(cfg)
        fm = fraction_means(fit_km(generate_replicate(cfg, 0)), cfg.grid)
        for j in range(cfg.grid.k):
            if fm.computable[j]:
                assert summary.mean_estimate[j] == fm.mu[j]
                assert summary.computable_share[j] == 1.0
                assert summary.mean_events[j] == fm.events[j]
            else:
                assert math.isnan(summary.mean_estimate[j])
                assert summary.computable_share[j] == 0.0

    def test_estimator_consistency_in_n(self):
        grid = FractionGrid((0.0, 0.2))
        truth = true_fraction_means(1, 2, grid)[0]
        maes = []
        for n in (200, 400):
            cfg = SimConfig(n_datasets=200, n=n, seed=13, grid=grid)
            errs = []
            for i in range(cfg.n_datasets):
                fm = fraction_means(fit_km(generate_replicate(cfg, i)), grid)
                if fm.computable[0]:
                    errs.append(abs(fm.mu[0] - truth))
            maes.append(np.mean(errs))
        assert maes[1] < maes[0]


def test_run_study_columns_are_finite_when_expected():
    cfg = SimConfig(n_datasets=30, n=100, seed=21)
    s = run_study(cfg)
    assert s.n_datasets == 30
    assert 0.0 <= s.censoring_rate <= 1.0
    assert all(0.0 <= v <= 1.0 for v in s.computable_share)
    # first fraction is essentially always computable at this n
    assert s.computable_share[0] == 1.0
    assert math.isfinite(s.mean_estimate[0])
    assert s.true_mu[0] == pytest.approx(0.0636, abs=5e-4)


def test_run_study_all_infinite_uppers_average_to_inf():
    # heavy censoring keeps the upper band edge above the last fraction level
    cfg = SimConfig(n_datasets=20, n=100, censor_upper=0.5, seed=33)
    s = run_study(cfg)
    assert s.finite_upper_share[-1] == 0.0
    assert math.isinf(s.mean_upper[-1])


def test_small_beta_study_runs_without_overflow_warning():
    # some event times pass the float range; as inf they are censored, and
    # warnings are errors under pytest
    cfg = SimConfig(n_datasets=3, n=2000, beta=0.01,
                    grid=FractionGrid.from_uppers((0.5,)))
    summary = run_study(cfg)
    assert summary.censoring_rate > 0.4
    assert math.isfinite(summary.mean_estimate[0])
