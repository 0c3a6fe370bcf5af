"""Shared test utilities: sample generators and independent oracles."""

import math

import numpy as np

from survfrac import (
    BandUndefinedError,
    Dataset,
    FractionGrid,
    ep_band,
    fit_km,
    fraction_mean_bounds,
    fraction_means,
    quantile,
)


def random_censored_dataset(rng, n=None, n_range=(5, 50), tie_share=0.0):
    """A random right-censored sample with at least one event.

    Event times come from a random positive family; censoring is uniform
    with a random horizon, so censoring fractions vary widely.  With
    ``tie_share`` > 0 times are rounded to force ties.
    """
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        t = rng.exponential(scale=1.0, size=n)
    elif kind == 1:
        t = rng.uniform(0.0, 2.0, size=n)
    else:
        u = rng.random(n)
        t = (u / (1 - u)) ** 0.5
    horizon = rng.uniform(0.3, 3.0)
    c = rng.uniform(0.0, horizon, size=n)
    times = np.minimum(t, c)
    status = (t <= c).astype(np.int64)
    if tie_share > 0:
        times = np.round(times / tie_share) * tie_share
    if status.sum() == 0:
        status[int(rng.integers(0, n))] = 1
    return Dataset(times=times, status=status)


def random_grid(rng, max_fraction, max_knots=4):
    """A random valid grid with every fraction inside ``max_fraction``."""
    k = int(rng.integers(1, max_knots + 1))
    uppers = np.sort(rng.uniform(0.02, 1.0, size=k)) * max_fraction
    uppers = np.unique(np.round(uppers, 6))
    uppers = uppers[uppers > 0]
    if uppers.size == 0:
        uppers = np.array([max_fraction / 2])
    return FractionGrid.from_uppers(uppers)


def step_quantile_mu(curve, grid):
    """Second estimator form: sum of Q(p_j) * (p_j - p_{j-1}) per fraction.

    Walks the jump probabilities p_j = 1 - S(y_j), clamps each increment to
    the fraction, and evaluates the quantile function through
    :func:`survfrac.quantile` so the route is independent of the
    survival-increment formula.
    """
    p = 1.0 - curve.survival
    p_prev = np.concatenate(([0.0], p[:-1]))
    out = []
    for lam_a, lam_b in zip(grid.lambdas, grid.lambdas[1:]):
        total = 0.0
        for j in range(p.size):
            lo = max(p_prev[j], lam_a)
            hi = min(p[j], lam_b)
            if hi > lo:
                # probe strictly inside the increment: robust to the 1 ulp
                # wobble of 1 - (1 - s) at the endpoints
                total += quantile(curve, 0.5 * (lo + hi)) * (hi - lo)
        out.append(total)
    return out


def midpoint_quadrature_mu(curve, grid, panels):
    """Midpoint-rule integral of the estimated quantile step function."""
    cumprob = 1.0 - curve.survival
    out = []
    for lam_a, lam_b in zip(grid.lambdas, grid.lambdas[1:]):
        width = lam_b - lam_a
        mids = lam_a + (np.arange(panels) + 0.5) * (width / panels)
        idx = np.searchsorted(cumprob, mids, side="left")
        inside = idx < cumprob.size
        vals = np.where(inside, curve.times[np.minimum(idx, cumprob.size - 1)], 0.0)
        out.append(float(vals.sum() * (width / panels)))
    return out


def empirical_survival(times, t):
    """Counting oracle: share of observations strictly greater than t."""
    times = np.asarray(times, dtype=float)
    return float((times > t).sum()) / times.size


def uncensored(times):
    times = np.asarray(times, dtype=float)
    return Dataset(times=times, status=np.ones(times.size, dtype=np.int64))


def km_curve_of(times, status):
    return fit_km(
        Dataset(
            times=np.asarray(times, dtype=float),
            status=np.asarray(status, dtype=np.int64),
        )
    )


def resample(ds, seed, digest, replicate):
    """One bootstrap replicate drawn from a fresh Philox generator.

    The per-replicate reference for the batched engine: the same stream
    contract (key = (seed, group digest), counter = (0, 0, 0, replicate)),
    drawn the slow way.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(digest)])
    counter = np.array([0, 0, 0, replicate], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    idx = rng.integers(0, len(ds), size=len(ds))
    return Dataset(times=ds.times[idx], status=ds.status[idx])


def study_replicate(cfg, index):
    """One simulation-study sample drawn from a fresh Philox generator.

    The stream contract of the batched study (key = (seed, index), counter
    0, event uniforms then censoring uniforms), drawn the slow way.
    """
    key = np.array([np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    rng = np.random.Generator(np.random.Philox(key=key))
    u_event = rng.random(cfg.n)
    u_censor = rng.random(cfg.n)
    t = cfg.alpha * (u_event / (1.0 - u_event)) ** (1.0 / cfg.beta)
    c = cfg.censor_upper * u_censor
    return Dataset(times=np.minimum(t, c), status=(t <= c).astype(np.int64))


def replicate_stats(cfg, index):
    """One study replicate through the public per-sample chain.

    The per-replicate reference for the block-batched study: returns
    (mu, computable, events, bounds, band_ok, censored) from
    ``fit_km``, ``fraction_means``, ``ep_band`` and
    ``fraction_mean_bounds``; a replicate without a band gets the bounds
    (nan, inf).
    """
    ds = study_replicate(cfg, index)
    curve = fit_km(ds)
    fm = fraction_means(curve, cfg.grid)
    try:
        band = ep_band(curve, cfg.band_level)
        bounds = fraction_mean_bounds(curve, band, cfg.grid)
        band_ok = True
    except BandUndefinedError:
        bounds = ((math.nan, math.inf),) * cfg.grid.k
        band_ok = False
    return fm.mu, fm.computable, fm.events, bounds, band_ok, len(ds) - ds.n_events
