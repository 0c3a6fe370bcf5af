"""Monte Carlo study: censored log-logistic sampling, truth quadrature, aggregation."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import Dataset
from .fracmean import FractionGrid, fraction_mean_bounds, fraction_means
from .km import BandUndefinedError, ep_band, fit_km

__all__ = [
    "SimConfig",
    "SimSummary",
    "loglogistic_quantile",
    "true_fraction_means",
    "generate_replicate",
    "run_study",
]


def loglogistic_quantile(alpha: float, beta: float, p: float) -> float:
    """Inverse CDF of the log-logistic distribution: alpha * (p/(1-p))**(1/beta)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return alpha * (p / (1.0 - p)) ** (1.0 / beta)


def true_fraction_means(alpha: float, beta: float,
                        grid: FractionGrid) -> tuple[float, ...]:
    """Exact per-fraction means of the log-logistic: integral of Q over each slice.

    Adaptive quadrature with absolute tolerance 1e-8, one panel per grid
    fraction.  The quantile integrand diverges at p = 1 unless beta > 1, in
    which case the full mean does not exist.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if grid.lambdas[-1] >= 1.0 and beta <= 1.0:
        raise ValueError(
            f"mean diverges for shape beta={beta} <= 1 with the grid reaching 1"
        )

    # scipy is imported here, its only use, to keep it off the CLI start-up
    from scipy import integrate

    def q(p: float) -> float:
        return alpha * (p / (1.0 - p)) ** (1.0 / beta)

    out = []
    for a, b in zip(grid.lambdas, grid.lambdas[1:]):
        val, _ = integrate.quad(q, a, b, epsabs=1e-8, epsrel=1e-10, limit=200)
        out.append(val)
    return tuple(out)


@dataclass(frozen=True)
class SimConfig:
    """Design of one simulation study.

    Event times are log-logistic(alpha, beta); censoring times are uniform
    on (0, censor_upper), independent.  Every replicate is reproducible
    from (seed, replicate index) alone.
    """

    n_datasets: int
    n: int
    alpha: float = 1.0
    beta: float = 2.0
    censor_upper: float = 7.0 / 3.0
    grid: FractionGrid = field(
        default_factory=lambda: FractionGrid.from_uppers((0.2, 0.4, 0.6, 0.8, 0.95))
    )
    band_level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.alpha <= 0 or self.beta <= 0 or self.censor_upper <= 0:
            raise ValueError("alpha, beta and censor_upper must be positive")
        if not 0.0 < self.band_level < 1.0:
            raise ValueError("band_level must be in (0, 1)")


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    # Counter-based stream: one Philox key per (seed, replicate).
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def generate_replicate(cfg: SimConfig, index: int) -> Dataset:
    """Draw one censored sample; deterministic given (cfg.seed, index)."""
    if not 0 <= index < cfg.n_datasets:
        raise ValueError(f"index {index} outside [0, {cfg.n_datasets})")
    rng = _replicate_rng(cfg.seed, index)
    u_event = rng.random(cfg.n)
    u_censor = rng.random(cfg.n)
    t = cfg.alpha * (u_event / (1.0 - u_event)) ** (1.0 / cfg.beta)
    c = cfg.censor_upper * u_censor
    return Dataset(times=np.minimum(t, c), status=(t <= c).astype(np.int64))


@dataclass(frozen=True)
class SimSummary:
    """Aggregated per-fraction results of a study.

    Estimates and event counts are averaged over the replicates where the
    fraction was computable; upper bounds are averaged over replicates
    where they were finite, with the finite share reported alongside.
    Fields are NaN when no replicate qualified.
    """

    grid: FractionGrid
    true_mu: tuple[float, ...]
    mean_estimate: tuple[float, ...]
    mean_lower: tuple[float, ...]
    mean_upper: tuple[float, ...]
    computable_share: tuple[float, ...]
    finite_upper_share: tuple[float, ...]
    mean_events: tuple[float, ...]
    censoring_rate: float
    n_datasets: int
    band_undefined_count: int
    config: SimConfig


def _replicate_stats(cfg: SimConfig, index: int):
    """Per-replicate contribution: estimates, flags, bounds, event counts."""
    ds = generate_replicate(cfg, index)
    curve = fit_km(ds)
    fm = fraction_means(curve, cfg.grid)
    k = cfg.grid.k
    try:
        band = ep_band(curve, cfg.band_level)
        bounds = fraction_mean_bounds(curve, band, cfg.grid)
        band_ok = True
    except BandUndefinedError:
        bounds = ((math.nan, math.inf),) * k
        band_ok = False
    censored = len(ds) - ds.n_events
    return (fm.mu, fm.computable, fm.events, bounds, band_ok, censored)


def run_study(cfg: SimConfig, workers: int = 1) -> SimSummary:
    """Run the full study and aggregate the per-fraction columns.

    Replicates are independent; with ``workers > 1`` they are evaluated in
    a process pool.  Aggregation is an ordered reduction over replicate
    index, so results are identical for any degree of parallelism.
    """
    indices = range(cfg.n_datasets)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(partial(_replicate_stats, cfg), indices, chunksize=64)
            )
    else:
        results = [_replicate_stats(cfg, i) for i in indices]

    k = cfg.grid.k
    n_rep = cfg.n_datasets
    mu_sum = np.zeros(k)
    mu_cnt = np.zeros(k, dtype=int)
    ev_sum = np.zeros(k)
    low_sum = np.zeros(k)
    low_cnt = np.zeros(k, dtype=int)
    up_sum = np.zeros(k)
    up_cnt = np.zeros(k, dtype=int)
    band_defined = 0
    censored_total = 0

    for mu, computable, events, bounds, band_ok, censored in results:
        censored_total += censored
        band_defined += band_ok
        for j in range(k):
            if computable[j]:
                mu_cnt[j] += 1
                mu_sum[j] += mu[j]
                ev_sum[j] += events[j]
                if band_ok:
                    low_cnt[j] += 1
                    low_sum[j] += bounds[j][0]
            if band_ok and math.isfinite(bounds[j][1]):
                up_cnt[j] += 1
                up_sum[j] += bounds[j][1]

    def ratio(num, cnt):
        return tuple(
            float(num[j] / cnt[j]) if cnt[j] else math.nan for j in range(k)
        )

    # an averaged upper bound with no finite contributions is itself infinite
    mean_upper = tuple(
        float(up_sum[j] / up_cnt[j])
        if up_cnt[j]
        else (math.inf if band_defined else math.nan)
        for j in range(k)
    )

    return SimSummary(
        grid=cfg.grid,
        true_mu=true_fraction_means(cfg.alpha, cfg.beta, cfg.grid),
        mean_estimate=ratio(mu_sum, mu_cnt),
        mean_lower=ratio(low_sum, low_cnt),
        mean_upper=mean_upper,
        computable_share=tuple(float(c / n_rep) for c in mu_cnt),
        finite_upper_share=tuple(
            float(up_cnt[j] / band_defined) if band_defined else math.nan
            for j in range(k)
        ),
        mean_events=ratio(ev_sum, mu_cnt),
        censoring_rate=censored_total / (n_rep * cfg.n),
        n_datasets=n_rep,
        band_undefined_count=n_rep - band_defined,
        config=cfg,
    )
