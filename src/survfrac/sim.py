"""Monte Carlo study: censored log-logistic sampling, truth quadrature, aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import Dataset
from .engine import _BLOCK_CELLS, _map_blocks
from .fracmean import FractionGrid, _fraction_bound_rows, _fraction_mean_rows
from .km import _band_rows, _fit_rows, _range_widths

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


def _check_mean_exists(beta: float, grid: FractionGrid) -> None:
    if grid.lambdas[-1] >= 1.0 and beta <= 1.0:
        raise ValueError(
            f"mean diverges for shape beta={beta} <= 1 with the grid reaching 1")


def true_fraction_means(alpha: float, beta: float,
                        grid: FractionGrid) -> tuple[float, ...]:
    """Exact per-fraction means of the log-logistic: integral of Q over each slice.

    Adaptive quadrature with absolute tolerance 1e-8, one panel per grid
    fraction.  The quantile integrand diverges at p = 1 unless beta > 1, in
    which case the full mean does not exist.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    _check_mean_exists(beta, grid)

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
        # checked here, so a design without a truth fails before the study
        _check_mean_exists(self.beta, self.grid)


def _draw_rows(cfg: SimConfig, start: int, stop: int):
    """Samples [start, stop) as ``(times, status)`` rows.

    Sample i draws its event uniforms, then its censoring uniforms, from
    the Philox stream keyed by (seed, i) at counter 0.  One generator is
    reused with its key reset per sample, which gives the same draws as a
    fresh generator per sample.
    """
    n = cfg.n
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    seed = np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    u = np.empty((stop - start, 2 * n))
    for i in range(stop - start):
        fresh["state"]["key"] = np.array([seed, np.uint64(start + i)])
        bitgen.state = fresh
        rng.random(out=u[i])
    u_event, u_censor = u[:, :n], u[:, n:]
    t = cfg.alpha * (u_event / (1.0 - u_event)) ** (1.0 / cfg.beta)
    c = cfg.censor_upper * u_censor
    return np.minimum(t, c), (t <= c).astype(np.int64)


def generate_replicate(cfg: SimConfig, index: int) -> Dataset:
    """Draw one censored sample; deterministic given (cfg.seed, index)."""
    if not 0 <= index < cfg.n_datasets:
        raise ValueError(f"index {index} outside [0, {cfg.n_datasets})")
    times, status = _draw_rows(cfg, index, index + 1)
    return Dataset(times=times[0], status=status[0])


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


def _study_rows(times, status, grid: FractionGrid, level: float):
    """Per-sample statistics of the samples in the rows of ``(times, status)``.

    Returns ``(mu, computable, events, lower, upper, band_ok, censored)``:
    the fraction means, their flags, event counts and band-integrated
    bounds (rows x K), whether the band exists and the censored count
    (rows).  The public per-sample functions are the one-row case of these
    kernels; rows without a band get bounds ``(nan, inf)``.
    """
    curves = _fit_rows(times, status)
    mu, computable, events = _fraction_mean_rows(
        curves.times, curves.survival, curves.events, curves.steps, grid)
    width = _range_widths(curves.survival, curves.at_risk, curves.n, curves.steps)
    _, lower, upper, reasons = _band_rows(
        curves.survival, curves.greenwood, curves.n, width, level)
    band_ok = np.array([reason is None for reason in reasons])
    low, up = _fraction_bound_rows(curves.times, lower, upper, width, band_ok, grid)
    censored = times.shape[1] - status.sum(axis=1)
    return mu, computable, events, low, up, band_ok, censored


def _study_block(cfg: SimConfig, span):
    return _study_rows(*_draw_rows(cfg, *span), cfg.grid, cfg.band_level)


def run_study(cfg: SimConfig, workers: int = 1) -> SimSummary:
    """Run the full study and aggregate the per-fraction columns.

    Replicates are evaluated in blocks of rows, with ``workers > 1`` over
    a process pool.  Aggregation is an ordered reduction over replicate
    index, so results are identical for any degree of parallelism.
    """
    block = max(1, _BLOCK_CELLS // cfg.n)
    parts = _map_blocks(partial(_study_block, cfg), cfg.n_datasets, block, workers)
    mu, computable, events, lower, upper, band_ok, censored = (
        np.concatenate(col) for col in zip(*parts)
    )

    def total(values, mask):
        # the running sum a loop over replicates in index order would take
        return np.cumsum(np.where(mask, values, 0.0), axis=0)[-1]

    k = cfg.grid.k
    n_rep = cfg.n_datasets
    band = band_ok[:, None]
    low_mask = computable & band
    up_mask = band & np.isfinite(upper)
    mu_sum, mu_cnt = total(mu, computable), computable.sum(axis=0)
    ev_sum = total(events, computable)
    low_sum, low_cnt = total(lower, low_mask), low_mask.sum(axis=0)
    up_sum, up_cnt = total(upper, up_mask), up_mask.sum(axis=0)
    band_defined = int(band_ok.sum())
    censored_total = int(censored.sum())

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
