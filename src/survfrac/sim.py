"""Monte Carlo study: censored log-logistic sampling, truth quadrature, aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import DataError
from .engine import _map_blocks, _philox_rows
from .fracmean import FractionGrid, _fraction_bound_rows, _window_masses
from .km import _band_rows, _fit_rows

__all__ = [
    "SimConfig",
    "SimSummary",
    "true_fraction_means",
    "run_study",
]


def _check_mean_exists(beta: float, grid: FractionGrid) -> None:
    if grid.lambdas[-1] >= 1.0 and beta <= 1.0:
        raise DataError(
            f"mean diverges for shape beta={beta} <= 1 with the grid reaching 1")


# Tanh-sinh quadrature (Takahasi & Mori 1974): step and half-range in t
_TS_STEP = 1.0 / 64
_TS_RANGE = 5.0
# Largest s = 1/beta at which a panel ending at 1 is integrated directly.
# Its integrand grows like (1-p)**-s there, so the rule, cut at t = +-5,
# misses about exp(-233 * (1 - s)) of it: under 1e-25 up to this s.  Above
# it the panel is the closed-form whole less [0, a].
_DIRECT_MAX_S = 0.75


def _tanh_sinh_nodes():
    """The rule on [0, 1] as ``(v, 1 - v, w)``: panel [a, b] has nodes
    ``p = a + (b - a) * v`` and weights ``(b - a) * w``.

    ``v`` and ``1 - v`` each come from their own formula, so that the
    distances p - a and b - p keep their digits near either endpoint.
    """
    t = np.arange(-_TS_RANGE, _TS_RANGE + _TS_STEP / 2, _TS_STEP)
    u = 0.5 * math.pi * np.sinh(t)
    v = 1.0 / (1.0 + np.exp(-2.0 * u))
    vc = 1.0 / (1.0 + np.exp(2.0 * u))
    return v, vc, _TS_STEP * math.pi * np.cosh(t) * v * vc


def _panel(s: float, a: float, b: float, nodes) -> float:
    """Integral of (p / (1 - p))**s over [a, b], b <= 1, by the rule."""
    v, vc, w = nodes
    p = a + (b - a) * v
    q = (1.0 - b) + (b - a) * vc
    # a value too large for a float becomes inf, and the caller rejects it
    with np.errstate(over="ignore"):
        return (b - a) * float(np.sum(w * np.exp(s * (np.log(p) - np.log(q)))))


def true_fraction_means(alpha: float, beta: float,
                        grid: FractionGrid) -> tuple[float, ...]:
    """Exact per-fraction means of the log-logistic: integral of Q over each slice.

    Fraction (a, b] has mean alpha * integral of (p / (1 - p))**s over
    [a, b], s = 1/beta.  Each panel is one tanh-sinh rule (step 1/64, t in
    [-5, 5]) with the integrand evaluated as exp(s * (log p - log(1 - p))).
    A panel [a, 1] with s > 3/4 is the whole, pi*s / sin(pi*s) (which
    exists for beta > 1), less the panel [0, a].  At beta = 1 the rule is
    kept over the closed form -p - log1p(-p), whose differences cancel near
    0: 2e-10 relative on (0, 1e-6].  Against mpmath's incomplete beta the
    values agree within 1e-14 relative for beta in [0.3, 20] and edges from
    1e-13 to 1 - 1e-13.

    Raises DataError when the grid reaches 1 with beta <= 1, where the mean
    diverges, and when a fraction's mean is too large for a float.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    _check_mean_exists(beta, grid)
    s = 1.0 / beta
    nodes = _tanh_sinh_nodes()
    out = []
    for k, (a, b) in enumerate(zip(grid.lambdas, grid.lambdas[1:]), start=1):
        if b == 1.0 and s > _DIRECT_MAX_S:
            # sin(pi*s) = sin(pi*(1 - s)), and 1 - s is exact for s >= 1/2
            whole = math.pi * s / math.sin(math.pi * (1.0 - s))
            value = whole - (_panel(s, 0.0, a, nodes) if a else 0.0)
        else:
            value = _panel(s, a, b, nodes)
        value *= alpha
        if not math.isfinite(value):
            raise DataError(
                f"true mean of fraction {k} ({a}, {b}] is not finite "
                f"for alpha={alpha}, beta={beta}")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SimConfig:
    """Design of one simulation study.

    Event times are log-logistic(alpha, beta); censoring times are uniform
    on (0, censor_upper), independent.  Every replicate is reproducible
    from (seed, replicate index) alone.
    """

    n_datasets: int = 500
    n: int = 200
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
            raise DataError("n_datasets must be >= 1")
        if self.n < 2:
            raise DataError("n must be >= 2")
        params = (self.alpha, self.beta, self.censor_upper)
        if any(value <= 0 for value in params):
            raise DataError("alpha, beta and censor_upper must be positive")
        if not all(map(math.isfinite, params)):
            raise DataError("alpha, beta and censor_upper must be finite")
        if not 0.0 < self.band_level < 1.0:
            raise DataError("band_level must be in (0, 1)")
        # checked here, so a design without a truth fails before the study
        _check_mean_exists(self.beta, self.grid)


def _draw_rows(cfg: SimConfig, start: int, stop: int):
    """Samples [start, stop) as ``(times, status)`` rows.

    Sample i draws its event uniforms, then its censoring uniforms, from
    the Philox stream keyed by (seed, i) at counter 0.
    """
    n = cfg.n
    u = np.empty((stop - start, 2 * n))
    streams = [((cfg.seed, i), (0, 0, 0, 0)) for i in range(start, stop)]
    for row, rng in zip(u, _philox_rows(streams)):
        rng.random(out=row)
    u_event, u_censor = u[:, :n], u[:, n:]
    # a small beta sends some event times past the float range; inf is the
    # right value there, since such a time is later than every censoring
    with np.errstate(over="ignore"):
        t = cfg.alpha * (u_event / (1.0 - u_event)) ** (1.0 / cfg.beta)
    c = cfg.censor_upper * u_censor
    return np.minimum(t, c), (t <= c).astype(np.int64)


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
    mu, computable, events = _window_masses(
        curves.times, curves.survival, curves.steps, grid, curves.events)
    width, _, lower, upper, _ = _band_rows(curves.survival, curves.greenwood,
                                           curves.at_risk, curves.n, curves.steps, level)
    low, up = _fraction_bound_rows(curves.times, lower, upper, width, grid)
    censored = times.shape[1] - status.sum(axis=1)
    return mu, computable, events, low, up, width > 0, censored


def _study_block(cfg: SimConfig, span):
    return _study_rows(*_draw_rows(cfg, *span), cfg.grid, cfg.band_level)


def run_study(cfg: SimConfig, workers: int = 1) -> SimSummary:
    """Run the full study and aggregate the per-fraction columns.

    Replicates are evaluated in blocks of rows, with ``workers > 1`` over
    a process pool.  Aggregation is an ordered reduction over replicate
    index, so results are identical for any degree of parallelism.
    """
    # the truth first, so a design without one fails before the study
    true_mu = true_fraction_means(cfg.alpha, cfg.beta, cfg.grid)
    parts = _map_blocks(partial(_study_block, cfg), cfg.n_datasets, cfg.n, workers)
    mu, computable, events, lower, upper, band_ok, censored = (
        np.concatenate(col) for col in zip(*parts)
    )

    def mean(values, mask, empty=math.nan):
        # per column, the running sum a loop over replicates in index order
        # would take, over the count of masked replicates
        total = np.cumsum(np.where(mask, values, 0.0), axis=0)[-1]
        count = mask.sum(axis=0)
        return tuple(float(total[j] / count[j]) if count[j] else empty
                     for j in range(cfg.grid.k))

    n_rep = cfg.n_datasets
    band = band_ok[:, None]
    up_mask = band & np.isfinite(upper)
    band_defined = int(band_ok.sum())

    return SimSummary(
        grid=cfg.grid,
        true_mu=true_mu,
        mean_estimate=mean(mu, computable),
        mean_lower=mean(lower, computable & band),
        # an averaged upper bound with no finite contributions is itself
        # infinite
        mean_upper=mean(upper, up_mask, math.inf if band_defined else math.nan),
        computable_share=tuple(float(c / n_rep) for c in computable.sum(axis=0)),
        finite_upper_share=tuple(
            float(c / band_defined) if band_defined else math.nan
            for c in up_mask.sum(axis=0)
        ),
        mean_events=mean(events, computable),
        censoring_rate=int(censored.sum()) / (n_rep * cfg.n),
        n_datasets=n_rep,
        band_undefined_count=n_rep - band_defined,
        config=cfg,
    )
