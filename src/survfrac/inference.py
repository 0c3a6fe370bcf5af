"""Stratified bootstrap comparison of fraction means between two groups.

A replicate is a vector of frequency weights over the sorted distinct event
times of each group's sample: its index draw becomes a row of per-time
counts, each censoring counted at the last event time at or before it.
Replicates are evaluated in blocks of such rows with one vectorised
product-limit computation (:func:`survfrac.km._km_rows`), and every
statistic of a replicate comes from that one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .dataset import DataError, Dataset
from .engine import _map_blocks, _philox_rows
from .fracmean import (
    FractionGrid,
    _restricted_mean_rows,
    _window_masses,
    fraction_means,
    restricted_mean,
)
from .km import KmCurve, _check_level, _km_rows, fit_km

__all__ = [
    "DiffEstimate",
    "BootstrapComparison",
    "bootstrap_compare",
]

@dataclass(frozen=True)
class DiffEstimate:
    """A group-1-minus-group-0 difference with its percentile interval.

    ``effective_replicates`` counts the bootstrap replicates that actually
    informed the interval (both groups computable, no discarded resample);
    ``unreliable`` flags intervals built from fewer than ``_FLOOR_SHARE``
    (half) of the requested replicates.
    """

    point: float
    ci_lower: float
    ci_upper: float
    effective_replicates: int
    requested_replicates: int
    unreliable: bool


class BootstrapComparison(NamedTuple):
    """Per-fraction differences and, when a horizon was given, the
    restricted-mean difference, all from the same replicates.

    ``discarded_replicates`` counts the replicates dropped from every
    estimate because a group lost all its events.
    """

    fractions: list[DiffEstimate]
    restricted: DiffEstimate | None
    discarded_replicates: int


def _group_digest(ds: Dataset) -> int:
    """Stable 64-bit content digest; keys the group's resampling stream.

    Keying streams by content (not argument position) makes swapping the
    two groups negate every replicate difference exactly, and makes
    identical groups produce identical resamples.
    """
    import hashlib  # here, so that only compare loads it

    h = hashlib.blake2b(digest_size=8)
    h.update(ds.times.tobytes())
    h.update(ds.status.tobytes())
    return int.from_bytes(h.digest(), "little")


class _Group(NamedTuple):
    """What a replicate block needs of one group's sample."""

    times: np.ndarray  # sorted distinct event times
    # per observation: 2 * (index of the last event time at or before its
    # time, or len(times) before the first) + (1 if an event).  Events come
    # before censorings in a tie, so a censoring is at risk at exactly the
    # event times up to its own; one before the first event is at none
    code: np.ndarray
    digest: int


def _prepare(ds: Dataset) -> _Group:
    times = np.unique(ds.times[ds.status == 1])
    # index -1, before the first event, wraps to the spare column len(times)
    column = (np.searchsorted(times, ds.times, side="right") - 1) % (times.size + 1)
    return _Group(times, 2 * column + (ds.status == 1), _group_digest(ds))


def _bounded_rows(raw: np.ndarray, n: int, k: int):
    """The ``integers(0, n, size=k)`` draws of each row of raw Philox
    words, 0 < n < 2**32, and the mask of rows with a rejected draw among
    their first ``k`` halves, whose draws are not numpy's.

    This is numpy's int64 rule for such n: each 64-bit word gives two 32-bit
    draws u, its low half first, and with m = u * n a draw is kept iff
    m mod 2**32 >= (2**32 - n) mod n (Lemire's rule), its value m >> 32.
    The product's dtype is given, since numpy before 2.0 would otherwise
    keep it at 32 bits.
    """
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :k]
    scaled = np.multiply(halves, np.uint64(n), dtype=np.uint64)
    rejected = scaled.astype(np.uint32) < (2**32 - n) % n
    scaled >>= np.uint64(32)
    return scaled.view(np.int64), rejected.any(axis=1)


def _index_draws(key, start: int, stop: int, n: int, k: int) -> np.ndarray:
    """Rows r in [start, stop) of ``integers(0, n, size=k)`` from the Philox
    stream at ``key`` and counter (0, 0, 0, r).

    Each row is one raw read of ceil(k / 2) words of its stream, turned
    into draws for the whole block at once by :func:`_bounded_rows`.  A row
    with a rejected draw, and every row when n >= 2**32 (where numpy takes
    other rules), is drawn again by ``integers`` itself.
    """
    streams = [(key, (0, 0, 0, r)) for r in range(start, stop)]
    if n < 2**32:
        raw = np.empty((len(streams), -(-k // 2)), dtype=np.uint64)
        for row, rng in zip(raw, _philox_rows(streams)):
            row[:] = rng.bit_generator.random_raw(row.size)
        draws, redo = _bounded_rows(raw, n, k)
    else:
        draws = np.empty((len(streams), k), dtype=np.int64)
        redo = np.ones(len(streams), dtype=bool)
    rows = np.flatnonzero(redo)
    for r, rng in zip(rows, _philox_rows([streams[r] for r in rows])):
        draws[r] = rng.integers(0, n, size=k)
    return draws


def _replicate_counts(group: _Group, seed: int, start: int, stop: int):
    """Per-event-time observation and event counts of replicates [start, stop).

    Replicate r draws ``integers(0, n, size=n)`` from the Philox stream
    keyed by (seed, group digest) at counter (0, 0, 0, r).  One count of
    the drawn observations' codes gives both counts of every row; the
    spare column of the censorings before the first event is dropped.
    """
    m = group.times.size
    rows = stop - start
    n = group.code.size
    cells = group.code[_index_draws((seed, group.digest), start, stop, n, n)]
    cells += (2 * m + 2) * np.arange(rows)[:, None]
    counts = np.bincount(cells.ravel(), minlength=(2 * m + 2) * rows)
    counts = counts.reshape(rows, m + 1, 2)[:, :m]
    return counts[..., 0] + counts[..., 1], counts[..., 1]


def _replicate_stats(group: _Group, grid: FractionGrid | None, horizon,
                     seed: int, start: int, stop: int):
    """One group's statistics for replicates [start, stop).

    Returns ``(stats, computable, has_events)``: a row per replicate of the
    per-fraction means, then the restricted mean when a horizon is given;
    whether each of these is computable (the restricted mean always is);
    and whether the replicate kept any event.
    """
    tot, ev = _replicate_counts(group, seed, start, stop)
    _, surv = _km_rows(tot, ev)
    k = 0 if grid is None else grid.k
    stats = np.empty((stop - start, k + (horizon is not None)))
    computable = np.ones(stats.shape, dtype=bool)
    if grid is not None:
        # every column is a valid curve value: a time without events in a
        # replicate repeats the previous value and so adds no mass
        mu, reaches, _ = _window_masses(
            group.times, surv, np.full(len(surv), surv.shape[1]), grid)
        stats[:, :k] = mu / np.asarray(grid.widths)
        computable[:, :k] = reaches
    if horizon is not None:
        stats[:, -1] = _restricted_mean_rows(group.times, surv, horizon)
    return stats, computable, ev.any(axis=1)


def _block_diffs(g0: _Group, g1: _Group, grid, horizon, seed, span):
    """Group-1-minus-group-0 statistic rows for the replicates in ``span``,
    and how many of them were discarded.

    Columns are the grid fractions, then the restricted mean when a
    horizon is given.  NaN marks a fraction not computable on either side
    and every column of a replicate discarded for losing all events.
    """
    start, stop = span
    stats0, ok0, ev0 = _replicate_stats(g0, grid, horizon, seed, start, stop)
    stats1, ok1, ev1 = _replicate_stats(g1, grid, horizon, seed, start, stop)
    diffs = stats1 - stats0
    diffs[~(ok0 & ok1)] = np.nan
    discarded = ~(ev0 & ev1)
    diffs[discarded] = np.nan
    return diffs, int(discarded.sum())


def _replicate_diffs(g0: Dataset, g1: Dataset, grid, horizon, B: int,
                     seed: int, workers: int):
    """All B replicate rows of :func:`_block_diffs`, in replicate order,
    and the count of discarded replicates.

    A row draws once per observation of the larger group.  A pool of
    ``workers > 1`` maps the same blocks, with the same result.
    """
    p0, p1 = _prepare(g0), _prepare(g1)
    work = partial(_block_diffs, p0, p1, grid, horizon, seed)
    diffs, discarded = zip(*_map_blocks(work, B, max(len(g0), len(g1)), workers))
    return np.concatenate(diffs), sum(discarded)


def _percentile_ci(diffs: np.ndarray, level: float) -> tuple[float, float]:
    """Percentile interval from the order statistics of replicate diffs.

    The lower endpoint is the ceil(B * (1 - level) / 2)-th order statistic
    of the level as written (0.95 is 19/20), the upper its mirror B + 1 -
    that rank, so swapping group labels reflects the interval exactly.
    """
    from fractions import Fraction  # here, so that only compare loads it

    b = diffs.size
    lo_rank = max(1, math.ceil((1 - Fraction(repr(float(level)))) * b / 2))
    up_rank = b + 1 - lo_rank
    ordered = np.sort(diffs)
    return float(ordered[lo_rank - 1]), float(ordered[up_rank - 1])


# share of the requested replicates below which an interval is unreliable
_FLOOR_SHARE = 0.5


def _estimate(point: float, col: np.ndarray, B: int, level: float) -> DiffEstimate:
    col = col[~np.isnan(col)]
    if col.size:
        ci_lo, ci_up = _percentile_ci(col, level)
    else:
        ci_lo, ci_up = math.nan, math.nan
    return DiffEstimate(
        point=float(point),
        ci_lower=ci_lo,
        ci_upper=ci_up,
        effective_replicates=int(col.size),
        requested_replicates=B,
        unreliable=col.size < _FLOOR_SHARE * B,
    )


def bootstrap_compare(
    g0: Dataset,
    g1: Dataset,
    grid: FractionGrid | None,
    horizon: float | None = None,
    B: int = 2000,
    level: float = 0.95,
    seed: int = 0,
    workers: int = 1,
    *,
    curves: tuple[KmCurve, KmCurve] | None = None,
) -> BootstrapComparison:
    """Bootstrap mu_bar(g1) - mu_bar(g0) per fraction and, at ``horizon``,
    the restricted-mean difference, in one pass over the replicates.

    Resampling is stratified: each replicate redraws within each group,
    with replacement, preserving group sizes.  Replicates where a group
    loses all its events are discarded; replicates where a fraction is not
    computable on either side are dropped for that fraction only.  Point
    estimates come from the original samples.  The caller is expected to
    have truncated ``grid`` to the fractions both groups support (see
    :func:`survfrac.fracmean.truncate_grid`).  Pass ``grid=None`` to
    compare restricted means only.  ``curves`` may pass the groups' fitted
    curves, ``(fit_km(g0), fit_km(g1))``, when the caller has them already.

    Deterministic given (inputs, B, level, seed), for any ``workers``.
    """
    if B < 100:
        raise DataError(f"need at least 100 bootstrap replicates, got {B}")
    _check_level(level)
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise DataError(f"horizon must be finite and positive, got {horizon}")
    if grid is None and horizon is None:
        raise DataError("nothing to compare: give a grid, a horizon or both")
    c0, c1 = curves if curves is not None else (fit_km(g0), fit_km(g1))
    points: list[float] = []
    if grid is not None:
        fm0 = fraction_means(c0, grid)
        fm1 = fraction_means(c1, grid)
        points += [b1 - b0 for b0, b1 in zip(fm0.mu_bar, fm1.mu_bar)]
    if horizon is not None:
        points.append(restricted_mean(c1, horizon) - restricted_mean(c0, horizon))

    diffs, discarded = _replicate_diffs(g0, g1, grid, horizon, B, seed, workers)
    out = [_estimate(p, diffs[:, j], B, level) for j, p in enumerate(points)]
    if horizon is None:
        return BootstrapComparison(out, None, discarded)
    return BootstrapComparison(out[:-1], out[-1], discarded)
