"""Bootstrap index draws from raw Philox words against numpy's own
``Generator.integers``, the replicate counts built from them against
per-replicate resamples, and the seed-to-key rule of both engines."""

import dataclasses

import numpy as np
import pytest

from helpers import random_censored_dataset, resample
from survfrac import Dataset, FractionGrid, SimConfig, bootstrap_compare, inference, run_study

KEY = (0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF)

# 2**31 is a power of two, so numpy keeps every draw, also those whose
# scaled remainder equals the threshold 0; at 2**31 + 1 about half of all
# draws are rejected; from 2**32 on numpy draws by other rules
RANGES = [1, 2, 3, 200, 20_000, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


def _stream(r):
    counter = np.array([0, 0, 0, r], dtype=np.uint64)
    return np.random.Philox(key=np.array(KEY, dtype=np.uint64), counter=counter)


def _numpy_draws(r, n, k):
    return np.random.Generator(_stream(r)).integers(0, n, size=k)


def _rejected_rows(start, stop, n, k):
    """Rows r in [start, stop) whose first k 32-bit halves of raw words,
    low half first, hold a draw that Lemire's rule rejects for n."""
    threshold = (2**32 - n) % n
    rows = set()
    for r in range(start, stop):
        words = _stream(r).random_raw(-(-k // 2)).tolist()
        halves = [half for w in words for half in (w % 2**32, w >> 32)]
        if any(u * n % 2**32 < threshold for u in halves[:k]):
            rows.add(r)
    return rows


@pytest.mark.parametrize("n", RANGES)
@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_index_draws_equal_numpy_integers(monkeypatch, n, k):
    calls = []
    real = inference._philox_rows

    def spy(streams):
        calls.append([counter[3] for _, counter in streams])
        return real(streams)

    monkeypatch.setattr(inference, "_philox_rows", spy)
    start, stop = 5, 205
    draws = inference._index_draws(KEY, start, stop, n, k)
    # below 2**32 the first call is the raw read; the last one redraws
    assert len(calls) == (2 if n < 2**32 else 1)
    redrawn = set(calls[-1])
    for i, r in enumerate(range(start, stop)):
        assert draws[i].tolist() == _numpy_draws(r, n, k).tolist(), (n, k, r)
    if n >= 2**32:
        assert redrawn == set(range(start, stop))
    else:
        assert redrawn == _rejected_rows(start, stop, n, k)
    if n == 2**31 + 1:
        # about half of all draws are rejected there
        assert redrawn


def _counts_reference(ds, group, seed, r):
    # columns are the sample's event times; each drawn observation counts
    # at the last of them at or before its time, and one before the first
    # event counts nowhere
    event_times = sorted({t for t, s in zip(ds.times.tolist(), ds.status.tolist()) if s})
    assert group.times.tolist() == event_times
    m = len(event_times)
    tot, ev = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    rs = resample(ds, seed, group.digest, r)
    for t, s in zip(rs.times.tolist(), rs.status.tolist()):
        j = sum(1 for e in event_times if e <= t) - 1
        if j >= 0:
            tot[j] += 1
            ev[j] += s == 1
    return tot, ev


SAMPLES = {
    "tied": lambda rng: random_censored_dataset(rng, n=60, tie_share=0.4),
    "distinct": lambda rng: random_censored_dataset(rng, n=60),
    "one": lambda rng: Dataset(times=np.array([2.5]), status=np.array([1])),
    "two": lambda rng: Dataset(times=np.array([1.0, 3.0]), status=np.array([0, 1])),
    # censorings before the first event, tied to both event times and after
    # the last one
    "censor-ties": lambda rng: Dataset(
        times=np.array([0.5, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0]),
        status=np.array([0, 0, 1, 0, 0, 1, 0, 0, 0])),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_replicate_counts_equal_resample_bincounts(kind):
    ds = SAMPLES[kind](np.random.default_rng(41))
    group = inference._prepare(ds)
    seed, start, stop = 23, 3, 120
    tot, ev = inference._replicate_counts(group, seed, start, stop)
    assert tot.shape == ev.shape == (stop - start, group.times.size)
    for i, r in enumerate(range(start, stop)):
        ref_tot, ref_ev = _counts_reference(ds, group, seed, r)
        assert tot[i].tolist() == ref_tot.tolist()
        assert ev[i].tolist() == ref_ev.tolist()


def _two_groups():
    rng = np.random.default_rng(17)
    return random_censored_dataset(rng, n=40), random_censored_dataset(rng, n=35)


@pytest.mark.parametrize("seed", [-5, 7])
def test_seed_is_taken_mod_2_64(seed):
    g0, g1 = _two_groups()
    grid = FractionGrid((0.0, 0.3, 0.6))

    def compare(s):
        return repr(bootstrap_compare(g0, g1, grid, horizon=1.0, B=100, seed=s))

    def study(s):
        summary = run_study(SimConfig(n_datasets=30, n=25, seed=s))
        return repr(dataclasses.replace(summary, config=None))

    assert compare(seed) == compare(seed + 2**64)
    assert study(seed) == study(seed + 2**64)
    # the seed does key the streams
    assert compare(seed) != compare(seed + 1)
    assert study(seed) != study(seed + 1)
