"""Bootstrap index draws from raw Philox words against numpy's own
``Generator.integers``, and the replicate counts built from them against
per-replicate resamples."""

import numpy as np
import pytest

from helpers import random_censored_dataset, resample
from survfrac import Dataset, inference

KEY = (0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF)

# 2**31 is a power of two, so numpy keeps every draw, also those whose
# scaled remainder equals the threshold 0; at 2**31 + 1 about half of all
# draws are rejected; from 2**32 on numpy draws by other rules
RANGES = [1, 2, 3, 200, 20_000, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


def _stream(r):
    counter = np.array([0, 0, 0, r], dtype=np.uint64)
    return np.random.Philox(key=np.array(KEY, dtype=np.uint64), counter=counter)


def _numpy_draws(r, n, k):
    """numpy's draws and the count of 64-bit words they read."""
    bitgen = _stream(r)
    draws = np.random.Generator(bitgen).integers(0, n, size=k)
    state = bitgen.state
    # the counter steps once per block of four words, before the block
    blocks = int(state["state"]["counter"][0])
    return draws, 4 * (blocks - 1) + state["buffer_pos"] if blocks else 0


@pytest.mark.parametrize("n", RANGES)
@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_index_draws_equal_numpy_integers(monkeypatch, n, k):
    calls = []
    real = inference._philox_rows

    def spy(streams, fill):
        calls.append([counter[3] for _, counter in streams])
        real(streams, fill)

    monkeypatch.setattr(inference, "_philox_rows", spy)
    start, stop = 5, 205
    draws = inference._index_draws(KEY, start, stop, n, k)
    # below 2**32 the first call is the raw read and any later one redraws
    reads = 1 if n < 2**32 else 0
    assert len(calls) <= reads + 1
    redrawn = {r for rows in calls[reads:] for r in rows}
    spare_path = False
    for i, r in enumerate(range(start, stop)):
        expected, words = _numpy_draws(r, n, k)
        assert draws[i].tolist() == expected.tolist(), (n, k, r)
        spare_path |= r not in redrawn and words > -(-k // 2)
    if n >= 2**32:
        assert redrawn == set(range(start, stop))
    elif n == 2**31 + 1:
        # about twice ceil(k / 2) words are needed: the spare words hold
        # that for some rows of a few draws, and the other rows are drawn
        # again
        assert redrawn
        assert spare_path or k > 8
    else:
        assert not redrawn


def _counts_reference(ds, group, seed, r):
    rs = resample(ds, seed, group.digest, r)
    column = np.searchsorted(group.times, rs.times)
    m = group.times.size
    return (np.bincount(column, minlength=m),
            np.bincount(column, weights=rs.status == 1, minlength=m).astype(np.int64))


SAMPLES = {
    "tied": lambda rng: random_censored_dataset(rng, n=60, tie_share=0.4),
    "distinct": lambda rng: random_censored_dataset(rng, n=60),
    "one": lambda rng: Dataset(times=np.array([2.5]), status=np.array([1])),
    "two": lambda rng: Dataset(times=np.array([1.0, 3.0]), status=np.array([0, 1])),
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
