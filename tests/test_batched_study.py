"""The block-batched Monte Carlo study against the per-replicate references
(``reference_fit_km`` -> ``reference_fraction_means`` -> ``reference_ep_band``
-> ``reference_fraction_mean_bounds`` in ``helpers``): curves, flags and
counts bit for bit, band coefficients within ``helpers.COEFF_ULPS`` of the
scalar reference and the edges built on them bit for bit, and the masses,
which the kernel sums in another order than the references, within the
bound of ``helpers.assert_sum_close``."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_sum_close,
    random_censored_dataset,
    reference_ep_band,
    reference_fit_km,
    reference_fraction_mean_bounds,
    reference_fraction_means,
    replicate_stats,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    EmptyEventsError,
    FractionGrid,
    SimConfig,
    fit_km,
    run_study,
)
from survfrac import engine, sim
from survfrac.cli import main
from survfrac.km import _band_rows, _fit_rows

DESIGNS = {
    "n30": SimConfig(n_datasets=80, n=30, seed=1),
    "n80": SimConfig(n_datasets=60, n=80, seed=2),
    "n200": SimConfig(n_datasets=40, n=200, seed=3),
    "n500": SimConfig(n_datasets=20, n=500, seed=4),
    "n100-censor-upper-0.5": SimConfig(n_datasets=100, n=100, censor_upper=0.5, seed=30),
}


@pytest.mark.parametrize("design", list(DESIGNS))
def test_batched_study_matches_per_replicate_chain(design):
    cfg = DESIGNS[design]
    mu, computable, events, lower, upper, band_ok, censored = sim._study_block(
        cfg, (0, cfg.n_datasets)
    )
    for i in range(cfg.n_datasets):
        (r_mu, r_computable, r_events, r_bounds, r_band_ok, r_censored,
         steps, band_steps) = replicate_stats(cfg, i)
        assert_sum_close(mu[i], r_mu, steps)
        assert tuple(computable[i].tolist()) == r_computable
        assert tuple(events[i].tolist()) == r_events
        assert bool(band_ok[i]) == r_band_ok
        assert_sum_close(lower[i], [b[0] for b in r_bounds], band_steps)
        assert_sum_close(upper[i], [b[1] for b in r_bounds], band_steps)
        assert int(censored[i]) == r_censored
    if design == "n100-censor-upper-0.5":
        # the design reaches the rows without a band and the infinite uppers
        assert not band_ok.all()
        assert np.isinf(upper[band_ok]).any()


def test_study_rows_merge_tied_times_like_fit_km():
    rng = np.random.default_rng(41)
    grid = FractionGrid((0.0, 0.1, 0.3, 0.6, 0.9))
    level = 0.9
    samples = [random_censored_dataset(rng, n=40, tie_share=0.1) for _ in range(60)]
    # no band: a single event, and one step that empties the risk set
    samples.append(Dataset(times=np.round(np.arange(1, 41) * 0.1, 1),
                           status=np.eye(1, 40, 3, dtype=np.int64)[0]))
    samples.append(Dataset(times=np.full(40, 0.7), status=np.ones(40, dtype=np.int64)))
    times = np.stack([ds.times for ds in samples])
    status = np.stack([ds.status for ds in samples])
    assert all(np.unique(t).size < t.size for t in times[:60])

    curves = _fit_rows(times, status)
    width, _, band_lower, band_upper, reasons = _band_rows(
        curves.survival, curves.greenwood, curves.at_risk, curves.n, curves.steps, level)
    defined = np.array([reason is None for reason in reasons])
    assert np.array_equal(width == 0, ~defined)
    mu, computable, events, lower, upper, band_ok, censored = sim._study_rows(
        times, status, grid, level
    )
    assert np.array_equal(band_ok, defined)
    assert not band_ok[-2:].any()
    for r, ds in enumerate(samples):
        curve = reference_fit_km(ds)
        m = curves.steps[r]
        assert m == len(curve)
        for name in ("times", "at_risk", "events", "survival", "greenwood"):
            assert getattr(curves, name)[r, :m].tolist() == getattr(curve, name).tolist()
        fm = reference_fraction_means(curve, grid)
        assert_sum_close(mu[r], fm.mu, m)
        assert tuple(computable[r].tolist()) == fm.computable
        assert tuple(events[r].tolist()) == fm.events
        assert censored[r] == len(ds) - ds.n_events
        try:
            band = reference_ep_band(curve, level)
        except BandUndefinedError:
            assert not band_ok[r]
            assert np.isnan(lower[r]).all() and np.isinf(upper[r]).all()
            continue
        assert band_ok[r]
        w = width[r]
        assert band_lower[r, :w].tolist() == band.lower.tolist()
        assert band_upper[r, :w].tolist() == band.upper.tolist()
        bounds = reference_fraction_mean_bounds(band, grid)
        assert_sum_close(lower[r], [b[0] for b in bounds], w)
        assert_sum_close(upper[r], [b[1] for b in bounds], w)


def test_block_with_one_tied_row_matches_one_row_fits():
    # one tied row sends the whole block through the tie merge, which
    # must give each tie-free row what the merge-free path gives it alone
    rng = np.random.default_rng(5)
    samples = [random_censored_dataset(rng, n=30) for _ in range(8)]
    samples[3] = random_censored_dataset(rng, n=30, tie_share=0.3)
    times = np.stack([ds.times for ds in samples])
    status = np.stack([ds.status for ds in samples])
    assert [np.unique(t).size < t.size for t in times] == [r == 3 for r in range(8)]
    curves = _fit_rows(times, status)
    for r, ds in enumerate(samples):
        m = curves.steps[r]
        for curve in (fit_km(ds), reference_fit_km(ds)):
            assert m == len(curve)
            for name in ("times", "at_risk", "events", "survival", "greenwood"):
                assert getattr(curves, name)[r, :m].tolist() == getattr(curve, name).tolist()


def test_study_block_size_does_not_change_summary(monkeypatch):
    cfg = SimConfig(n_datasets=30, n=50, seed=8)
    summaries = []
    for rows in (1, 7, cfg.n_datasets):
        monkeypatch.setattr(engine, "_BLOCK_CELLS", rows * cfg.n)
        summaries.append(run_study(cfg))
    assert summaries[0] == summaries[1] == summaries[2]


def test_run_study_same_for_any_worker_count(monkeypatch):
    # blocks of 7 rows, so every worker gets several spans
    cfg = SimConfig(n_datasets=40, n=60, seed=12)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", 7 * cfg.n)
    serial = run_study(cfg, workers=1)
    assert run_study(cfg, workers=2) == serial
    assert run_study(cfg, workers=3) == serial


def test_pool_holds_at_most_one_worker_per_block(monkeypatch, capsys):
    sizes, chunks = [], []

    class SerialPool:
        """Stands in for ``ProcessPoolExecutor``: records the worker count
        and chunk size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            chunks.append(chunksize)
            return map(fn, items)

    # the pool class is imported when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)
    with monkeypatch.context() as blocks:
        # blocks of 10 cells: 2 rows of 5 cells, or 5 rows of 2
        blocks.setattr(engine, "_BLOCK_CELLS", 10)
        assert engine._map_blocks(tuple, 5, 5, workers=2) == [(0, 2), (2, 4), (4, 5)]
        assert engine._map_blocks(tuple, 5, 5, workers=4) == [(0, 2), (2, 4), (4, 5)]
        assert engine._map_blocks(tuple, 2, 2, workers=4) == [(0, 2)]
        # one usable CPU maps every span in this process
        blocks.setattr(engine, "_usable_cpus", lambda: 1)
        assert engine._map_blocks(tuple, 5, 5, workers=4) == [(0, 2), (2, 4), (4, 5)]
    # each worker gets one run of consecutive blocks
    assert sizes == [2, 3] and chunks == [2, 1]
    # 306 blocks of 327 rows, and a pool of one worker per CPU, not 10 000
    spans = engine._map_blocks(tuple, 100_000, 200, workers=10_000)
    assert len(spans) == 306 and spans[-1] == (99_735, 100_000)
    assert sizes == [2, 3, 4] and chunks == [2, 1, 77]
    # two samples of 20 fit one block, so the study starts no pool
    argv = ["simulate", "--n-datasets", "2", "--n", "20", "--censor-upper", "10",
            "--format", "csv"]
    assert main(argv + ["--workers", "4"]) == 0
    pooled = capsys.readouterr().out
    assert sizes == [2, 3, 4] and chunks == [2, 1, 77]
    assert main(argv) == 0
    assert capsys.readouterr().out == pooled


# Prints the repr of a bootstrap comparison and of a study, each at one and
# at two workers, under the start method named by the first argument, then
# whether a pool was started.  Blocks of 1 024 cells give both runs several
# spans, and two usable CPUs are assumed, so that a pool starts on any host
_START_METHOD_RUN = """
import multiprocessing, sys
import numpy as np
from survfrac import Dataset, FractionGrid, SimConfig, bootstrap_compare, engine, run_study

multiprocessing.set_start_method(sys.argv[1])
engine._BLOCK_CELLS = 1 << 10
engine._usable_cpus = lambda: 2
rng = np.random.default_rng(5)
g0, g1 = (Dataset(times=rng.exponential(size=n), status=(rng.random(n) < 0.7).astype(np.int64))
          for n in (60, 50))
grid = FractionGrid((0.0, 0.2, 0.4))
cfg = SimConfig(n_datasets=40, n=60, seed=12)
for workers in (1, 2):
    print(repr(bootstrap_compare(g0, g1, grid, horizon=0.5, B=200, seed=3, workers=workers)))
    print(repr(run_study(cfg, workers=workers)))
print("concurrent.futures.process" in sys.modules)
"""


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_same_results_under_every_start_method(method):
    src = Path(sim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _START_METHOD_RUN, method], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    compare1, study1, compare2, study2, pooled = proc.stdout.splitlines()
    assert pooled == "True"
    assert compare2 == compare1
    assert study2 == study1


@pytest.mark.parametrize("platform, affinity, cpu_count, usable", [
    ("linux", set(range(100)), 128, 100),
    ("win32", None, 100, 61),
    ("darwin", None, None, 1),
])
def test_usable_cpus(monkeypatch, platform, affinity, cpu_count, usable):
    # the affinity set where the platform has one, else the CPU count, and
    # at most 61 where ProcessPoolExecutor takes no more
    fake_os = types.SimpleNamespace(cpu_count=lambda: cpu_count)
    if affinity is not None:
        fake_os.sched_getaffinity = lambda pid: affinity
    monkeypatch.setattr(engine, "os", fake_os)
    monkeypatch.setattr(engine, "sys", types.SimpleNamespace(platform=platform))
    assert engine._usable_cpus() == usable


EVENT_FREE = dict(n_datasets=50, n=5, censor_upper=0.01, seed=1)
NO_EVENTS = "cannot fit a curve to a sample with no events"


@pytest.mark.parametrize("workers", [1, 2])
def test_event_free_replicate_raises(workers):
    with pytest.raises(EmptyEventsError, match=NO_EVENTS):
        run_study(SimConfig(**EVENT_FREE), workers=workers)


def test_event_free_replicate_exits_2(capsys):
    argv = ["simulate"]
    for key, value in EVENT_FREE.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"survfrac simulate: error: {NO_EVENTS}\n"
