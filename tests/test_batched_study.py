"""The block-batched Monte Carlo study against the per-replicate references
(``reference_fit_km`` -> ``reference_fraction_means`` -> ``reference_ep_band``
-> ``reference_fraction_mean_bounds`` in ``helpers``), compared exactly: the
batched rows must reproduce them bit for bit."""

import math

import numpy as np
import pytest

from helpers import (
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
    run_study,
)
from survfrac import sim
from survfrac.cli import main
from survfrac.km import _band_rows, _fit_rows, _range_widths

DESIGNS = {
    "n30": SimConfig(n_datasets=80, n=30, seed=1),
    "n80": SimConfig(n_datasets=60, n=80, seed=2),
    "n200": SimConfig(n_datasets=40, n=200, seed=3),
    "n500": SimConfig(n_datasets=20, n=500, seed=4),
    "n100-censor-upper-0.5": SimConfig(n_datasets=100, n=100, censor_upper=0.5, seed=30),
}


def same(a, b):
    """Exact equality that counts two NaNs as equal."""
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("design", list(DESIGNS))
def test_batched_study_matches_per_replicate_chain(design):
    cfg = DESIGNS[design]
    mu, computable, events, lower, upper, band_ok, censored = sim._study_block(
        cfg, (0, cfg.n_datasets)
    )
    for i in range(cfg.n_datasets):
        r_mu, r_computable, r_events, r_bounds, r_band_ok, r_censored = (
            replicate_stats(cfg, i)
        )
        assert all(same(a, b) for a, b in zip(mu[i].tolist(), r_mu)), i
        assert tuple(computable[i].tolist()) == r_computable
        assert tuple(events[i].tolist()) == r_events
        assert bool(band_ok[i]) == r_band_ok
        assert all(same(a, b) for a, b in zip(lower[i].tolist(), [b[0] for b in r_bounds]))
        assert all(same(a, b) for a, b in zip(upper[i].tolist(), [b[1] for b in r_bounds]))
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
    width = _range_widths(curves.survival, curves.at_risk, curves.n, curves.steps)
    _, band_lower, band_upper, reasons = _band_rows(
        curves.survival, curves.greenwood, curves.n, width, level)
    defined = np.array([reason is None for reason in reasons])
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
        assert mu[r].tolist() == list(fm.mu)
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
        bounds = reference_fraction_mean_bounds(curve, band, grid)
        assert lower[r].tolist() == [b[0] for b in bounds]
        assert upper[r].tolist() == [b[1] for b in bounds]


def test_study_block_size_does_not_change_summary(monkeypatch):
    cfg = SimConfig(n_datasets=30, n=50, seed=8)
    summaries = []
    for rows in (1, 7, cfg.n_datasets):
        monkeypatch.setattr(sim, "_BLOCK_CELLS", rows * cfg.n)
        summaries.append(run_study(cfg))
    assert summaries[0] == summaries[1] == summaries[2]


def test_run_study_same_for_any_worker_count(monkeypatch):
    # blocks of 7 rows, so every worker gets several spans
    cfg = SimConfig(n_datasets=40, n=60, seed=12)
    monkeypatch.setattr(sim, "_BLOCK_CELLS", 7 * cfg.n)
    serial = run_study(cfg, workers=1)
    assert run_study(cfg, workers=2) == serial
    assert run_study(cfg, workers=3) == serial


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
