"""Where the user-error boundary lies.

A check on a value the caller passes raises :class:`DataError`, which the
command line reports with exit status 2.  A check that guards the
program's own arguments raises a plain ``ValueError``, which must end in a
traceback.  The command line re-types and re-runs none of the library's
checks.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import survfrac.cli
from survfrac import (
    BandPair,
    DataError,
    Dataset,
    FractionGrid,
    KmCurve,
    SimConfig,
    bootstrap_compare,
    ep_band,
    fit_km,
    fraction_means,
    generate_replicate,
    max_observed_fraction,
    quantile,
    restricted_mean,
    true_fraction_means,
    truncate_grid,
)
from survfrac.output import OutputDocument, render

SAMPLE = Dataset(times=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                 status=np.array([1, 1, 0, 1, 1]))
CURVE = fit_km(SAMPLE)
GRID = FractionGrid.from_uppers([0.5])
DIVERGENT = FractionGrid.from_uppers([0.5, 1.0])


@pytest.mark.parametrize("check, message", [
    (lambda: FractionGrid((0.0,)), "grid needs at least one fraction"),
    (lambda: FractionGrid((0.1, 0.5)), "grid must start at 0, got 0.1"),
    (lambda: FractionGrid((0.0, 0.5, 0.4)),
     "grid proportions must strictly increase: (0.0, 0.5, 0.4)"),
    (lambda: FractionGrid((0.0, 1.5)), "grid proportions cannot exceed 1: 1.5"),
    (lambda: FractionGrid((0.0, 0.5, math.nan)),
     "grid proportions cannot be NaN: (0.0, 0.5, nan)"),
    (lambda: FractionGrid.from_uppers([math.nan]),
     "grid proportions cannot be NaN: (0.0, nan)"),
    (lambda: truncate_grid(GRID, 0.7),
     "no grid fraction lies within max observed fraction 0.3; "
     "the smallest grid fraction is 0.5"),
    (lambda: ep_band(CURVE, 1.5), "level must be in (0, 1), got 1.5"),
    (lambda: ep_band(CURVE, math.nan), "level must be in (0, 1), got nan"),
    (lambda: bootstrap_compare(SAMPLE, SAMPLE, GRID, B=50),
     "need at least 100 bootstrap replicates, got 50"),
    (lambda: bootstrap_compare(SAMPLE, SAMPLE, GRID, B=100, level=1.0),
     "level must be in (0, 1), got 1.0"),
    (lambda: bootstrap_compare(SAMPLE, SAMPLE, GRID, horizon=math.inf, B=100),
     "horizon must be finite and positive, got inf"),
    (lambda: bootstrap_compare(SAMPLE, SAMPLE, None, horizon=-1.0, B=100),
     "horizon must be finite and positive, got -1.0"),
    (lambda: bootstrap_compare(SAMPLE, SAMPLE, None, B=100),
     "nothing to compare: give a grid, a horizon or both"),
    (lambda: SimConfig(n_datasets=0, n=10), "n_datasets must be >= 1"),
    (lambda: SimConfig(n_datasets=1, n=1), "n must be >= 2"),
    (lambda: SimConfig(n_datasets=1, n=10, alpha=-1.0),
     "alpha, beta and censor_upper must be positive"),
    (lambda: SimConfig(n_datasets=1, n=10, censor_upper=-math.inf),
     "alpha, beta and censor_upper must be positive"),
    (lambda: SimConfig(n_datasets=1, n=10, alpha=math.nan),
     "alpha, beta and censor_upper must be finite"),
    (lambda: SimConfig(n_datasets=1, n=10, beta=math.inf),
     "alpha, beta and censor_upper must be finite"),
    (lambda: SimConfig(n_datasets=1, n=10, censor_upper=math.nan),
     "alpha, beta and censor_upper must be finite"),
    (lambda: SimConfig(n_datasets=1, n=10, band_level=1.0),
     "band_level must be in (0, 1)"),
    (lambda: SimConfig(n_datasets=1, n=10, beta=0.9, grid=DIVERGENT),
     "mean diverges for shape beta=0.9 <= 1 with the grid reaching 1"),
    (lambda: true_fraction_means(1.0, 0.01, FractionGrid.from_uppers([0.5, 0.9999])),
     "true mean of fraction 2 (0.5, 0.9999] is not finite for alpha=1.0, beta=0.01"),
    (lambda: true_fraction_means(1e308, 1.5, FractionGrid.from_uppers([1.0])),
     "true mean of fraction 1 (0.0, 1.0] is not finite for alpha=1e+308, beta=1.5"),
])
def test_checks_on_caller_values_raise_data_error(check, message):
    with pytest.raises(DataError) as info:
        check()
    assert str(info.value) == message


EMPTY_CURVE = KmCurve(times=np.empty(0), at_risk=np.empty(0, dtype=np.int64),
                      events=np.empty(0, dtype=np.int64), survival=np.empty(0),
                      greenwood=np.empty(0), n=0)
EMPTY_BAND = BandPair(level=0.95, coefficient=1.0, times=np.empty(0), lower=np.empty(0),
                      upper=np.empty(0))


@pytest.mark.parametrize("check", [
    lambda: max_observed_fraction(EMPTY_CURVE),
    lambda: fraction_means(EMPTY_CURVE, GRID),
    lambda: fraction_means(CURVE, GRID, band=EMPTY_BAND),
    lambda: restricted_mean(CURVE, 0.0),
    lambda: quantile(CURVE, 0.0),
    lambda: render(OutputDocument(command="estimate", metadata={}, sections=[]), "xml"),
    lambda: true_fraction_means(0.0, 2.0, GRID),
    lambda: generate_replicate(SimConfig(n_datasets=1, n=10), 1),
])
def test_checks_on_program_values_stay_plain_value_errors(check):
    with pytest.raises(ValueError) as info:
        check()
    assert not isinstance(info.value, DataError)


def test_cli_imports_no_private_package_name():
    tree = ast.parse(Path(survfrac.cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("survfrac"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
