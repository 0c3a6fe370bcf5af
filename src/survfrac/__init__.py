"""Mean survival time by ordered fractions of a population, under right censoring."""

__version__ = "0.1.0"

from .dataset import (
    DataError,
    Dataset,
    EmptyEventsError,
    RowError,
    SchemaError,
    parse_csv,
    split_by_group,
)
from .fracmean import (
    FractionGrid,
    FractionMeans,
    decile_grid,
    fraction_mean_bounds,
    fraction_means,
    max_observed_fraction,
    restricted_mean,
    truncate_grid,
)
from .inference import (
    BootstrapComparison,
    DiffEstimate,
    bootstrap_compare,
    bootstrap_fraction_diff,
    bootstrap_restricted_mean_diff,
)
from .km import (
    BandPair,
    BandUndefinedError,
    KmCurve,
    ep_band,
    ep_critical_value,
    fit_km,
    quantile,
    survival_at,
)
from .sim import (
    SimConfig,
    SimSummary,
    generate_replicate,
    loglogistic_quantile,
    run_study,
    true_fraction_means,
)

__all__ = [
    "__version__",
    "DataError",
    "Dataset",
    "EmptyEventsError",
    "RowError",
    "SchemaError",
    "parse_csv",
    "split_by_group",
    "FractionGrid",
    "FractionMeans",
    "decile_grid",
    "fraction_mean_bounds",
    "fraction_means",
    "max_observed_fraction",
    "restricted_mean",
    "truncate_grid",
    "BootstrapComparison",
    "DiffEstimate",
    "bootstrap_compare",
    "bootstrap_fraction_diff",
    "bootstrap_restricted_mean_diff",
    "BandPair",
    "BandUndefinedError",
    "KmCurve",
    "ep_band",
    "ep_critical_value",
    "fit_km",
    "quantile",
    "survival_at",
    "SimConfig",
    "SimSummary",
    "generate_replicate",
    "loglogistic_quantile",
    "run_study",
    "true_fraction_means",
]
