"""Subset-bootstrap estimation of average treatment effects at scale.

Weighted bootstrap resamples of full-data size are drawn inside small
subsets and aggregated, giving bootstrap standard errors and confidence
intervals for inverse-propensity-weighted effect estimates at a fraction
of the cost of resampling the full dataset.
"""

__version__ = "0.1.0"

from .config import BlbConfig
from .data import ObservationTable, draw_subset, load_csv, subset_size
from .engine import BlbEstimate, SubsetEstimate, SubsetFit, iter_subsets, run_blb
from .errors import (
    CausalbootError,
    ConfigError,
    DataError,
    DegenerateSubsetError,
    EstimationError,
    RedrawBudgetError,
    SeparationError,
)
from .inference import (
    BalanceReport,
    ConfidenceInterval,
    asymptotic_ci,
    hajek_ipw,
    percentile_ci,
    smd_balance,
)
from .propensity import (
    ArmWeights,
    PropensityFit,
    fit_cbps,
    fit_logistic_irls,
    load_external_scores,
    marginal_propensity,
    normalized_weights,
    truncate_scores,
)
from .simulation import (
    DgmSample,
    RelErrTrajectory,
    ReplicationSummary,
    generate_dgm,
    relative_error,
    run_relerr_harness,
    run_replications,
    benchmark_timing,
)

__all__ = [
    "ArmWeights",
    "BalanceReport",
    "BlbConfig",
    "BlbEstimate",
    "CausalbootError",
    "ConfidenceInterval",
    "ConfigError",
    "DataError",
    "DegenerateSubsetError",
    "DgmSample",
    "EstimationError",
    "ObservationTable",
    "PropensityFit",
    "RedrawBudgetError",
    "RelErrTrajectory",
    "ReplicationSummary",
    "SeparationError",
    "SubsetEstimate",
    "SubsetFit",
    "asymptotic_ci",
    "benchmark_timing",
    "draw_subset",
    "fit_cbps",
    "fit_logistic_irls",
    "generate_dgm",
    "hajek_ipw",
    "iter_subsets",
    "load_csv",
    "load_external_scores",
    "marginal_propensity",
    "normalized_weights",
    "percentile_ci",
    "relative_error",
    "run_blb",
    "run_relerr_harness",
    "run_replications",
    "smd_balance",
    "subset_size",
    "truncate_scores",
]
