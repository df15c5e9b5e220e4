"""Run configuration and defaults."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

from .errors import ConfigError

ESTIMATORS = ("logistic", "cbps", "marginal", "external")
CI_KINDS = ("percentile", "asymptotic")

DEFAULT_TRUNCATION = (0.01, 0.99)
DEFAULT_WEIGHT_CAP = 0.1
DEFAULT_MAX_REDRAWS = 10
DEFAULT_BALANCE_THRESHOLD = 0.1

# Paired solver defaults: (tolerance on the fit's max-norm criterion,
# iteration cap).
IRLS_TOL, IRLS_MAX_ITER = 1e-8, 100
CBPS_TOL, CBPS_MAX_ITER = 1e-6, 200

# The fields that hold counts, and those besides the truncation bounds
# that hold real settings.
_COUNTS = ("subset_size", "subsets", "replicates", "max_redraws", "threads", "seed")
_REALS = ("gamma", "alpha", "weight_cap", "balance_threshold")


@dataclass(frozen=True)
class BlbConfig:
    """Parameters of one subset-bootstrap run.

    Exactly one of ``gamma`` (b = n**gamma) or ``subset_size`` (b fixed,
    the b = n/s benchmarking convention) determines the subset size.
    A config is checked when made (``dataclasses.replace`` included), so
    an invalid one raises ``ConfigError``, and frozen, so a valid one
    cannot change.  ``draw_subset`` checks that b fits the table.
    """

    gamma: float | None = 0.7
    subset_size: int | None = None
    subsets: int = 10
    replicates: int = 100
    seed: int = 0
    truncation: tuple[float, float] = DEFAULT_TRUNCATION
    alpha: float = 0.05
    ci_kind: str = "percentile"
    estimator: str = "logistic"
    external_scores: str | None = None
    max_redraws: int = DEFAULT_MAX_REDRAWS
    weight_cap: float = DEFAULT_WEIGHT_CAP
    balance_threshold: float = DEFAULT_BALANCE_THRESHOLD
    redraw_on_imbalance: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if (self.gamma is None) == (self.subset_size is None):
            raise ConfigError("exactly one of gamma and subset_size must be set")
        lo, hi = self.truncation
        settings = {name: getattr(self, name) for name in _COUNTS + _REALS}
        settings.pop("gamma" if self.gamma is None else "subset_size")  # the one that is None
        settings.update({"truncation lo": lo, "truncation hi": hi})
        for name, value in settings.items():
            kind, what = (Integral, "an integer") if name in _COUNTS else (Real, "a real number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.gamma is not None and not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.subset_size is not None and self.subset_size < 2:
            raise ConfigError(f"subset_size must be at least 2, got {self.subset_size}")
        if self.subsets < 1:
            raise ConfigError(f"subsets must be at least 1, got {self.subsets}")
        if self.replicates < 2:
            raise ConfigError(f"replicates must be at least 2, got {self.replicates}")
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(f"truncation must satisfy 0 <= lo < hi <= 1, got {self.truncation}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.ci_kind not in CI_KINDS:
            raise ConfigError(f"ci_kind must be one of {CI_KINDS}, got {self.ci_kind!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.estimator == "external" and not self.external_scores:
            raise ConfigError("estimator 'external' requires an external_scores path")
        if self.estimator != "external" and self.external_scores is not None:
            raise ConfigError(f"estimator {self.estimator!r} ignores external_scores")
        if self.max_redraws < 0:
            raise ConfigError("max_redraws must be nonnegative")
        if self.weight_cap <= 0.0:
            raise ConfigError("weight_cap must be positive")
        if self.balance_threshold <= 0.0:
            raise ConfigError("balance_threshold must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
