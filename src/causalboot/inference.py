"""Confidence intervals, the normalized-IPW point estimate, and balance
diagnostics.  All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .config import BlbConfig
from .errors import EstimationError
from .propensity import ArmWeights


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    kind: str
    alpha: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise EstimationError(
                f"interval bounds out of order: ({self.lower}, {self.upper})"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class BalanceReport:
    """Weighted standardized mean differences, one per covariate.

    Covariates with zero pooled SD get ``nan`` and are excluded from the
    max; ``not_applicable`` lists their names.
    """

    smd: dict[str, float]
    max_abs_smd: float | None
    threshold: float
    passed: bool
    not_applicable: tuple[str, ...] = ()


def percentile_ci(draws: np.ndarray, alpha: float) -> ConfidenceInterval:
    """Interval from the alpha/2 and 1-alpha/2 empirical quantiles.

    Uses linearly interpolated order statistics (the usual "type 7"
    convention).
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size < 2:
        raise EstimationError("need at least 2 draws for a percentile interval")
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return ConfidenceInterval(float(lo), float(hi), kind="percentile", alpha=alpha)


def asymptotic_ci(hajek: float, se: float, alpha: float) -> ConfidenceInterval:
    """Normal-theory interval centered at the whole-subset IPW estimate."""
    if se < 0.0:
        raise EstimationError(f"standard error must be nonnegative, got {se}")
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha}")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return ConfidenceInterval(hajek - z * se, hajek + z * se, kind="asymptotic", alpha=alpha)


def hajek_ipw(y0: np.ndarray, y1: np.ndarray, weights: ArmWeights) -> float:
    """Normalized inverse-propensity (Hajek) ATE estimate from the arms'
    outcomes.

    sum_treated(w1_i * y_i) - sum_control(w0_i * y_i), with each arm's
    weights summing to one.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    if y1.size != weights.w1.size or y0.size != weights.w0.size:
        raise EstimationError("arm weights do not match arm sizes")
    return float(np.einsum("i,i->", weights.w1, y1) - np.einsum("i,i->", weights.w0, y0))


def _mean_difference_and_sd(x0: np.ndarray, x1: np.ndarray, weights: ArmWeights
                            ) -> tuple[float, float]:
    """One covariate's weighted mean difference between the arms and its
    pooled SD.  The means go first: the order of the temporaries sets the
    heap layout, and with it the peak RSS at large b."""
    mean1 = float(np.einsum("i,i->", weights.w1, x1))
    mean0 = float(np.einsum("i,i->", weights.w0, x0))
    var1 = float(x1.var(ddof=1)) if x1.shape[0] > 1 else 0.0
    var0 = float(x0.var(ddof=1)) if x0.shape[0] > 1 else 0.0
    return mean1 - mean0, math.sqrt((var1 + var0) / 2.0)


def smd_balance(
    x0: np.ndarray,
    x1: np.ndarray,
    weights: ArmWeights,
    threshold: float = BlbConfig.balance_threshold,
    names: tuple[str, ...] | None = None,
) -> BalanceReport:
    """Weighted standardized mean difference of every covariate, from the
    arms' covariate rows.

    The numerator uses the arm weights; the denominator is the square
    root of the average of the two arms' unweighted sample variances.  A
    column whose pooled SD under- or overflows to 0 or inf is computed
    again scaled by the power of two that brings its largest magnitude
    into [0.5, 1).  That scaling is exact for normal numbers, and a
    standardized difference does not depend on scale.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(x1.shape[1]))

    smd: dict[str, float] = {}
    skipped: list[str] = []
    finite: list[float] = []
    for name, column0, column1 in zip(names, x0.T, x1.T):
        with np.errstate(over="ignore"):  # the variance of huge covariates; rescaled below
            diff, pooled = _mean_difference_and_sd(column0, column1, weights)
        if not 0.0 < pooled < math.inf:
            e = int(np.frexp(max(np.abs(column0).max(), np.abs(column1).max()))[1])
            diff, pooled = _mean_difference_and_sd(
                np.ldexp(column0, -e), np.ldexp(column1, -e), weights
            )
        if pooled == 0.0:
            smd[name] = float("nan")
            skipped.append(name)
            continue
        value = diff / pooled
        smd[name] = value
        finite.append(abs(value))

    max_abs = max(finite) if finite else None
    passed = max_abs is None or max_abs <= threshold
    return BalanceReport(
        smd=smd,
        max_abs_smd=max_abs,
        threshold=threshold,
        passed=passed,
        not_applicable=tuple(skipped),
    )
