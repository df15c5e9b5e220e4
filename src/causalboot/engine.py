"""Subset-bootstrap engine for the average treatment effect.

For each of ``s`` subsets of size ``b`` drawn from the full table, the
engine fits propensity scores, forms normalized arm weights, and draws
``r`` replicate pairs of multinomial count vectors at the *full-data*
arm sizes (n1, n0).  Each replicate yields

    tau_hat = (1/n1) * sum_treated(M1_i * y_i)
            - (1/n0) * sum_control(M0_i * y_i)

and per-subset summaries (mean, bootstrap SD, percentile bounds, the
whole-subset Hajek estimate) are averaged across subsets.

``iter_subsets`` is the one subset pipeline and ``run_subset`` the one
replicate kernel; ``run_blb`` folds the former into a ``BlbEstimate``,
and the relative-error study in ``simulation`` folds it into running
intervals.

Every random draw comes from a substream keyed by (seed, subset,
attempt), with a subset's replicates drawn in a fixed batched order
from its own stream, so results are bit-identical regardless of thread
count or scheduling.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .config import BlbConfig
from .data import ObservationTable, draw_subset, subset_size
from .errors import DegenerateSubsetError, EstimationError, RedrawBudgetError, SeparationError
from .inference import BalanceReport, ConfidenceInterval, asymptotic_ci, hajek_ipw, percentile_ci, smd_balance
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


@dataclass(frozen=True)
class SubsetFit:
    """One subset's data reordered controls-first, with weights attached."""

    subset_id: int
    indices: np.ndarray          # original row ids, controls first
    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    b0: int
    b1: int
    weights: ArmWeights
    fit: PropensityFit

    @property
    def b(self) -> int:
        return self.b0 + self.b1

    @property
    def y0(self) -> np.ndarray:
        return self.y[: self.b0]

    @property
    def y1(self) -> np.ndarray:
        return self.y[self.b0 :]


@dataclass
class SubsetEstimate:
    """Replicate summaries for one subset."""

    subset_id: int
    b0: int
    b1: int
    draws: np.ndarray
    mean: float
    se: float
    q_lower: float
    q_upper: float
    hajek: float
    asym_lower: float
    asym_upper: float
    redraws: int
    balance: BalanceReport
    fit_method: str
    fit_converged: bool
    fit_iterations: int
    fit_objective: float
    clamped: int
    # Wall time of the subset's fits over all attempts and of its
    # resampling; reported outside payloads.
    fit_seconds: float = 0.0
    resample_seconds: float = 0.0


@dataclass
class BlbEstimate:
    """Aggregated estimate with per-subset detail and diagnostics."""

    tau_hat: float
    se: float
    ci: ConfidenceInterval
    ci_percentile: ConfidenceInterval
    ci_asymptotic: ConfidenceInterval
    hajek: float
    n: int
    n0: int
    n1: int
    b: int
    subsets: list[SubsetEstimate]
    diagnostics: dict
    timings: dict = field(default_factory=dict)


def order_subset(
    table: ObservationTable,
    indices: np.ndarray,
    fit: PropensityFit,
    subset_id: int = 0,
) -> SubsetFit:
    """Reorder a subset controls-first and attach normalized weights.

    The reorder is stable: rows keep their original relative order
    within each arm.  Raises ``DegenerateSubsetError`` when the subset
    has a single arm.
    """
    w_sub = table.w[indices]
    b1 = int(w_sub.sum())
    b = w_sub.shape[0]
    if b1 == 0 or b1 == b:
        raise DegenerateSubsetError(f"subset {subset_id} has a single treatment arm")
    if fit.scores.shape[0] != b:
        raise EstimationError("fitted scores do not match subset size")
    order = np.argsort(w_sub, kind="stable")
    idx = np.asarray(indices)[order]
    w_ord = w_sub[order]
    fit_ord = PropensityFit(
        scores=fit.scores[order],
        coefficients=fit.coefficients,
        method=fit.method,
        converged=fit.converged,
        iterations=fit.iterations,
        objective=fit.objective,
        clamped=fit.clamped,
    )
    weights = normalized_weights(fit_ord, w_ord)
    return SubsetFit(
        subset_id=subset_id,
        indices=idx,
        y=table.y[idx],
        w=w_ord,
        x=table.x[idx],
        b0=b - b1,
        b1=b1,
        weights=weights,
        fit=fit_ord,
    )


def run_subset(
    subsetfit: SubsetFit,
    r: int,
    n0: int,
    n1: int,
    alpha: float,
    stream: np.random.Generator,
    redraws: int = 0,
    balance: BalanceReport | None = None,
) -> SubsetEstimate:
    """Draw ``r`` replicate count pairs and summarize their estimates.

    All r treated count vectors are drawn in one batched call, then all
    r control vectors, from the subset's dedicated substream; the result
    depends only on (stream state, r) and never on scheduling.
    """
    if r < 2:
        raise EstimationError(f"need at least 2 replicates, got {r}")
    w0, w1 = subsetfit.weights.w0, subsetfit.weights.w1
    y0, y1 = subsetfit.y0, subsetfit.y1
    m1 = stream.multinomial(n1, w1, size=r)
    m0 = stream.multinomial(n0, w0, size=r)
    draws = (m1 @ y1) / n1 - (m0 @ y0) / n0
    mean = float(draws.mean())
    se = float(draws.std(ddof=1))
    pct = percentile_ci(draws, alpha)
    hajek = hajek_ipw(subsetfit.y, subsetfit.w, subsetfit.weights)
    asym = asymptotic_ci(hajek, se, alpha)
    if balance is None:
        balance = smd_balance(subsetfit.x, subsetfit.w, subsetfit.weights)
    return SubsetEstimate(
        subset_id=subsetfit.subset_id,
        b0=subsetfit.b0,
        b1=subsetfit.b1,
        draws=draws,
        mean=mean,
        se=se,
        q_lower=pct.lower,
        q_upper=pct.upper,
        hajek=hajek,
        asym_lower=asym.lower,
        asym_upper=asym.upper,
        redraws=redraws,
        balance=balance,
        fit_method=subsetfit.fit.method,
        fit_converged=subsetfit.fit.converged,
        fit_iterations=subsetfit.fit.iterations,
        fit_objective=subsetfit.fit.objective,
        clamped=subsetfit.fit.clamped,
    )


def _fit_scores(
    table: ObservationTable,
    indices: np.ndarray,
    config: BlbConfig,
    external: PropensityFit | None,
) -> PropensityFit:
    w_sub = table.w[indices]
    if config.estimator == "logistic":
        return fit_logistic_irls(table.x[indices], w_sub)
    if config.estimator == "cbps":
        return fit_cbps(table.x[indices], w_sub)
    if config.estimator == "marginal":
        return marginal_propensity(w_sub)
    # external: slice the full-data score vector at the subset rows
    assert external is not None
    return PropensityFit(
        scores=external.scores[indices],
        coefficients=external.coefficients,
        method="external",
        converged=True,
        iterations=0,
        objective=0.0,
    )


def _run_one_subset(
    table: ObservationTable,
    config: BlbConfig,
    k: int,
    b: int,
    external: PropensityFit | None,
) -> SubsetEstimate:
    """Draw subset ``k``, redrawing on degeneracy, overlap, or fit failure."""
    n0, n1 = table.n0, table.n1
    lo, hi = config.truncation
    reasons: list[str] = []
    fit_seconds = 0.0
    for attempt in range(config.max_redraws + 1):
        stream = rng.substream(config.seed, rng.DOMAIN_SUBSET, k, attempt)
        indices = draw_subset(table, b, stream)
        w_sub = table.w[indices]
        b1 = int(w_sub.sum())
        if b1 == 0 or b1 == b:
            reasons.append(f"attempt {attempt}: single arm")
            continue
        t0 = time.perf_counter()
        try:
            fit = _fit_scores(table, indices, config, external)
            fit = truncate_scores(fit, lo, hi)
            subsetfit = order_subset(table, indices, fit, subset_id=k)
        except EstimationError as exc:
            reasons.append(f"attempt {attempt}: {exc}")
            continue
        finally:
            fit_seconds += time.perf_counter() - t0
        max_weight = max(
            float(subsetfit.weights.w0.max()), float(subsetfit.weights.w1.max())
        )
        if max_weight > config.weight_cap:
            reasons.append(f"attempt {attempt}: weight {max_weight:.3g} above cap")
            continue
        balance = smd_balance(
            subsetfit.x,
            subsetfit.w,
            subsetfit.weights,
            threshold=config.balance_threshold,
            names=table.covariate_names,
        )
        if config.redraw_on_imbalance and not balance.passed:
            reasons.append(
                f"attempt {attempt}: max |SMD| {balance.max_abs_smd:.3g} above threshold"
            )
            continue
        rep_stream = rng.substream(config.seed, rng.DOMAIN_REPLICATE, k, attempt)
        t0 = time.perf_counter()
        estimate = run_subset(
            subsetfit,
            config.replicates,
            n0,
            n1,
            config.alpha,
            rep_stream,
            redraws=attempt,
            balance=balance,
        )
        estimate.resample_seconds = time.perf_counter() - t0
        estimate.fit_seconds = fit_seconds
        return estimate
    raise RedrawBudgetError(
        f"subset {k}: no usable subset in {config.max_redraws + 1} attempts "
        f"({'; '.join(reasons)})"
    )


def iter_subsets(table: ObservationTable, config: BlbConfig) -> Iterator[SubsetEstimate]:
    """Yield the estimate of each subset k = 0, 1, ..., s-1 in order.

    This is the one subset pipeline.  It validates ``config`` and
    resolves the subset size and any external scores once; each subset
    is then drawn, fitted, truncated, ordered, checked against the weight
    cap and (optionally) the balance threshold, redrawn on failure, and
    resampled.  With ``config.threads > 1`` the subsets run on a thread
    pool whose ordered map keeps the output independent of scheduling.
    Closing the generator early cancels subsets not yet started.
    """
    config.validate()
    if table.n0 == 0 or table.n1 == 0:
        raise EstimationError("table must contain both treatment arms")
    if config.subset_size is not None:
        b = config.subset_size
        if b > table.n:
            raise EstimationError(f"subset_size {b} exceeds table size {table.n}")
    else:
        b = subset_size(table.n, config.gamma)

    external: PropensityFit | None = None
    if config.estimator == "external":
        external = load_external_scores(config.external_scores, table.n)

    def job(k: int) -> SubsetEstimate:
        return _run_one_subset(table, config, k, b, external)

    ks = range(config.subsets)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            yield from pool.map(job, ks)
    else:
        yield from map(job, ks)


def run_blb(table: ObservationTable, config: BlbConfig) -> BlbEstimate:
    """Full subset-bootstrap run: a fold over ``iter_subsets``.

    Aggregation follows the plain unweighted-mean scheme: the point
    estimate is the mean of per-subset bootstrap means, the standard
    error the mean of per-subset bootstrap SDs, and each interval bound
    the mean of the per-subset bounds.  The result is a pure function of
    (table, config), independent of thread count.
    """
    start = time.perf_counter()
    estimates = list(iter_subsets(table, config))
    b = estimates[0].b0 + estimates[0].b1  # every subset has size b

    tau_hat = float(np.mean([e.mean for e in estimates]))
    se = float(np.mean([e.se for e in estimates]))
    ci_pct = ConfidenceInterval(
        float(np.mean([e.q_lower for e in estimates])),
        float(np.mean([e.q_upper for e in estimates])),
        kind="percentile",
        alpha=config.alpha,
    )
    ci_asym = ConfidenceInterval(
        float(np.mean([e.asym_lower for e in estimates])),
        float(np.mean([e.asym_upper for e in estimates])),
        kind="asymptotic",
        alpha=config.alpha,
    )
    ci = ci_pct if config.ci_kind == "percentile" else ci_asym
    hajek = float(np.mean([e.hajek for e in estimates]))

    total_rows = config.subsets * b
    diagnostics = {
        "total_redraws": int(sum(e.redraws for e in estimates)),
        "clamped_rows": int(sum(e.clamped for e in estimates)),
        "clamped_fraction": float(sum(e.clamped for e in estimates) / total_rows),
        "balance_failures": int(sum(not e.balance.passed for e in estimates)),
        "nonconverged_fits": int(sum(not e.fit_converged for e in estimates)),
        "max_abs_smd": max(
            (e.balance.max_abs_smd for e in estimates if e.balance.max_abs_smd is not None),
            default=None,
        ),
    }
    timings = {
        "fit_seconds": sum(e.fit_seconds for e in estimates),
        "resample_seconds": sum(e.resample_seconds for e in estimates),
        "total_seconds": time.perf_counter() - start,
    }
    return BlbEstimate(
        tau_hat=tau_hat,
        se=se,
        ci=ci,
        ci_percentile=ci_pct,
        ci_asymptotic=ci_asym,
        hajek=hajek,
        n=table.n,
        n0=table.n0,
        n1=table.n1,
        b=b,
        subsets=estimates,
        diagnostics=diagnostics,
        timings=timings,
    )
