"""Simulation studies: synthetic data generation, bias/coverage
replications, relative-error trajectories, and timing benchmarks.

All studies run the engine's own code: replications and timing runs call
``run_blb``, the relative-error study folds ``iter_subsets`` subset by
subset, and the fit-only timing grid calls the engine's fit dispatcher.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import rng
from .config import BlbConfig, DEFAULT_TRUNCATION
from .data import ObservationTable
from .engine import _fit_scores, iter_subsets, order_subset, run_blb
from .errors import ConfigError, EstimationError
from .inference import hajek_ipw, percentile_ci
from .propensity import fit_logistic_irls, truncate_scores

TRUE_ATE = 2.0


@dataclass(frozen=True)
class DgmSample:
    """Synthetic dataset with its hidden truth retained.

    ``p`` standard-normal confounders (two by default); treatment
    assigned with probability inverse-logit(c*x1 + ... + c*xp), c =
    -0.5*sqrt(2/p), or 0.5 in the randomized variant; outcome
    y = x1 + ... + xp + eps + 2*w.  The per-unit effect is exactly 2.
    """

    table: ObservationTable
    true_propensity: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    tau: float = TRUE_ATE


def generate_dgm(
    n: int, stream: np.random.Generator, p: int = 2, randomized: bool = False
) -> DgmSample:
    """One draw of the confounded benchmark process.

    The assignment coefficient -0.5*sqrt(2/p) keeps the variance of the
    linear predictor at that of the two-covariate process for any p.
    ``randomized`` assigns W ~ Bernoulli(0.5) independent of the
    covariates, the setting the marginal estimator is meant for.  The
    stream is consumed in the same order either way.
    """
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")
    if p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    x = stream.standard_normal((n, p))
    if randomized:
        pi = np.full(n, 0.5)
    else:
        pi = expit(x @ np.full(p, -0.5 * np.sqrt(2.0 / p)))
    w = (stream.random(n) < pi).astype(np.int64)
    eps = stream.standard_normal(n)
    y0 = x.sum(axis=1) + eps
    y1 = y0 + TRUE_ATE
    y = np.where(w == 1, y1, y0)
    table = ObservationTable(y=y, w=w, x=x)
    return DgmSample(table=table, true_propensity=pi, y0=y0, y1=y1)


def generate_wide_dgm(n: int, p: int, stream: np.random.Generator) -> ObservationTable:
    """The table of ``generate_dgm`` with ``p`` confounders."""
    return generate_dgm(n, stream, p).table


@dataclass
class ReplicationRecord:
    tau_hat: float
    se: float
    lower: float
    upper: float
    covered: bool
    pct_covered: bool
    asym_covered: bool
    seconds: float


@dataclass
class ReplicationSummary:
    """Aggregates over independent replications of the process."""

    records: list[ReplicationRecord]
    tau: float
    bias: float
    mcse_mean: float
    mean_se: float
    coverage: float
    coverage_mcse: float
    coverage_percentile: float
    coverage_asymptotic: float
    timing_quartiles: tuple[float, float, float]
    replications: int

    def zip_rows(self) -> list[dict]:
        """One row per replication with the centile rank of the
        standardized error |tau_hat - tau| / se, for coverage plots."""
        stats = []
        for i, rec in enumerate(self.records):
            z = abs(rec.tau_hat - self.tau) / rec.se if rec.se > 0 else float("inf")
            stats.append((z, i))
        ranks = {}
        for rank, (_, i) in enumerate(sorted(stats), start=1):
            ranks[i] = (rank - 0.5) / len(stats)
        return [
            {
                "replication": i,
                "tau_hat": rec.tau_hat,
                "se": rec.se,
                "lower": rec.lower,
                "upper": rec.upper,
                "covered": int(rec.covered),
                "centile_rank": ranks[i],
            }
            for i, rec in enumerate(self.records)
        ]


def run_replications(
    R: int,
    n: int,
    config: BlbConfig,
    seed: int,
    threads: int = 1,
    randomized: bool = False,
) -> ReplicationSummary:
    """Analyze ``R`` fresh synthetic datasets and summarize bias/coverage.

    Each replication gets its own dataset substream and derived run
    seed, so the summary is reproducible and schedule-independent.
    """
    if R < 10:
        raise ConfigError(f"replications must be at least 10, got {R}")
    config.validate()

    def one(i: int) -> ReplicationRecord:
        sample = generate_dgm(
            n, rng.substream(seed, rng.DOMAIN_DATASET, i), randomized=randomized
        )
        cfg = dataclasses.replace(config, seed=rng.derive_seed(seed, i), threads=1)
        t0 = time.perf_counter()
        result = run_blb(sample.table, cfg)
        seconds = time.perf_counter() - t0
        return ReplicationRecord(
            tau_hat=result.tau_hat,
            se=result.se,
            lower=result.ci.lower,
            upper=result.ci.upper,
            covered=result.ci.contains(sample.tau),
            pct_covered=result.ci_percentile.contains(sample.tau),
            asym_covered=result.ci_asymptotic.contains(sample.tau),
            seconds=seconds,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, range(R)))
    else:
        records = [one(i) for i in range(R)]

    taus = np.array([r.tau_hat for r in records])
    coverage = float(np.mean([r.covered for r in records]))
    seconds = np.array([r.seconds for r in records])
    q25, q50, q75 = np.quantile(seconds, [0.25, 0.5, 0.75])
    return ReplicationSummary(
        records=records,
        tau=TRUE_ATE,
        bias=float(taus.mean() - TRUE_ATE),
        mcse_mean=float(taus.std(ddof=1) / np.sqrt(R)),
        mean_se=float(np.mean([r.se for r in records])),
        coverage=coverage,
        coverage_mcse=float(np.sqrt(coverage * (1.0 - coverage) / R)),
        coverage_percentile=float(np.mean([r.pct_covered for r in records])),
        coverage_asymptotic=float(np.mean([r.asym_covered for r in records])),
        timing_quartiles=(float(q25), float(q50), float(q75)),
        replications=R,
    )


def relative_error(oracle_ci: tuple[float, float], blb_ci: tuple[float, float]) -> float:
    """Mean relative deviation of the interval bounds from the oracle's.

    (|c_lo - xi_lo| / |xi_lo| + |c_up - xi_up| / |xi_up|) / 2.  Oracle
    bounds of exactly zero are rejected; the metric is undefined there.
    """
    xi_lo, xi_up = oracle_ci
    c_lo, c_up = blb_ci
    if xi_lo == 0.0 or xi_up == 0.0:
        raise EstimationError("oracle interval bound is exactly zero")
    return 0.5 * (abs(c_lo - xi_lo) / abs(xi_lo) + abs(c_up - xi_up) / abs(xi_up))


@dataclass
class RelErrTrajectory:
    """Relative error and cumulative time after each processed subset."""

    gamma: float
    subset_counts: list[int]
    cum_seconds: list[float]
    err: list[float]
    oracle_ci: tuple[float, float]


def oracle_interval(
    n: int,
    oracle_reps: int,
    seed: int,
    alpha: float = 0.05,
    truncation: tuple[float, float] = DEFAULT_TRUNCATION,
) -> tuple[float, float]:
    """Sampling-distribution interval of the full-data weighted estimator.

    Quantiles of the Hajek estimate (logistic scores, truncated) over
    ``oracle_reps`` fresh datasets.
    """
    if oracle_reps < 100:
        raise ConfigError(f"oracle_reps must be at least 100, got {oracle_reps}")
    estimates = np.empty(oracle_reps)
    for t in range(oracle_reps):
        sample = generate_dgm(n, rng.substream(seed, rng.DOMAIN_ORACLE, t))
        table = sample.table
        fit = fit_logistic_irls(table.x, table.w)
        fit = truncate_scores(fit, *truncation)
        sf = order_subset(table, np.arange(table.n), fit)
        estimates[t] = hajek_ipw(sf.y, sf.w, sf.weights)
    ci = percentile_ci(estimates, alpha)
    return (ci.lower, ci.upper)


def run_relerr_harness(
    n: int,
    gammas: list[float],
    r: int,
    oracle_reps: int,
    data_reps: int,
    seed: int,
    s_max: int = 10,
    alpha: float = 0.05,
    truncation: tuple[float, float] = DEFAULT_TRUNCATION,
) -> list[RelErrTrajectory]:
    """Relative-error trajectories versus the full-data oracle interval.

    For each gamma and dataset this is a running fold over
    ``iter_subsets``, the pipeline ``run_blb`` uses: after subset s the
    running interval is the mean of the per-subset percentile bounds
    seen so far, and its relative error against the oracle interval is
    recorded together with cumulative processing time.  The weight cap
    is off (1.0) because the oracle interval has none.  Trajectories are
    averaged over ``data_reps`` independent datasets shared across
    gammas.  Every gamma's configuration is validated before the oracle
    is computed.
    """
    if data_reps < 1:
        raise ConfigError("data_reps must be at least 1")
    configs = [
        BlbConfig(
            gamma=gamma, subsets=s_max, replicates=r, alpha=alpha,
            truncation=truncation, weight_cap=1.0,
        ).validate()
        for gamma in gammas
    ]
    oracle = oracle_interval(n, oracle_reps, seed, alpha=alpha, truncation=truncation)

    tables = [
        generate_dgm(n, rng.substream(seed, rng.DOMAIN_DATASET, d)).table
        for d in range(data_reps)
    ]

    out: list[RelErrTrajectory] = []
    for gi, config in enumerate(configs):
        err_acc = np.zeros(s_max)
        time_acc = np.zeros(s_max)
        for d, table in enumerate(tables):
            q_lo: list[float] = []
            q_up: list[float] = []
            cfg = dataclasses.replace(config, seed=rng.derive_seed(seed, gi, d))
            t0 = time.perf_counter()
            for k, est in enumerate(iter_subsets(table, cfg)):
                time_acc[k] += time.perf_counter() - t0
                q_lo.append(est.q_lower)
                q_up.append(est.q_upper)
                running = (float(np.mean(q_lo)), float(np.mean(q_up)))
                err_acc[k] += relative_error(oracle, running)
        out.append(
            RelErrTrajectory(
                gamma=config.gamma,
                subset_counts=list(range(1, s_max + 1)),
                cum_seconds=list(time_acc / data_reps),
                err=list(err_acc / data_reps),
                oracle_ci=oracle,
            )
        )
    return out


@dataclass
class TimingCell:
    n: int
    p: int
    method: str
    s: int
    seconds: list[float]

    @property
    def median_seconds(self) -> float:
        return float(np.median(self.seconds))


def benchmark_timing(
    ns: list[int],
    estimators: list[str],
    s_values: list[int],
    p: int,
    reps: int,
    seed: int,
    r: int = 100,
    grid: bool = False,
    grid_ps: list[int] | None = None,
) -> list[TimingCell]:
    """Wall-time benchmark over (n, method, s) cells.

    Standard mode times full runs with the comparable-size convention
    b = n/s.  Grid mode reproduces the wide-data exercise: for each
    (n, p) it times ``s`` consecutive propensity fits on one dataset of
    size n/s, skipping the resampling stage.
    """
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    for s in s_values:
        if s < 1:
            raise ConfigError(f"subset count must be at least 1, got {s}")
    ps = grid_ps if (grid and grid_ps) else [p]
    cells: list[TimingCell] = []
    for n_index, n in enumerate(ns):
        for p_index, p_val in enumerate(ps):
            datasets = {}
            for method in estimators:
                for s in s_values:
                    b = int(round(n / s))
                    if grid:
                        key = (b, p_val)
                        if key not in datasets:
                            datasets[key] = generate_wide_dgm(
                                b, p_val, rng.substream(seed, rng.DOMAIN_BENCH, n_index, p_index, s)
                            )
                        table = datasets[key]
                        cfg = BlbConfig(estimator=method).validate()
                        rows = np.arange(table.n)
                        seconds = []
                        for rep in range(reps):
                            t0 = time.perf_counter()
                            for k in range(s):
                                _fit_scores(table, rows, cfg, None)
                            seconds.append(time.perf_counter() - t0)
                    else:
                        key = (n, p_val)
                        if key not in datasets:
                            datasets[key] = generate_wide_dgm(
                                n, p_val, rng.substream(seed, rng.DOMAIN_BENCH, n_index, p_index)
                            )
                        table = datasets[key]
                        seconds = []
                        for rep in range(reps):
                            cfg = BlbConfig(
                                gamma=None,
                                subset_size=b,
                                subsets=s,
                                replicates=r,
                                seed=rng.derive_seed(seed, n_index, p_index, s, rep),
                                estimator=method,
                            )
                            t0 = time.perf_counter()
                            run_blb(table, cfg)
                            seconds.append(time.perf_counter() - t0)
                    cells.append(
                        TimingCell(n=n, p=p_val, method=method, s=s, seconds=seconds)
                    )
    return cells
