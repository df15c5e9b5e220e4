"""Simulation studies: synthetic data generation, bias/coverage
replications, relative-error trajectories, and timing benchmarks.

All studies run the engine's own code: replications and timing runs call
``run_blb``, the relative-error study folds ``iter_subsets`` subset by
subset, and the relative-error oracle and the fit-only timing grid call
``engine.fit_scores``, the engine's one fit dispatcher, with a batch of
one subset.  ``iter_subsets`` yields a batch of subsets at once, so the
relative-error study's cumulative time steps once per batch.
Replications take their seed and pool size from the ``BlbConfig`` they
run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import BlbConfig
from .data import ObservationTable
from .engine import fit_scores, iter_subsets, order_subset, ordered_map, run_blb
from .errors import ConfigError, EstimationError
from .inference import hajek_ipw, linear_quantiles, percentile_ci
from .propensity import expit, truncate_scores

TRUE_ATE = 2.0
ZIP_COLUMNS = ("replication", "tau_hat", "se", "lower", "upper", "covered", "centile_rank")


def generate_dgm(
    n: int, stream: np.random.Generator, p: int = 2, randomized: bool = False
) -> ObservationTable:
    """One draw of the confounded benchmark process.

    ``p`` standard-normal confounders (two by default); treatment
    assigned with probability inverse-logit(c*x1 + ... + c*xp), c =
    -0.5*sqrt(2/p), which keeps the variance of the linear predictor at
    that of the two-covariate process for any p; outcome
    y = x1 + ... + xp + eps + TRUE_ATE*w.  Every unit's effect is
    exactly ``TRUE_ATE``, so neither potential outcome is stored.
    ``randomized`` assigns W ~ Bernoulli(0.5) independent of the
    covariates, the setting the marginal estimator is meant for.  The
    stream is consumed in the same order either way: covariates, the
    assignment uniforms, then the outcome noise.  The table's arrays are
    built in place, ``w`` as int8, so besides them at most two n-vectors
    are alive.
    """
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")
    if p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    x = stream.standard_normal((n, p))
    u = stream.random(n)
    if randomized:
        pi = 0.5
    else:
        pi = x @ np.full(p, -0.5 * np.sqrt(2.0 / p))
        expit(pi, out=pi)
    w = np.empty(n, dtype=np.int8)
    np.less(u, pi, out=w)
    del u, pi  # gone before the noise is drawn
    y = x.sum(axis=1)
    y += stream.standard_normal(n)
    np.add(y, TRUE_ATE, out=y, where=w == 1)
    return ObservationTable(y=y, w=w, x=x)


def generate_wide_dgm(n: int, p: int, stream: np.random.Generator) -> ObservationTable:
    """``generate_dgm(n, stream, p)``; kept because the benchmark's
    workloads (``perfbench/workloads.py``) import it."""
    return generate_dgm(n, stream, p)


@dataclass(frozen=True)
class ReplicationRecord:
    tau_hat: float
    se: float
    lower: float
    upper: float
    covered: bool
    pct_covered: bool
    asym_covered: bool
    seconds: float


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregates over independent replications of the process."""

    records: list[ReplicationRecord]
    bias: float
    mcse_mean: float
    mean_se: float
    coverage: float
    coverage_mcse: float
    coverage_percentile: float
    coverage_asymptotic: float
    timing_quartiles: tuple[float, float, float]
    replications: int

    def zip_rows(self) -> list[list]:
        """One row per replication, in the order of ``ZIP_COLUMNS``, with
        the centile rank of the standardized error |tau_hat - TRUE_ATE| /
        se, for coverage plots."""
        stats = []
        for i, rec in enumerate(self.records):
            z = abs(rec.tau_hat - TRUE_ATE) / rec.se if rec.se > 0 else float("inf")
            stats.append((z, i))
        ranks = {}
        for rank, (_, i) in enumerate(sorted(stats), start=1):
            ranks[i] = (rank - 0.5) / len(stats)
        return [
            [i, rec.tau_hat, rec.se, rec.lower, rec.upper, int(rec.covered), ranks[i]]
            for i, rec in enumerate(self.records)
        ]


def run_replications(
    R: int, n: int, config: BlbConfig, randomized: bool = False
) -> ReplicationSummary:
    """Analyze ``R`` fresh synthetic datasets and summarize bias and
    coverage of ``TRUE_ATE``.

    ``config.seed`` is the root seed and ``config.threads`` the number of
    replications run at once.  Replication i draws its dataset from
    substream (seed, dataset, i) and runs ``config`` on one thread with
    the derived seed (seed, i), so the summary is reproducible and
    schedule-independent.  External scores are refused: each replication
    draws a new dataset, which no one scores file describes.
    """
    if R < 10:
        raise ConfigError(f"replications must be at least 10, got {R}")
    if config.estimator == "external":
        raise ConfigError("estimator must not be 'external': no scores file fits fresh datasets")
    seed = config.seed

    def one(i: int) -> ReplicationRecord:
        table = generate_dgm(
            n, rng.substream(seed, rng.DOMAIN_DATASET, i), randomized=randomized
        )
        cfg = dataclasses.replace(config, seed=rng.derive_seed(seed, i), threads=1)
        t0 = time.perf_counter()
        result = run_blb(table, cfg)
        seconds = time.perf_counter() - t0
        return ReplicationRecord(
            tau_hat=result.tau_hat,
            se=result.se,
            lower=result.ci.lower,
            upper=result.ci.upper,
            covered=result.ci.contains(TRUE_ATE),
            pct_covered=result.ci_percentile.contains(TRUE_ATE),
            asym_covered=result.ci_asymptotic.contains(TRUE_ATE),
            seconds=seconds,
        )

    records = list(ordered_map(one, range(R), config.threads))

    taus = np.array([r.tau_hat for r in records])
    coverage = float(np.mean([r.covered for r in records]))
    seconds = np.array([r.seconds for r in records])
    q25, q50, q75 = linear_quantiles(seconds, [0.25, 0.5, 0.75])
    return ReplicationSummary(
        records=records,
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


@dataclass(frozen=True)
class RelErrTrajectory:
    """Relative error and cumulative time after each processed subset."""

    gamma: float
    subset_counts: list[int]
    cum_seconds: list[float]
    err: list[float]
    oracle_ci: tuple[float, float]


def oracle_interval(n: int, oracle_reps: int, seed: int) -> tuple[float, float]:
    """Sampling-distribution interval of the full-data weighted estimator.

    Quantiles of the Hajek estimate (logistic scores, truncated) over
    ``oracle_reps`` fresh datasets, at ``BlbConfig``'s default level and
    truncation bounds, the ones the relative-error study runs BLB at.
    Each dataset goes whole through the engine's fit dispatcher and
    ``order_subset``, as a subset of all its rows.
    """
    if oracle_reps < 100:
        raise ConfigError(f"oracle_reps must be at least 100, got {oracle_reps}")
    defaults = BlbConfig()
    rows = np.arange(n)
    estimates = np.empty(oracle_reps)
    for t in range(oracle_reps):
        table = generate_dgm(n, rng.substream(seed, rng.DOMAIN_ORACLE, t))
        fit = fit_scores(table, [rows], defaults, None).single()
        fit = truncate_scores(fit, *defaults.truncation)
        arms = order_subset(table, rows, fit)
        estimates[t] = hajek_ipw(arms.y0, arms.y1, arms.weights)
    ci = percentile_ci(estimates, defaults.alpha)
    return (ci.lower, ci.upper)


def run_relerr_harness(
    n: int,
    gammas: list[float],
    r: int,
    oracle_reps: int,
    data_reps: int,
    seed: int,
    s_max: int = BlbConfig.subsets,
) -> list[RelErrTrajectory]:
    """Relative-error trajectories versus the full-data oracle interval.

    For each gamma and dataset this is a running fold over
    ``iter_subsets``, the pipeline ``run_blb`` uses: after subset s the
    running interval is the mean of the per-subset percentile bounds
    seen so far, and its relative error against the oracle interval is
    recorded together with cumulative processing time, which grows
    when a batch of subsets is finished (see ``iter_subsets``).  Level and
    truncation are ``BlbConfig``'s defaults, as in ``oracle_interval``;
    the weight cap is off (1.0) because the oracle interval has none.
    Trajectories are averaged over ``data_reps`` independent datasets
    shared across gammas, drawn one at a time: every gamma runs on a
    dataset before the next is drawn, so one dataset is alive at a time,
    and each gamma's sums still add the datasets in order.  Every
    gamma's configuration is built, and so checked, before the oracle is
    computed.
    """
    if data_reps < 1:
        raise ConfigError("data_reps must be at least 1")
    configs = [
        BlbConfig(gamma=gamma, subsets=s_max, replicates=r, weight_cap=1.0)
        for gamma in gammas
    ]
    oracle = oracle_interval(n, oracle_reps, seed)

    err_acc = np.zeros((len(configs), s_max))
    time_acc = np.zeros((len(configs), s_max))
    for d in range(data_reps):
        table = generate_dgm(n, rng.substream(seed, rng.DOMAIN_DATASET, d))
        for gi, config in enumerate(configs):
            q_lo: list[float] = []
            q_up: list[float] = []
            cfg = dataclasses.replace(config, seed=rng.derive_seed(seed, gi, d))
            t0 = time.perf_counter()
            for k, est in enumerate(iter_subsets(table, cfg)):
                time_acc[gi, k] += time.perf_counter() - t0
                q_lo.append(est.q_lower)
                q_up.append(est.q_upper)
                running = (float(np.mean(q_lo)), float(np.mean(q_up)))
                err_acc[gi, k] += relative_error(oracle, running)
        del table  # gone before the next dataset is drawn
    return [
        RelErrTrajectory(
            gamma=config.gamma,
            subset_counts=list(range(1, s_max + 1)),
            cum_seconds=list(time_acc[gi] / data_reps),
            err=list(err_acc[gi] / data_reps),
            oracle_ci=oracle,
        )
        for gi, config in enumerate(configs)
    ]


@dataclass(frozen=True)
class TimingCell:
    n: int
    p: int
    method: str
    s: int
    seconds: list[float]

    @property
    def median_seconds(self) -> float:
        return float(linear_quantiles(self.seconds, [0.5])[0])


def benchmark_timing(
    ns: list[int],
    estimators: list[str],
    s_values: list[int],
    ps: list[int],
    reps: int,
    seed: int,
    grid: bool = False,
) -> list[TimingCell]:
    """Wall-time benchmark over (n, p, method, s) cells, each run at
    ``BlbConfig``'s default replicate count.

    Standard mode times full runs with the comparable-size convention
    b = n/s, on an n-row dataset drawn from substream (seed, bench,
    n_index, p_index).  Grid mode reproduces the wide-data exercise: it
    times ``s`` consecutive propensity fits, without resampling, on a
    b-row dataset drawn from substream (seed, bench, n_index, p_index,
    s).  Each cell draws its dataset before its timed runs.
    """
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    for s in s_values:
        if s < 1:
            raise ConfigError(f"subset count must be at least 1, got {s}")
    cells: list[TimingCell] = []
    for n_index, n in enumerate(ns):
        for p_index, p_val in enumerate(ps):
            for method in estimators:
                for s in s_values:
                    b = int(round(n / s))
                    key = (n_index, p_index, s) if grid else (n_index, p_index)
                    table = generate_dgm(
                        b if grid else n, rng.substream(seed, rng.DOMAIN_BENCH, *key), p_val
                    )
                    rows = np.arange(b) if grid else None
                    seconds = []
                    for rep in range(reps):
                        cfg = BlbConfig(
                            gamma=None,
                            subset_size=b,
                            subsets=s,
                            seed=rng.derive_seed(seed, n_index, p_index, s, rep),
                            estimator=method,
                        )
                        t0 = time.perf_counter()
                        if grid:
                            for _ in range(s):
                                fit_scores(table, [rows], cfg, None).single()
                        else:
                            run_blb(table, cfg)
                        seconds.append(time.perf_counter() - t0)
                    cells.append(
                        TimingCell(n=n, p=p_val, method=method, s=s, seconds=seconds)
                    )
    return cells
