"""Subset-bootstrap engine for the average treatment effect.

For each of ``s`` subsets of size ``b`` drawn from the full table, the
engine fits propensity scores, and ``order_subset`` splits the subset
into its arms and computes, once, the normalized arm weights and the
covariate balance, into one ``SubsetFit`` record.  The subsets go
through this stage in batches of at most ``_BATCH_ROWS`` rows, each
batch's regression fits in one stacked Newton loop, so small subsets
pay numpy's fixed cost per call once per batch.  From each record the
engine draws ``r`` replicate pairs of multinomial count vectors at the
*full-data* arm sizes (n1, n0).  Each replicate yields

    tau_hat = (1/n1) * sum_treated(M1_i * y_i)
            - (1/n0) * sum_control(M0_i * y_i)

and per-subset summaries (mean, bootstrap SD, percentile bounds, the
whole-subset Hajek estimate) are averaged across subsets.

``iter_subsets`` is the one subset pipeline, ``fit_scores`` the one fit
dispatcher, a batch of subsets at a time, and ``run_subset`` the one
replicate kernel.  ``run_blb``
folds the subset pipeline into a ``BlbEstimate``, and the
relative-error study in ``simulation`` folds it into running
intervals.  ``draw_arm_totals`` is the only place replicate counts are
drawn.  It draws them exactly by Poissonization: Poisson counts whose
sum falls short of the arm size, topped up by categorical draws, with
the rare row that overshoots replaced by a fresh multinomial row.  It
works in blocks of rows and reduces each block to its row totals at
once, so a worker holds one block of about ``_BLOCK_CELLS`` counts or
top-up draws plus the r totals, whatever r and b are.

Every random draw comes from a substream keyed by (seed, subset,
attempt), with a subset's replicates drawn in a fixed order from its
own stream.  The totals are summed row by row, and the fits and
weighted sums reduce in a fixed order along one subset's rows, none of
them through BLAS, so results are bit-identical regardless of thread
count, BLAS thread count, block size, batch size or scheduling.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .config import BlbConfig
from .data import ObservationTable, draw_subset, subset_size
from .errors import EstimationError, RedrawBudgetError
from .inference import BalanceReport, ConfidenceInterval, asymptotic_ci, hajek_ipw, percentile_ci, smd_balance
from .propensity import (
    ArmWeights,
    BatchFit,
    PropensityFit,
    fit_cbps,
    fit_logistic_irls,
    load_external_scores,
    marginal_propensity,
    normalized_weights,
    require_both_arms,
    truncate_scores,
)

# Counts per replicate block: 0.5 MB of int64 counts, and an eighth as
# much for their products with the outcomes; from b = 2**16 on, a block
# is a single row, and so is the products buffer.  Pass 2 of
# ``draw_arm_totals`` holds about as many top-up draws.  The totals do
# not depend on the block size.
_BLOCK_CELLS = 2**16
# Rows of the subsets fitted together, in one stacked Newton loop: a
# batch of subsets pays the loop's fixed cost per numpy call once, and
# holds its subsets' rows, fits and records until they are resampled.
_BATCH_ROWS = 2**14
# A Poisson row more than this many counts short of n_arm is redrawn
# whole rather than topped up, which bounds the draws one row needs.
# A row's shortfall averages 2 sqrt(n_arm), with SD about sqrt(n_arm),
# so below a billion units per arm fewer than 1 row in 10**9 is.
_TOPUP_MAX = 2**18
# Walk steps a top-up draw takes from its guide-table bucket before it
# falls back to binary search; with exponential-like weights about 3
# draws in 100 need more than two.
_GUIDE_ROUNDS = 2


@dataclass(frozen=True)
class FitSummary:
    """A subset's fit as the payload reports it: without its b scores."""

    method: str
    converged: bool
    iterations: int
    objective: float
    clamped: int


@dataclass(frozen=True)
class SubsetFit:
    """The record of one subset attempt, each fact computed once by
    ``order_subset``: the outcomes controls-first, the arm weights, the
    covariate balance and the fit's diagnostics."""

    subset_id: int
    y: np.ndarray
    b0: int
    weights: ArmWeights
    balance: BalanceReport
    fit: FitSummary

    @property
    def b1(self) -> int:
        return self.y.shape[0] - self.b0

    @property
    def y0(self) -> np.ndarray:
        return self.y[: self.b0]

    @property
    def y1(self) -> np.ndarray:
        return self.y[self.b0 :]


@dataclass
class SubsetEstimate:
    """Replicate summaries for one subset, with its fit's diagnostics and
    its balance."""

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
    fit: FitSummary              # of the truncated fit


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


def order_subset(
    table: ObservationTable,
    indices: np.ndarray,
    fit: PropensityFit,
    subset_id: int = 0,
    balance_threshold: float = BlbConfig.balance_threshold,
) -> SubsetFit:
    """Split a subset into its arms, weigh them and check their balance.

    The weights come from the scores in index order.  The arms' rows
    are taken controls first, each arm in index order, which is the
    order of its weights.  The outcomes are gathered once, in that
    order; the covariates are gathered for the balance alone, each arm's
    as one contiguous column array.  ``normalized_weights`` raises
    ``DegenerateSubsetError`` when the subset has a single arm.
    """
    w_sub = table.w[indices]
    weights = normalized_weights(fit, w_sub)
    treated = w_sub == 1
    rows0, rows1 = indices[~treated], indices[treated]
    y = table.y[np.concatenate((rows0, rows1))]
    balance = smd_balance(
        _covariate_columns(table, rows0).T,
        _covariate_columns(table, rows1).T,
        weights, balance_threshold, table.covariate_names,
    )
    return SubsetFit(
        subset_id=subset_id,
        y=y,
        b0=rows0.shape[0],
        weights=weights,
        balance=balance,
        fit=FitSummary(fit.method, fit.converged, fit.iterations, fit.objective, fit.clamped),
    )


def draw_arm_totals(
    stream: np.random.Generator,
    n_arm: int,
    w: np.ndarray,
    y: np.ndarray,
    r: int,
) -> np.ndarray:
    """Totals sum_i(M_i * y_i) of ``r`` multinomial(n_arm, w) count vectors.

    The counts are drawn by Poissonization, in two passes over the rows.
    Pass 1 draws each row's counts as independent Poisson(lam * w_i),
    lam = max(0, n_arm - 2 sqrt(n_arm)), in blocks of rows, and keeps
    each row's total and its count sum S.  Pass 2 goes through the rows
    in order: a row with 0 <= n_arm - S <= ``_TOPUP_MAX`` gets n_arm - S
    categorical draws from ``w``, and the sum of their outcomes, taken
    in draw order, is added to its total; any other row (in practice one
    with S > n_arm, about 2.3% of rows) is replaced by one fresh
    ``multinomial(n_arm, w)`` row.

    This is exact.  Given S = s, Poisson counts are multinomial(s, w),
    and adding an independent multinomial(n_arm - s, w) makes them
    multinomial(n_arm, w); a replaced row is multinomial(n_arm, w)
    outright, and which rows are replaced depends on S alone.

    No r x b matrix is ever alive: pass 1 holds one block of about
    ``_BLOCK_CELLS`` counts, pass 2 about as many top-up draws.  Both
    passes consume the stream element by element and each row is summed
    on its own, so the totals do not depend on the block size.
    """
    totals, short = _poisson_rows(stream, n_arm, w, y, r)
    _top_up_rows(stream, n_arm, w, y, totals, short)
    return totals


def _poisson_rows(stream, n_arm, w, y, r):
    """Pass 1: each row's total and shortfall n_arm - S, block by block.

    A block's counts are multiplied by the outcomes an eighth of the
    block at a time, into one buffer, so a block holds its counts and
    not a second block of products.  That also keeps the allocator from
    handing an arm's memory back and faulting it in again for the next
    arm: with a whole block of products, ``run_blb`` at b = 2,000,
    s = 10 took about 4,400 minor page faults per run (getrusage), and
    3 this way.
    """
    b = len(w)
    mean = max(0.0, n_arm - 2.0 * math.sqrt(n_arm)) * w
    rows = max(1, _BLOCK_CELLS // b)
    part = max(1, rows // 8)
    try:
        totals, short = np.empty(r), np.empty(r, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond any array's size
        raise EstimationError(f"{r} replicates do not fit in memory: {exc}") from None
    products = np.empty((min(part, r), b))
    for start in range(0, r, rows):
        counts = stream.poisson(mean, size=(min(rows, r - start), b))
        short[start : start + len(counts)] = n_arm - counts.sum(axis=1)
        for i in range(0, len(counts), part):
            some = counts[i : i + part]
            some_products = np.multiply(some, y, out=products[: len(some)])
            totals[start + i : start + i + len(some)] = some_products.sum(axis=1)
    return totals, short


def _top_up_rows(stream, n_arm, w, y, totals, short):
    """Pass 2: top up or replace each row in order, block by block."""
    r = len(totals)
    redraw = (short < 0) | (short > _TOPUP_MAX)
    short[redraw] = 0
    ends = np.cumsum(short)  # top-up draws through each row
    cdf = np.cumsum(w)
    cdf /= cdf[-1]  # so every uniform in [0, 1) picks a cell
    start = 0
    while start < r:
        # rows start..stop-1: as many as one block of draws holds, at least one
        base = int(ends[start] - short[start])
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK_CELLS, side="right")))
        drawn = np.empty(int(ends[stop - 1]) - base)
        redrawn = np.flatnonzero(redraw[start:stop]) + start
        refills = np.empty(len(redrawn))
        filled = 0
        for j, i in enumerate(redrawn):
            upto = int(ends[i]) - base
            stream.random(out=drawn[filled:upto])
            refills[j] = (stream.multinomial(n_arm, w) * y).sum()
            filled = upto
        stream.random(out=drawn[filled:])
        # the drawn cells' outcomes, in place (every index is in range)
        np.take(y, _search_cdf(cdf, drawn), out=drawn, mode="clip")
        # each draw's row, a temporary, so that it is gone before the
        # next block's draws and lookup
        totals[start:stop] += np.bincount(
            np.repeat(np.arange(stop - start), short[start:stop]),
            weights=drawn, minlength=stop - start,
        )
        totals[redrawn] = refills
        start = stop


def _search_cdf(cdf, u):
    """``cdf.searchsorted(u, side="right")`` through a guide table.

    ``cdf`` is nondecreasing and ends at exactly 1.0, and every ``u`` is
    in [0, 1).  Bucket j of the g = len(cdf) buckets starts at the first
    cell with fl(cdf * g) >= j.  Rounding is monotone, so every cell
    before it holds cdf < u for each u with fl(u * g) >= j: the start
    is at or below the answer, and a walk forward while cdf <= u ends on
    it exactly.  With weights of similar size a walk takes about half a
    step on average; draws still short after ``_GUIDE_ROUNDS`` steps
    finish by binary search, so no draw costs much more than before.
    """
    g = len(cdf)
    per_bucket = np.bincount((cdf * g).astype(np.intp), minlength=g + 1)
    guide = np.zeros(g, dtype=np.intp)
    np.cumsum(per_bucket[: g - 1], out=guide[1:])
    # floor(u * g), then its bucket's start; "clip" sends a u * g that
    # rounds up to g to the last bucket
    cell = np.empty(len(u), dtype=np.intp)
    np.multiply(u, g, out=cell, casting="unsafe")
    cell = np.take(guide, cell, mode="clip")
    for _ in range(_GUIDE_ROUNDS):
        cell += cdf[cell] <= u
    late = np.flatnonzero(cdf[cell] <= u)
    cell[late] = cdf.searchsorted(u[late], side="right")
    return cell


def run_subset(
    subsetfit: SubsetFit,
    r: int,
    n0: int,
    n1: int,
    alpha: float,
    stream: np.random.Generator,
    redraws: int = 0,
) -> SubsetEstimate:
    """Draw ``r`` replicate count pairs and summarize their estimates.

    All r treated count vectors are drawn, then all r control vectors,
    from the subset's dedicated substream, each arm by
    ``draw_arm_totals``; the result depends only on (stream state, r)
    and never on scheduling, block size or the BLAS thread count.
    """
    if r < 2:
        raise EstimationError(f"need at least 2 replicates, got {r}")
    weights = subsetfit.weights
    t1 = draw_arm_totals(stream, n1, weights.w1, subsetfit.y1, r)
    t0 = draw_arm_totals(stream, n0, weights.w0, subsetfit.y0, r)
    draws = t1 / n1 - t0 / n0
    mean = float(draws.mean())
    se = float(draws.std(ddof=1))
    pct = percentile_ci(draws, alpha)
    hajek = hajek_ipw(subsetfit.y0, subsetfit.y1, weights)
    asym = asymptotic_ci(hajek, se, alpha)
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
        balance=subsetfit.balance,
        fit=subsetfit.fit,
    )


def _covariate_columns(
    table: ObservationTable, indices: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The covariates of the rows ``indices`` as one contiguous p x b
    array, gathered a column at a time into ``out`` if given: the fits
    and the balance check read its transpose column by column."""
    columns = np.empty((table.p, indices.shape[0])) if out is None else out
    for j, column in enumerate(columns):
        column[...] = table.x[indices, j]
    return columns


def fit_scores(
    table: ObservationTable,
    subsets: list[np.ndarray],
    config: BlbConfig,
    external: PropensityFit | None,
) -> BatchFit:
    """The one fit dispatcher: the propensity fits of a batch of subsets
    of equal size, one array of row indices each, by
    ``config.estimator``, with ``external`` the full-data scores when
    the estimator is external.  A regression fit takes the whole batch
    in one stacked call, as an (m, p, b) stack of covariate columns; the
    marginal and external scores come a member at a time.  The fits are
    looked up as ``engine`` module globals at call time, so a wrapper
    set on them sees every fit.
    """
    if config.estimator in ("logistic", "cbps"):
        fit = fit_logistic_irls if config.estimator == "logistic" else fit_cbps
        columns = np.empty((len(subsets), table.p, len(subsets[0])))
        w = np.empty((len(subsets), len(subsets[0])), dtype=table.w.dtype)
        for rows, member_columns, member_w in zip(subsets, columns, w):
            _covariate_columns(table, rows, out=member_columns)
            np.take(table.w, rows, out=member_w)
        return fit(columns.transpose(0, 2, 1), w)
    fits: list = []
    for rows in subsets:
        try:  # external: the full-data score vector sliced at the subset rows
            fits.append(marginal_propensity(table.w[rows]) if config.estimator == "marginal"
                        else replace(external, scores=external.scores[rows]))
        except EstimationError as exc:
            fits.append(exc)
    return BatchFit(fits)


def _check_usable(subsetfit: SubsetFit, config: BlbConfig) -> None:
    """Raise a subset's redraw reason if a weight exceeds the cap or, with
    ``redraw_on_imbalance``, its balance fails the threshold."""
    weights, balance = subsetfit.weights, subsetfit.balance
    max_weight = max(float(weights.w0.max()), float(weights.w1.max()))
    if max_weight > config.weight_cap:
        raise EstimationError(f"weight {max_weight:.3g} above cap")
    if config.redraw_on_imbalance and not balance.passed:
        raise EstimationError(f"max |SMD| {balance.max_abs_smd:.3g} above threshold")


def _attempt(
    table: ObservationTable,
    config: BlbConfig,
    members: list[int],
    attempt: int,
    b: int,
    external: PropensityFit | None,
) -> list:
    """Attempt ``attempt`` of each subset k in ``members``: its
    ``SubsetFit``, or the ``EstimationError`` that makes it redraw.

    Each member draws its rows from its own (seed, subset, attempt)
    substream; all are fitted in one ``fit_scores`` call, and each is
    then truncated, ordered and checked as if alone.  Every redraw
    reason, a single-arm subset included, is an ``EstimationError`` from
    the fit, ``order_subset`` or ``_check_usable``.
    """
    subsets = [
        draw_subset(table, b, rng.substream(config.seed, rng.DOMAIN_SUBSET, k, attempt))
        for k in members
    ]
    outcomes: list = []
    for k, indices, fit in zip(members, subsets, fit_scores(table, subsets, config, external).fits):
        try:
            if isinstance(fit, EstimationError):
                raise fit
            subsetfit = order_subset(
                table, indices, truncate_scores(fit, *config.truncation),
                subset_id=k, balance_threshold=config.balance_threshold,
            )
            _check_usable(subsetfit, config)
        except EstimationError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(subsetfit)
    return outcomes


def _run_batch(
    table: ObservationTable,
    config: BlbConfig,
    members: range,
    b: int,
    external: PropensityFit | None,
) -> list:
    """The subsets ``members`` of a run: each one's estimate, or the
    ``RedrawBudgetError`` that ends it.

    The members make their attempts together; those that fail go to
    their next attempt together, as a smaller batch.  Each usable subset
    is then resampled from its (seed, subset, attempt) replicate stream.
    """
    records: dict[int, tuple[SubsetFit, int]] = {}
    reasons: dict[int, list[str]] = {k: [] for k in members}
    for attempt in range(config.max_redraws + 1):
        pending = [k for k in members if k not in records]
        if not pending:
            break
        for k, outcome in zip(pending, _attempt(table, config, pending, attempt, b, external)):
            if isinstance(outcome, EstimationError):
                reasons[k].append(f"attempt {attempt}: {outcome}")
            else:
                records[k] = (outcome, attempt)
    estimates: list = []
    for k in members:
        if k not in records:
            estimates.append(RedrawBudgetError(
                f"subset {k}: no usable subset in {config.max_redraws + 1} attempts "
                f"({'; '.join(reasons[k])})"
            ))
            continue
        subsetfit, attempt = records.pop(k)
        rep_stream = rng.substream(config.seed, rng.DOMAIN_REPLICATE, k, attempt)
        estimates.append(run_subset(
            subsetfit, config.replicates, table.n0, table.n1, config.alpha, rep_stream,
            redraws=attempt,
        ))
    return estimates


def ordered_map(func: Callable, items: Iterable, threads: int) -> Iterator:
    """``map(func, items)`` in input order, whatever the scheduling: on a
    pool of ``threads`` threads if there are several, else on the calling
    thread."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(func, items)
    else:
        yield from map(func, items)


def iter_subsets(table: ObservationTable, config: BlbConfig) -> Iterator[SubsetEstimate]:
    """Yield the estimate of each subset k = 0, 1, ..., s-1 in order.

    This is the one subset pipeline.  It resolves the subset size and
    any external scores once, then splits the s subsets into contiguous
    batches of at most ``_BATCH_ROWS`` rows in all, and into at least
    ``config.threads`` batches when s allows it.  Each batch's subsets
    are drawn, fitted in one stacked call, truncated, ordered, checked
    against the weight cap and (optionally) the balance threshold,
    redrawn together on failure, and resampled, by ``ordered_map`` on
    ``config.threads`` threads; a batch's estimates are yielded when the
    batch is finished.  Each subset's estimate is that of its subset
    alone, so the batches change no number.  Closing the generator early
    cancels batches not yet started.
    """
    require_both_arms(table.w)
    b = config.subset_size or subset_size(table.n, config.gamma)

    external: PropensityFit | None = None
    if config.estimator == "external":
        external = load_external_scores(config.external_scores, table.n)

    s = config.subsets
    size = max(1, min(_BATCH_ROWS // b, s // config.threads))

    def job(members: range) -> list:
        return _run_batch(table, config, members, b, external)

    batches = [range(k, min(k + size, s)) for k in range(0, s, size)]
    for estimates in ordered_map(job, batches, config.threads):
        for estimate in estimates:
            if isinstance(estimate, RedrawBudgetError):
                raise estimate
            yield estimate


def run_blb(table: ObservationTable, config: BlbConfig) -> BlbEstimate:
    """Full subset-bootstrap run: a fold over ``iter_subsets``.

    Aggregation follows the plain unweighted-mean scheme: the point
    estimate is the mean of per-subset bootstrap means, the standard
    error the mean of per-subset bootstrap SDs, and each interval bound
    the mean of the per-subset bounds.  The result is a pure function of
    (table, config), independent of thread count.
    """
    estimates = list(iter_subsets(table, config))
    b = estimates[0].b0 + estimates[0].b1  # every subset has size b

    def average(name: str) -> float:
        # np.mean of a list: a column mean of an (s, k) array sums in
        # another order and can round differently
        return float(np.mean([getattr(e, name) for e in estimates]))

    ci_pct = ConfidenceInterval(
        average("q_lower"),
        average("q_upper"),
        kind="percentile",
        alpha=config.alpha,
    )
    ci_asym = ConfidenceInterval(
        average("asym_lower"),
        average("asym_upper"),
        kind="asymptotic",
        alpha=config.alpha,
    )
    ci = ci_pct if config.ci_kind == "percentile" else ci_asym

    total_rows = config.subsets * b
    diagnostics = {
        "total_redraws": int(sum(e.redraws for e in estimates)),
        "clamped_rows": int(sum(e.fit.clamped for e in estimates)),
        "clamped_fraction": float(sum(e.fit.clamped for e in estimates) / total_rows),
        "balance_failures": int(sum(not e.balance.passed for e in estimates)),
        "nonconverged_fits": int(sum(not e.fit.converged for e in estimates)),
        "max_abs_smd": max(
            (e.balance.max_abs_smd for e in estimates if e.balance.max_abs_smd is not None),
            default=None,
        ),
    }
    return BlbEstimate(
        tau_hat=average("mean"),
        se=average("se"),
        ci=ci,
        ci_percentile=ci_pct,
        ci_asymptotic=ci_asym,
        hajek=average("hajek"),
        n=table.n,
        n0=table.n0,
        n1=table.n1,
        b=b,
        subsets=estimates,
        diagnostics=diagnostics,
    )
