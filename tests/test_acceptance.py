"""Acceptance suite: one test (or parametrized leg) per release criterion.

Every check prints an ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (visible
with ``pytest -s``) and then asserts.  Three legs are expected failures
on statistical/structural grounds and are marked xfail with the analysis
summarized in the reason; the full account lives in the project notes.

The heavy studies (criteria 1, 2, 5, 6) take a couple of minutes
combined on a laptop.
"""

import dataclasses
import json

import numpy as np
import pytest

import causalboot as cb
from causalboot import rng as cbrng
from causalboot.cli import main
from causalboot.engine import order_subset, run_subset
from causalboot.propensity import fit_logistic_irls, truncate_scores
from causalboot.simulation import (
    benchmark_timing,
    generate_dgm,
    run_relerr_harness,
    run_replications,
)

from test_cli import export_dgm_csv
from test_engine import count_readout_fit, draws_of, make_subsetfit

THREADS = 2  # worker threads for the replication studies


def report(criterion, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {name}: {verdict} ({detail})")
    assert passed, f"criterion {criterion} {name}: {detail}"


# ---------------------------------------------------------------------
# 1. Unbiasedness: R=200 replications at n=5000, gamma=0.8, s=5, r=100;
#    |mean(tau_hat) - 2| within three Monte-Carlo SEs of the mean.
# ---------------------------------------------------------------------

def _unbiasedness(estimator, seed):
    cfg = cb.BlbConfig(
        gamma=0.8, subsets=5, replicates=100, seed=seed, estimator=estimator, threads=THREADS
    )
    return run_replications(200, 5000, cfg)


@pytest.mark.parametrize("estimator", ["logistic", "cbps"])
def test_unbiasedness(estimator):
    summary = _unbiasedness(estimator, seed=1001)
    ok = abs(summary.bias) <= 3 * summary.mcse_mean
    report(
        1, f"unbiasedness[{estimator}]", ok,
        f"bias={summary.bias:.5f}, 3*mcse={3 * summary.mcse_mean:.5f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "constant-rate scores on the confounded process reduce to the raw "
        "mean difference, whose expectation is about 1.10 (bias -0.90) "
        "against a tolerance of roughly 0.006; unattainable as stated.  "
        "See the decisions ledger.  The estimator itself is exercised on "
        "randomized assignment in the regular suite."
    ),
)
def test_unbiasedness_marginal():
    summary = _unbiasedness("marginal", seed=1001)
    ok = abs(summary.bias) <= 3 * summary.mcse_mean
    report(
        1, "unbiasedness[marginal]", ok,
        f"bias={summary.bias:.5f}, 3*mcse={3 * summary.mcse_mean:.5f}",
    )


# ---------------------------------------------------------------------
# 2. Coverage: percentile intervals at s=10 reach 0.93; more subsets do
#    not reduce coverage on shared seeds; asymptotic intervals are no
#    more than 0.02 below percentile and also reach 0.93.
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def coverage_runs():
    base = cb.BlbConfig(gamma=0.8, subsets=10, replicates=100, seed=2002, threads=THREADS)
    s10 = run_replications(500, 5000, base)
    s2 = run_replications(500, 5000, dataclasses.replace(base, subsets=2))
    return s10, s2


def test_coverage_percentile_level(coverage_runs):
    s10, _ = coverage_runs
    report(
        2, "percentile coverage at s=10", s10.coverage_percentile >= 0.93,
        f"coverage={s10.coverage_percentile:.3f} (mcse {s10.coverage_mcse:.3f})",
    )


def test_coverage_improves_with_subsets(coverage_runs):
    s10, s2 = coverage_runs
    report(
        2, "coverage ordering s=10 vs s=2",
        s10.coverage_percentile >= s2.coverage_percentile,
        f"s10={s10.coverage_percentile:.3f}, s2={s2.coverage_percentile:.3f}",
    )


def test_coverage_asymptotic(coverage_runs):
    s10, _ = coverage_runs
    ok = (
        s10.coverage_asymptotic >= 0.93
        and s10.coverage_asymptotic >= s10.coverage_percentile - 0.02
    )
    report(
        2, "asymptotic coverage at s=10", ok,
        f"asymptotic={s10.coverage_asymptotic:.3f}, percentile={s10.coverage_percentile:.3f}",
    )


# ---------------------------------------------------------------------
# 2, at n=20000, gamma=0.7 (b=1025), logistic, r=100: percentile
#    intervals cover when the s = ceil(n/b) = 20 subsets hold about every
#    row (s*b/n = 1.02), and not at s=10 (s*b/n = 0.51), where the SD of
#    tau_hat exceeds the bootstrap SE.  Both legs run the same 300
#    datasets and run seeds.
# ---------------------------------------------------------------------

# 3.5 MCSE below the s=20 leg's measured 0.953 (MCSE 0.012); criterion
# 2's 0.93 would sit only 1.9 MCSE below it at R=300.
ROW_COVERAGE_BOUND = 0.91


@pytest.fixture(scope="module")
def row_fraction_runs():
    n = 20000
    assert -(-n // cb.subset_size(n, 0.7)) == 20
    base = cb.BlbConfig(gamma=0.7, replicates=100, seed=9009, threads=THREADS)
    return {s: run_replications(300, n, dataclasses.replace(base, subsets=s)) for s in (20, 10)}


def test_coverage_when_subsets_hold_every_row(row_fraction_runs):
    s20 = row_fraction_runs[20]
    report(
        2, "percentile coverage at n=20000, s=20",
        s20.coverage_percentile >= ROW_COVERAGE_BOUND,
        f"coverage={s20.coverage_percentile:.3f} (mcse {s20.coverage_mcse:.3f}), "
        f"bound {ROW_COVERAGE_BOUND}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at n=20000 the s=10 subsets hold about half the rows (s*b/n = 0.51), "
        "so the SD of tau_hat exceeds the bootstrap SE the interval is built "
        "from: percentile coverage measured 0.913 (MCSE 0.016) on these 300 "
        "datasets against 0.953 (0.012) at s=20, and 0.877 (0.019) against "
        "0.947 (0.013) on 300 datasets at seed 11; the 0.93 that criterion 2 "
        "reaches at s=10 holds at n=5000, where s*b/n = 1.82."
    ),
)
def test_coverage_when_subsets_hold_half_the_rows(row_fraction_runs):
    s10 = row_fraction_runs[10]
    report(
        2, "percentile coverage at n=20000, s=10", s10.coverage_percentile >= 0.93,
        f"coverage={s10.coverage_percentile:.3f} (mcse {s10.coverage_mcse:.3f})",
    )


# ---------------------------------------------------------------------
# 3. Replicate-mean identity: the Monte-Carlo mean of r=10000 replicate
#    estimates matches the whole-subset weighted estimate within
#    4*(sd/sqrt(r)) on at least 19 of 20 seeded subsets.
# ---------------------------------------------------------------------

def test_replicate_mean_matches_subset_estimate():
    hits = 0
    for k in range(20):
        table = generate_dgm(2000, cbrng.substream(3000 + k, cbrng.DOMAIN_DATASET, 0))
        idx = cb.draw_subset(table, 500, cbrng.substream(3000 + k, 1, 0, 0))
        fit = truncate_scores(fit_logistic_irls(table.x[idx], table.w[idx]), 0.01, 0.99)
        sf = order_subset(table, idx, fit, subset_id=k)
        est = run_subset(
            sf, 10000, table.n0, table.n1, 0.05, cbrng.substream(3000 + k, 2, 0, 0)
        )
        if abs(est.mean - est.hajek) < 4 * est.se / np.sqrt(10000):
            hits += 1
    report(3, "replicate-mean identity", hits >= 19, f"{hits}/20 subsets within band")


# ---------------------------------------------------------------------
# 4. Estimator algebra on 1000 randomized cases per property, checked on
#    the draws of the replicate kernel run_subset (r=3) over hand-built
#    subsets.  Case i draws its counts from replicate substream i+1, so
#    every variant of a case sees the same count vectors.
# ---------------------------------------------------------------------

def _random_case(stream):
    b0 = int(stream.integers(1, 11))
    b1 = int(stream.integers(1, 11))
    y0 = stream.uniform(-10.0, 10.0, size=b0)
    y1 = stream.uniform(-10.0, 10.0, size=b1)
    w0 = stream.dirichlet(np.ones(b0))
    w1 = stream.dirichlet(np.ones(b1))
    n0 = int(stream.integers(b0, 101))
    n1 = int(stream.integers(b1, 101))
    return y0, y1, w0, w1, n0, n1


def test_multinomial_sum_invariants():
    # each arm's counts sum to its full-data size exactly when its
    # count-readout draws are exactly +1.0 (treated) and -1.0 (control)
    stream = cbrng.substream(4004, 2, 0, 0)
    for i in range(1000):
        _, _, w0, w1, n0, n1 = _random_case(stream)
        assert (draws_of(count_readout_fit(w0, w1, 1), n0, n1, 4004, i + 1) == 1.0).all()
        assert (draws_of(count_readout_fit(w0, w1, 0), n0, n1, 4004, i + 1) == -1.0).all()
    report(4, "count-vector sums", True, "1000/1000 cases exact")


def test_shift_invariance():
    stream = cbrng.substream(4005, 2, 0, 0)
    worst = 0.0
    for i in range(1000):
        y0, y1, w0, w1, n0, n1 = _random_case(stream)
        c = float(stream.uniform(-10.0, 10.0))
        base = draws_of(make_subsetfit(y0, y1, w0, w1), n0, n1, 4005, i + 1)
        shifted = draws_of(make_subsetfit(y0 + c, y1 + c, w0, w1), n0, n1, 4005, i + 1)
        worst = max(worst, float(np.abs(shifted - base).max()))
    report(4, "shift invariance", worst <= 1e-12, f"max |delta| = {worst:.2e}")


def test_scale_equivariance():
    stream = cbrng.substream(4006, 2, 0, 0)
    worst = 0.0
    for i in range(1000):
        y0, y1, w0, w1, n0, n1 = _random_case(stream)
        lam = float(stream.uniform(-4.0, 4.0))
        base = draws_of(make_subsetfit(y0, y1, w0, w1), n0, n1, 4006, i + 1)
        scaled = draws_of(make_subsetfit(lam * y0, lam * y1, w0, w1), n0, n1, 4006, i + 1)
        rel = np.abs(scaled - lam * base) / np.maximum(1.0, np.abs(lam * base))
        worst = max(worst, float(rel.max()))
    report(4, "scale equivariance", worst <= 1e-12, f"max rel delta = {worst:.2e}")


def test_constant_outcome_is_zero():
    stream = cbrng.substream(4007, 2, 0, 0)
    worst = 0.0
    for i in range(1000):
        y0, y1, w0, w1, n0, n1 = _random_case(stream)
        c = float(stream.uniform(-10.0, 10.0))
        sf = make_subsetfit(np.full_like(y0, c), np.full_like(y1, c), w0, w1)
        worst = max(worst, float(np.abs(draws_of(sf, n0, n1, 4007, i + 1)).max()))
    report(4, "constant outcome", worst <= 1e-12, f"max |estimate| = {worst:.2e}")


# ---------------------------------------------------------------------
# 5. Timing orderings with b = n/s at n=20000, p=2, 20 runs per cell.
#    Absolute seconds are machine-specific; only orderings asserted.
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def timing_cells():
    cells = benchmark_timing(
        [20000], ["logistic", "cbps"], [2, 10], ps=[2], reps=20, seed=5005
    )
    return {(c.method, c.s): c.median_seconds for c in cells}


def test_timing_logistic_flat(timing_cells):
    ratio = timing_cells[("logistic", 10)] / timing_cells[("logistic", 2)]
    report(
        5, "logistic time ratio s=10/s=2", 0.5 <= ratio <= 2.0,
        f"ratio={ratio:.2f} "
        f"(medians {timing_cells[('logistic', 10)]:.3f}s / {timing_cells[('logistic', 2)]:.3f}s)",
    )


@pytest.mark.xfail(
    strict=False,
    reason=(
        "the just-identified balancing fit costs Theta(b) per subset with "
        "flat iteration counts, so ten fits on n/10 rows plus their "
        "resampling strictly exceed two fits on n/2 rows; the speedup "
        "this ordering encodes belongs to solvers whose cost grows "
        "superlinearly in b.  See the decisions ledger."
    ),
)
def test_timing_cbps_faster_with_more_subsets(timing_cells):
    s10, s2 = timing_cells[("cbps", 10)], timing_cells[("cbps", 2)]
    report(
        5, "balancing-fit time s=10 < s=2", s10 < s2,
        f"medians s10={s10:.3f}s, s2={s2:.3f}s",
    )


# ---------------------------------------------------------------------
# 6. Relative-error convergence against the full-data oracle interval
#    at n=20000, averaged over 10 datasets.
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def relerr_trajectories():
    trajs = run_relerr_harness(
        n=20000, gammas=[0.5, 0.8, 0.9], r=100, oracle_reps=1000,
        data_reps=10, seed=6006, s_max=6,
    )
    return {t.gamma: t for t in trajs}


def test_relerr_large_subsets_converge_by_two(relerr_trajectories):
    err_at_2 = relerr_trajectories[0.9].err[1]
    report(
        6, "gamma=0.9 error at s=2", err_at_2 <= 0.2,
        f"err={err_at_2:.4f}",
    )


def test_relerr_terminal_ordering(relerr_trajectories):
    terminal = {g: t.err[-1] for g, t in relerr_trajectories.items()}
    ok = terminal[0.9] < terminal[0.5] and terminal[0.8] < terminal[0.5]
    report(
        6, "terminal error ordering", ok,
        f"gamma 0.5/0.8/0.9 -> {terminal[0.5]:.4f}/{terminal[0.8]:.4f}/{terminal[0.9]:.4f}",
    )


# ---------------------------------------------------------------------
# 7. Exact formula checks.
# ---------------------------------------------------------------------

def test_exact_formulas():
    asym = cb.asymptotic_ci(2.0, 1.0, 0.05)
    ok_asym = abs(asym.lower - (2.0 - 1.959964)) <= 1e-6 and abs(
        asym.upper - (2.0 + 1.959964)
    ) <= 1e-6
    pct = cb.percentile_ci(np.arange(1.0, 101.0), 0.05)
    ok_pct = abs(pct.lower - 3.475) <= 1e-12 and abs(pct.upper - 97.525) <= 1e-12
    ok_size = cb.subset_size(10000, 0.7) == 631
    report(
        7, "exact formulas", ok_asym and ok_pct and ok_size,
        f"asym=({asym.lower:.7f}, {asym.upper:.7f}), "
        f"pct=({pct.lower}, {pct.upper}), b(10000, 0.7)={cb.subset_size(10000, 0.7)}",
    )


# ---------------------------------------------------------------------
# 8. Thread-count determinism of CLI payloads at a fixed seed.
# ---------------------------------------------------------------------

def _payload(path):
    return json.dumps(json.loads(path.read_text())["payload"], sort_keys=True)


def test_thread_determinism_analyze(tmp_path):
    csv_path = export_dgm_csv(tmp_path / "data.csv", n=2000, seed=8)
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(
            ["analyze", "--input", str(csv_path), "--outcome", "y",
             "--treatment", "w", "--covariates", "x1,x2", "--gamma", "0.7",
             "--subsets", "6", "--replicates", "80", "--seed", "88",
             "--threads", str(threads), "--output", str(out)]
        )
        assert code == 0
        outs[threads] = _payload(out / "result.json")
    report(
        8, "analyze payload at 1 vs 8 threads", outs[1] == outs[8],
        f"{len(outs[1])} bytes compared",
    )


def test_thread_determinism_simulate(tmp_path):
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(
            ["simulate", "--n", "800", "--replications", "12", "--subsets", "3",
             "--replicates", "40", "--seed", "88", "--threads", str(threads),
             "--output", str(out)]
        )
        assert code == 0
        outs[threads] = _payload(out / "summary.json")
    report(
        8, "simulate payload at 1 vs 8 threads", outs[1] == outs[8],
        f"{len(outs[1])} bytes compared",
    )
