import dataclasses
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from scipy.stats import chisquare
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalboot as cb
from causalboot import engine
from causalboot import rng as cbrng
from causalboot.cli import main
from causalboot.engine import FitSummary, SubsetFit, order_subset, run_blb, run_subset
from causalboot.errors import DegenerateSubsetError, EstimationError, RedrawBudgetError
from causalboot.inference import BalanceReport, smd_balance
from causalboot.propensity import (
    ArmWeights, PropensityFit, fit_cbps, fit_logistic_irls, marginal_propensity, normalized_weights,
    truncate_scores,
)
from causalboot.simulation import generate_dgm
from oracles import multinomial_pmf, poissonized_totals_longhand, replicate_cumulants


def constant_fit(scores):
    scores = np.asarray(scores, dtype=float)
    return PropensityFit(
        scores=scores, coefficients=np.empty(0), method="external",
        converged=True, iterations=0, objective=0.0,
    )


def make_subsetfit(y0, y1, w0=None, w1=None):
    """Hand-assembled SubsetFit with given arm outcomes and weights."""
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    b0, b1 = len(y0), len(y1)
    w0 = np.full(b0, 1.0 / b0) if w0 is None else np.asarray(w0, dtype=float)
    w1 = np.full(b1, 1.0 / b1) if w1 is None else np.asarray(w1, dtype=float)
    return SubsetFit(
        subset_id=0,
        y=np.concatenate([y0, y1]),
        b0=b0,
        weights=ArmWeights(w0=w0, w1=w1),
        balance=BalanceReport(smd={}, max_abs_smd=None, threshold=0.1, passed=True),
        fit=FitSummary("external", True, 0, 0.0, 0),
    )


def random_subsetfit(seed, b0, b1):
    """SubsetFit with standard-normal outcomes and Dirichlet(1) weights."""
    gen = np.random.default_rng(seed)
    return make_subsetfit(
        gen.standard_normal(b0), gen.standard_normal(b1),
        gen.dirichlet(np.ones(b0)), gen.dirichlet(np.ones(b1)),
    )


def count_readout_fit(w0, w1, arm):
    """SubsetFit whose replicate draws read one arm's count sum.

    ``arm``'s outcomes are ones and the other arm's zeros, so each draw
    is exactly +1.0 (treated) or -1.0 (control) when that arm's counts
    sum to its full-data size, and something else when they do not.
    """
    b0, b1 = len(w0), len(w1)
    if arm == 1:
        return make_subsetfit(np.zeros(b0), np.ones(b1), w0, w1)
    return make_subsetfit(np.ones(b0), np.zeros(b1), w0, w1)


class TestOrderSubset:
    def test_controls_first_consistent_permutation(self, small_table):
        indices = np.array([1, 2, 3, 4])  # w = (1, 0, 1, 0)
        fit = constant_fit([0.4, 0.5, 0.6, 0.7])
        sf = order_subset(small_table, indices, fit)
        assert (sf.b0, sf.b1) == (2, 2)
        # controls 2, 4 keep their input order, then treated 1, 3
        np.testing.assert_array_equal(sf.y0, small_table.y[[2, 4]])
        np.testing.assert_array_equal(sf.y1, small_table.y[[1, 3]])
        assert sf.fit == FitSummary("external", True, 0, 0.0, 0)

    def test_single_arm_raises_degenerate(self, small_table):
        controls = np.array([0, 2, 4, 6])
        with pytest.raises(DegenerateSubsetError):
            order_subset(small_table, controls, constant_fit(np.full(4, 0.5)))

    @pytest.mark.parametrize("check", [
        lambda t, rows: order_subset(t, rows, constant_fit(np.full(4, 0.5))),
        lambda t, rows: fit_logistic_irls(t.x[rows], t.w[rows]),
        lambda t, rows: fit_cbps(t.x[rows], t.w[rows]),
        lambda t, rows: marginal_propensity(t.w[rows]),
        lambda t, rows: normalized_weights(constant_fit(np.full(4, 0.5)), t.w[rows]),
    ], ids=["order_subset", "logistic", "cbps", "marginal", "weights"])
    def test_every_single_arm_check_gives_one_reason(self, small_table, check):
        for rows in (np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])):
            with pytest.raises(DegenerateSubsetError,
                               match="^both treatment arms must be nonempty$"):
                check(small_table, rows)

    def test_weights_attach_to_reordered_rows(self, small_table):
        indices = np.array([0, 1, 2, 3])
        fit = constant_fit([0.2, 0.25, 0.4, 0.75])
        sf = order_subset(small_table, indices, fit)
        expected = normalized_weights(fit, small_table.w[indices])
        np.testing.assert_array_equal(sf.weights.w0, expected.w0)
        np.testing.assert_array_equal(sf.weights.w1, expected.w1)

    def test_balance_is_that_of_the_arms(self, small_table):
        indices = np.array([7, 0, 5, 2, 1, 6])  # controls 0, 2, 6; treated 7, 5, 1
        fit = constant_fit([0.3, 0.6, 0.45, 0.5, 0.7, 0.35])
        sf = order_subset(small_table, indices, fit, balance_threshold=0.25)
        x = small_table.x
        expected = smd_balance(
            x[[0, 2, 6]], x[[7, 5, 1]], sf.weights, 0.25, small_table.covariate_names
        )
        assert sf.balance == expected
        assert sf.balance.threshold == 0.25
        assert set(sf.balance.smd) == {"x1", "x2"}


class TestDrawMultinomial:
    """The kernel's multinomial draws, seen through run_subset's draws."""

    def test_degenerate_single_cell(self):
        # one cell per arm forces the counts to (n1,) and (n0,)
        sf = make_subsetfit([0.0], [1.0])
        est = run_subset(sf, 5, 3, 7, 0.05, cbrng.substream(0, 2, 0, 0))
        assert list(est.draws) == [1.0] * 5

    def test_sum_equals_size(self):
        # a 40-cell arm drawn at each size, against a 7-cell other arm
        stream = cbrng.substream(3, 2, 0, 0)
        wide = stream.dirichlet(np.ones(40))
        narrow = stream.dirichlet(np.ones(7))
        for size in (1, 13, 999):
            treated = run_subset(count_readout_fit(narrow, wide, 1), 3, 5, size, 0.05, stream)
            assert list(treated.draws) == [1.0] * 3
            control = run_subset(count_readout_fit(wide, narrow, 0), 3, size, 5, 0.05, stream)
            assert list(control.draws) == [-1.0] * 3

    def test_binomial_margin_within_five_sigma(self):
        # first treated cell of (0.5, 0.5) at size 10000: sd = 50; the
        # draw is that cell's count over 10000
        sf = make_subsetfit([0.0], [1.0, 0.0], w1=[0.5, 0.5])
        est = run_subset(sf, 2, 10, 10000, 0.05, cbrng.substream(17, 2, 0, 0))
        for draw in est.draws:
            assert abs(draw * 10000 - 5000) < 5 * 50

    def test_deterministic_given_stream(self):
        sf = make_subsetfit([0.5, 1.5], [1.0, 2.0, 3.0], w1=[0.25, 0.25, 0.5])
        a = run_subset(sf, 20, 100, 100, 0.05, cbrng.substream(23, 2, 1, 0))
        b = run_subset(sf, 20, 100, 100, 0.05, cbrng.substream(23, 2, 1, 0))
        c = run_subset(sf, 20, 100, 100, 0.05, cbrng.substream(23, 2, 2, 0))
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)


class TestPoissonizedLaw:
    """draw_arm_totals' counts are exactly multinomial(n_arm, w)."""

    @pytest.mark.parametrize(
        "n_arm, w, topup_max",
        [
            (6, (0.1, 0.2, 0.3, 0.4), None),   # lam = 1.1
            (4, (0.5, 0.3, 0.2), None),        # lam = 0: top-ups only
            (5, (0.7, 0.3), None),
            (6, (0.15, 0.25, 0.6), 0),         # every short row replaced
            (3, (0.2, 0.2, 0.2, 0.4), 1),
        ],
    )
    def test_totals_follow_the_multinomial_pmf(self, monkeypatch, n_arm, w, topup_max):
        # outcomes (n_arm + 1)**i make each total the base-(n_arm + 1)
        # code of its count vector
        if topup_max is not None:
            monkeypatch.setattr(engine, "_TOPUP_MAX", topup_max)
        r, base = 20_000, n_arm + 1
        y = np.asarray([float(base**i) for i in range(len(w))])
        totals = engine.draw_arm_totals(cbrng.substream(13, 2, n_arm, len(w)), n_arm, np.asarray(w), y, r)
        pmf = {sum(c * base**i for i, c in enumerate(counts)): p
               for counts, p in multinomial_pmf(n_arm, w).items()}
        seen = Counter(int(t) for t in totals)
        assert set(seen) <= set(pmf)
        # cells expected fewer than 5 times are pooled into one
        big = [c for c in pmf if r * pmf[c] >= 5]
        small = [c for c in pmf if r * pmf[c] < 5]
        observed = [seen[c] for c in big]
        expected = [r * pmf[c] for c in big]
        if small:
            observed.append(sum(seen[c] for c in small))
            expected.append(r * sum(pmf[c] for c in small))
        assert chisquare(observed, expected).pvalue > 1e-3

    @given(
        n_arm=st.one_of(st.integers(1, 4), st.integers(5, 100), st.integers(101, 5000)),
        b=st.integers(1, 6),
        r=st.integers(1, 60),
        topup_max=st.sampled_from([0, 3, engine._TOPUP_MAX]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_arm=3, b=2, r=10, topup_max=engine._TOPUP_MAX, seed=0)     # lam = 0
    @example(n_arm=7, b=1, r=10, topup_max=engine._TOPUP_MAX, seed=1)     # one cell
    @example(n_arm=40, b=6, r=60, topup_max=engine._TOPUP_MAX, seed=2)    # lam * w < 10
    @example(n_arm=5000, b=2, r=60, topup_max=engine._TOPUP_MAX, seed=3)  # lam * w >= 10
    @example(n_arm=500, b=3, r=60, topup_max=0, seed=4)                   # rows replaced
    @settings(max_examples=200, deadline=None)
    def test_count_readout_sums_to_the_arm_size(self, n_arm, b, r, topup_max, seed):
        stream = cbrng.substream(seed, 2, 0, 0)
        w = stream.dirichlet(np.ones(b))
        with mock.patch.object(engine, "_TOPUP_MAX", topup_max):
            totals = engine.draw_arm_totals(stream, n_arm, w, np.ones(b), r)
        assert totals.tolist() == [float(n_arm)] * r


class TestSearchCdf:
    """The top-up draws' guide-table lookup is searchsorted, exactly."""

    @given(
        b=st.one_of(st.integers(1, 2), st.integers(3, 400)),
        spread=st.floats(0.0, 12.0),
        dominant=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(b=1, spread=0.0, dominant=False, seed=0)
    @example(b=2, spread=12.0, dominant=False, seed=1)
    @example(b=3, spread=0.0, dominant=False, seed=2)     # (1 - 2**-53) * 3 rounds to 3
    @example(b=400, spread=12.0, dominant=True, seed=3)   # most draws reach the fallback
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted(self, b, spread, dominant, seed):
        # weight ratios up to 10**spread, optionally one cell 1e12 times
        # heavier; the cdf is built as _top_up_rows builds it
        gen = np.random.default_rng(seed)
        w = 10.0 ** gen.uniform(0.0, spread, size=b)
        if dominant:
            w[gen.integers(b)] *= 1e12
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        # bucket edges j/g and the cdf's own values, each with both
        # neighbours, plus 0, the largest uniform below 1 and random draws
        edges = np.concatenate([np.arange(b) / b, cdf[:-1]])
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            gen.random(1000),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        np.testing.assert_array_equal(engine._search_cdf(cdf, u), cdf.searchsorted(u, side="right"))


class TestReplicateEstimate:
    def test_two_unit_subset_is_deterministic(self):
        sf = make_subsetfit([1.0], [3.0])
        # singleton multinomials are forced to (n0,) and (n1,)
        est = run_subset(sf, 4, 11, 29, 0.05, cbrng.substream(0, 2, 0, 0))
        assert list(est.draws) == [2.0] * 4

    def test_constant_outcome_cancels(self):
        sf = make_subsetfit([4.0, 4.0, 4.0], [4.0, 4.0])
        est = run_subset(sf, 20, 10, 10, 0.05, cbrng.substream(1, 2, 0, 0))
        np.testing.assert_allclose(est.draws, 0.0, rtol=0, atol=1e-12)

    def test_expectation_matches_hajek_estimate(self):
        # mean replicate estimate converges to the whole-subset weighted
        # estimate; four MC standard errors at r=10000
        table = generate_dgm(2000, cbrng.substream(41, cbrng.DOMAIN_DATASET, 0))
        for k in range(2):
            idx = cb.draw_subset(table, 500, cbrng.substream(41, 1, k, 0))
            fit = truncate_scores(fit_logistic_irls(table.x[idx], table.w[idx]), 0.01, 0.99)
            sf = order_subset(table, idx, fit, subset_id=k)
            est = run_subset(
                sf, 10000, table.n0, table.n1, 0.05,
                cbrng.substream(41, 2, k, 0),
            )
            mc_se = est.se / np.sqrt(10000)
            assert abs(est.mean - est.hajek) < 4 * mc_se


class TestExactMoments:
    """The replicate estimates of one subset at each benchmark workload's
    shape against their exact law: the SD and the 2.5% and 97.5%
    quantiles of r draws within four Monte Carlo SEs of the exact
    values, the quantiles by a one-term Cornish-Fisher expansion."""

    @pytest.mark.parametrize("n, p, gamma, b, r", [
        (2_000, 2, 0.7, 205, 20_000),
        (200_000, 5, 0.7, 5_137, 4_000),
        (1_000_000, 2, 0.85, 125_893, 400),
    ])
    def test_draws_match_the_exact_cumulants(self, n, p, gamma, b, r):
        table = generate_dgm(n, cbrng.substream(57, cbrng.DOMAIN_DATASET, 0), p)
        assert cb.subset_size(n, gamma) == b
        idx = cb.draw_subset(table, b, cbrng.substream(57, cbrng.DOMAIN_SUBSET, 0, 0))
        fit = truncate_scores(fit_logistic_irls(table.x[idx], table.w[idx]), 0.01, 0.99)
        sf = order_subset(table, idx, fit)
        est = run_subset(sf, r, table.n0, table.n1, 0.05,
                         cbrng.substream(57, cbrng.DOMAIN_REPLICATE, 0, 0))
        mean, var, k3 = replicate_cumulants(
            sf.weights.w0, sf.y0, table.n0, sf.weights.w1, sf.y1, table.n1
        )
        sd = math.sqrt(var)
        assert abs(est.mean - mean) < 4 * sd / math.sqrt(r)
        # SE of a sample SD, the draws being close to normal
        assert abs(est.se - sd) < 4 * sd / math.sqrt(2 * (r - 1))
        z = NormalDist().inv_cdf(0.975)
        skew = k3 / sd**3
        # SE of a sample quantile: sqrt(q(1 - q)/r) over the density there
        q_se = math.sqrt(0.025 * 0.975 / r) * sd / NormalDist().pdf(z)
        for bound, zq in ((est.q_lower, -z), (est.q_upper, z)):
            exact = mean + sd * (zq + (zq**2 - 1.0) * skew / 6.0)
            assert abs(bound - exact) < 4 * q_se


@st.composite
def subset_cases(draw):
    b0 = draw(st.integers(1, 6))
    b1 = draw(st.integers(1, 6))
    y0 = draw(st.lists(st.floats(-10, 10), min_size=b0, max_size=b0))
    y1 = draw(st.lists(st.floats(-10, 10), min_size=b1, max_size=b1))
    n0 = draw(st.integers(b0, 60))
    n1 = draw(st.integers(b1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    return y0, y1, n0, n1, seed


def draws_of(sf, n0, n1, seed, k):
    """run_subset's draws (r=3) from the replicate substream (seed, k)."""
    return run_subset(sf, 3, n0, n1, 0.05, cbrng.substream(seed, 2, k, 0)).draws


class TestEstimatorAlgebra:
    @given(subset_cases())
    @settings(max_examples=150, deadline=None)
    def test_count_sums_and_shift_scale(self, case):
        y0, y1, n0, n1, seed = case
        sf = make_subsetfit(y0, y1)
        w0, w1 = sf.weights.w0, sf.weights.w1
        # same key, so every call below sees the same count vectors
        assert list(draws_of(count_readout_fit(w0, w1, 1), n0, n1, seed, 0)) == [1.0] * 3
        assert list(draws_of(count_readout_fit(w0, w1, 0), n0, n1, seed, 0)) == [-1.0] * 3

        base = draws_of(sf, n0, n1, seed, 0)
        shifted = make_subsetfit(np.asarray(y0) + 5.5, np.asarray(y1) + 5.5)
        np.testing.assert_allclose(draws_of(shifted, n0, n1, seed, 0), base, rtol=0, atol=1e-12)
        scaled = make_subsetfit(np.asarray(y0) * -3.0, np.asarray(y1) * -3.0)
        assert draws_of(scaled, n0, n1, seed, 0) == pytest.approx(
            -3.0 * base, abs=1e-10, rel=1e-10
        )

    @given(subset_cases())
    @settings(max_examples=150, deadline=None)
    def test_estimate_within_attainable_range(self, case):
        y0, y1, n0, n1, seed = case
        draws = draws_of(make_subsetfit(y0, y1), n0, n1, seed, 1)
        lo = min(y1) - max(y0)
        hi = max(y1) - min(y0)
        assert (lo - 1e-12 <= draws).all() and (draws <= hi + 1e-12).all()


def run_subset_peak(traced, sf, r, n_arm):
    """tracemalloc peak of run_subset with both arms at size ``n_arm``."""
    return traced(lambda: run_subset(sf, r, n_arm, n_arm, 0.05, cbrng.substream(9, 2, 0, 0)))[1]


class TestRunSubset:
    def test_bit_identical_reruns(self):
        sf = make_subsetfit([1.0, 2.0, 3.0], [4.0, 5.0])
        a = run_subset(sf, 50, 30, 20, 0.05, cbrng.substream(5, 2, 0, 0))
        b = run_subset(sf, 50, 30, 20, 0.05, cbrng.substream(5, 2, 0, 0))
        assert np.array_equal(a.draws, b.draws)
        assert a.mean == b.mean and a.se == b.se

    def test_constant_outcome_gives_zero_everything(self):
        sf = make_subsetfit([2.5, 2.5, 2.5], [2.5, 2.5, 2.5])
        est = run_subset(sf, 100, 40, 60, 0.05, cbrng.substream(5, 2, 1, 0))
        assert est.mean == pytest.approx(0.0, abs=1e-12)
        assert est.se == pytest.approx(0.0, abs=1e-12)
        assert est.q_lower == pytest.approx(0.0, abs=1e-12)
        assert est.q_upper == pytest.approx(0.0, abs=1e-12)

    def test_point_estimate_close_to_truth_across_trials(self):
        # whole-dataset subsets (b = n = 1000): the replicate mean stays
        # within four bootstrap SDs of the truth in at least 99 of 100
        # seeded trials
        failures = 0
        for trial in range(100):
            table = generate_dgm(1000, cbrng.substream(trial, cbrng.DOMAIN_DATASET, 3))
            idx = np.arange(table.n)
            fit = truncate_scores(fit_logistic_irls(table.x, table.w), 0.01, 0.99)
            sf = order_subset(table, idx, fit)
            est = run_subset(sf, 500, table.n0, table.n1, 0.05, cbrng.substream(trial, 2, 9, 0))
            if abs(est.mean - 2.0) >= 4 * est.se:
                failures += 1
        assert failures <= 1

    def test_draws_match_the_poissonized_longhand(self):
        # Pins the stream layout: from the subset's replicate stream, the
        # treated arm's r Poisson rows, then its top-ups and replaced rows
        # in row order, then the same for the control arm.
        r = 25
        replaced = lambda_zero = 0
        for case in range(24):
            # every fourth case has arms of at most 4, where lam = 0
            top = 5 if case % 4 == 0 else 200
            stream = cbrng.substream(31, 2, case, 0)
            b0, b1 = (int(v) for v in stream.integers(1, min(top, 9), size=2))
            y0 = stream.uniform(-10.0, 10.0, size=b0)
            y1 = stream.uniform(-10.0, 10.0, size=b1)
            n0, n1 = int(stream.integers(b0, top)), int(stream.integers(b1, top))
            sf = make_subsetfit(
                y0, y1, stream.dirichlet(np.ones(b0)), stream.dirichlet(np.ones(b1))
            )
            est = run_subset(sf, r, n0, n1, 0.05, cbrng.substream(31, 2, case, 1))
            redraw = cbrng.substream(31, 2, case, 1)
            t1, k1 = poissonized_totals_longhand(redraw, n1, sf.weights.w1, y1, r, engine._TOPUP_MAX)
            t0, k0 = poissonized_totals_longhand(redraw, n0, sf.weights.w0, y0, r, engine._TOPUP_MAX)
            expected = [t1[j] / n1 - t0[j] / n0 for j in range(r)]
            np.testing.assert_array_equal(est.draws, expected)
            replaced += k1 + k0
            lambda_zero += (n0 <= 4) + (n1 <= 4)
        assert replaced > 0 and lambda_zero > 0

    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch):
        # arms of 7,000 and 5,000 rows: the default block splits r=100
        # into 11 blocks of 9 Poisson rows and one of 1, and 7 of 13 and
        # one of 9, and tops each arm's rows up in one block; one row per
        # block, blocks of about 7 rows' top-ups, and all r rows in one
        # block must give the same bytes
        b0, b1, r = 7000, 5000, 100
        sf = random_subsetfit(4, b0, b1)

        def draws():
            return run_subset(sf, r, 9 * b0, 9 * b1, 0.05, cbrng.substream(8, 2, 0, 0)).draws

        # the first arm drawn has rows more than n1 counts long, which
        # are replaced by fresh multinomial rows
        lam = 9 * b1 - 2.0 * np.sqrt(9 * b1)
        poisson_rows = cbrng.substream(8, 2, 0, 0).poisson(lam * sf.weights.w1, size=(r, b1))
        assert (poisson_rows.sum(axis=1) > 9 * b1).any()

        default = draws()
        for cells in (1, 3000, r * b0):
            monkeypatch.setattr(engine, "_BLOCK_CELLS", cells)
            assert draws().tobytes() == default.tobytes()

    def test_traced_peak_is_one_block_not_the_count_matrix(self, traced):
        # r x b int64 counts per arm would be 64 x 50,000 x 8 B = 24 MiB,
        # and their float product as much again; one block of the kernel
        # is at most one row here, 0.4 MiB of counts plus 0.4 MiB of products
        sf = random_subsetfit(6, 50_000, 50_000)
        assert run_subset_peak(traced, sf, 64, 400_000) < 8 * 2**20

    def test_traced_peak_is_one_block_of_top_up_draws(self, traced):
        # 5,000 rows per arm, each about 2 sqrt(1e6) = 2,000 counts short
        # of n: 10M top-up draws per arm, 80 MB if drawn at once
        sf = random_subsetfit(7, 500, 500)
        assert run_subset_peak(traced, sf, 5000, 1_000_000) < 8 * 2**20

    def test_replicate_minimum(self):
        sf = make_subsetfit([1.0], [2.0])
        with pytest.raises(EstimationError):
            run_subset(sf, 1, 5, 5, 0.05, cbrng.substream(0, 2, 0, 0))


# Hashes run_subset's draws at r=100, b0=b1=40,000, n0=n1=320,000, sizes at
# which a BLAS matvec over the count matrix splits its work across threads.
_HASH_DRAWS = """
import hashlib
from causalboot import rng
from causalboot.engine import run_subset
from test_engine import random_subsetfit

sf = random_subsetfit(12, 40_000, 40_000)
draws = run_subset(sf, 100, 320_000, 320_000, 0.05, rng.substream(12, 2, 0, 0)).draws
print(hashlib.sha256(draws.tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_draws_do_not_depend_on_the_blas_thread_count(self):
        """The same kernel run under one and two OpenBLAS threads.

        The pool size is fixed when numpy loads, so each run is its own
        process.  On a single CPU, or with a numpy not built on OpenBLAS,
        the variable changes nothing and the test passes trivially.
        """
        src = Path(cb.__file__).resolve().parent.parent
        path = os.pathsep.join([str(src), str(Path(__file__).parent)])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run(
                [sys.executable, "-c", _HASH_DRAWS], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]


class TestIterSubsets:
    def test_yields_run_blb_subsets_in_order_and_closes_early(self, dgm_table):
        cfg = cb.BlbConfig(gamma=0.7, subsets=6, replicates=50, seed=11)
        full = run_blb(dgm_table, cfg).subsets
        stream = cb.iter_subsets(dgm_table, dataclasses.replace(cfg, threads=4))
        first = [next(stream), next(stream)]
        stream.close()
        for got, want in zip(first, full):
            assert got.subset_id == want.subset_id
            assert np.array_equal(got.draws, want.draws)


class TestRunBlb:
    def test_marginal_single_full_subset_matches_difference_in_means(self, dgm_table):
        cfg = cb.BlbConfig(
            gamma=1.0, subsets=1, replicates=400, seed=77, estimator="marginal"
        )
        res = run_blb(dgm_table, cfg)
        dim = dgm_table.y[dgm_table.w == 1].mean() - dgm_table.y[dgm_table.w == 0].mean()
        mc_se = res.subsets[0].se / np.sqrt(400)
        assert abs(res.tau_hat - dim) < 5 * mc_se

    def test_synthetic_run_covers_truth(self):
        table = generate_dgm(20000, cbrng.substream(1, cbrng.DOMAIN_DATASET, 0))
        cfg = cb.BlbConfig(gamma=0.8, subsets=5, replicates=100, seed=42)
        res = run_blb(table, cfg)
        assert res.b == 2759
        assert abs(res.tau_hat - 2.0) < 3 * res.se
        assert res.ci.lower <= res.ci.upper
        assert [e.subset_id for e in res.subsets] == list(range(5))

    def test_thread_count_does_not_change_results(self, dgm_table):
        cfg = cb.BlbConfig(gamma=0.7, subsets=6, replicates=50, seed=11)
        res1 = run_blb(dgm_table, cfg)
        res8 = run_blb(dgm_table, dataclasses.replace(cfg, threads=8))
        assert res1.tau_hat == res8.tau_hat
        assert res1.se == res8.se
        assert res1.ci.lower == res8.ci.lower and res1.ci.upper == res8.ci.upper
        for a, b in zip(res1.subsets, res8.subsets):
            assert np.array_equal(a.draws, b.draws)

    def test_percentile_and_asymptotic_selected_by_config(self, dgm_table):
        cfg = cb.BlbConfig(gamma=0.7, subsets=3, replicates=60, seed=19)
        pct = run_blb(dgm_table, cfg)
        asym = run_blb(dgm_table, dataclasses.replace(cfg, ci_kind="asymptotic"))
        assert pct.ci.kind == "percentile"
        assert asym.ci.kind == "asymptotic"
        # numeric payloads agree where shared
        assert pct.ci_asymptotic.lower == asym.ci_asymptotic.lower

    def test_degenerate_subsets_get_redrawn(self):
        # 3 treated of 60 rows with b=3: many subsets are all-control
        rng = np.random.default_rng(8)
        w = np.zeros(60, dtype=int)
        w[:3] = 1
        table = cb.ObservationTable(
            y=rng.standard_normal(60), w=w, x=rng.standard_normal((60, 1))
        )
        cfg = cb.BlbConfig(
            subset_size=3, gamma=None, subsets=4, replicates=20, seed=3,
            estimator="marginal", weight_cap=1.0, max_redraws=200,
        )
        res = run_blb(table, cfg)
        assert res.diagnostics["total_redraws"] > 0

    def test_redraw_budget_exhaustion(self, dgm_table, tmp_path, capsys):
        # an impossible weight cap fails every attempt
        cfg = cb.BlbConfig(
            gamma=0.5, subsets=2, replicates=10, seed=0, weight_cap=1e-9,
            max_redraws=2,
        )
        with pytest.raises(RedrawBudgetError):
            run_blb(dgm_table, cfg)
        # So does a single arm: with 1 treated row of 2,000 and b=2 every
        # attempt at seed 0 is all-control.  The fit, or order_subset for
        # external scores, raises a typed error that is the attempt's reason.
        gen = np.random.default_rng(4)
        w = np.zeros(2000, dtype=int)
        w[1000] = 1
        table = cb.ObservationTable(y=gen.standard_normal(2000), w=w, x=gen.standard_normal((2000, 1)))
        csv_path = tmp_path / "lonely.csv"
        csv_path.write_text("y,w,x1\n" + "".join(
            f"{y!r},{t},{x!r}\n" for y, t, x in zip(table.y.tolist(), w.tolist(), table.x[:, 0].tolist())
        ), encoding="utf-8")
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n" * 2000, encoding="utf-8")
        for method in ("logistic", "marginal", f"external:{scores}"):
            estimator, _, path = method.partition(":")
            cfg = cb.BlbConfig(
                subset_size=2, gamma=None, subsets=2, replicates=10, seed=0, max_redraws=3,
                estimator=estimator, external_scores=path or None,
            )
            with pytest.raises(RedrawBudgetError) as exc:
                run_blb(table, cfg)
            reasons = re.findall(r"attempt (\d+): ([^;]*)[;)]", str(exc.value))
            assert [int(i) for i, _ in reasons] == [0, 1, 2, 3], method
            for _, why in reasons:
                assert why == "both treatment arms must be nonempty", method
            code = main([
                "analyze", "--input", str(csv_path), "--outcome", "y", "--treatment", "w",
                "--covariates", "x1", "--method", method, "--subset-size", "2",
                "--subsets", "2", "--replicates", "10", "--seed", "0", "--max-redraws", "3",
                "--output", str(tmp_path / "out"),
            ])
            err = capsys.readouterr().err
            assert code == 4, method
            assert err == f"estimation error: {exc.value}\n"

    def test_redraw_on_imbalance(self, dgm_table):
        # at a threshold of 0.02 some logistic subsets of b=761 fail the
        # balance check: without redraws they are used, with them redrawn
        cfg = cb.BlbConfig(gamma=0.8, subsets=3, replicates=20, seed=5, balance_threshold=0.02)
        kept = run_blb(dgm_table, cfg)
        assert kept.diagnostics["balance_failures"] > 0
        assert kept.diagnostics["total_redraws"] == 0
        redrawn = run_blb(dgm_table, dataclasses.replace(cfg, redraw_on_imbalance=True))
        assert redrawn.diagnostics["total_redraws"] > 0
        assert redrawn.diagnostics["balance_failures"] == 0
        assert all(e.balance.passed and e.balance.threshold == 0.02 for e in redrawn.subsets)
        # no subset reaches an unreachable threshold
        cfg = dataclasses.replace(
            cfg, redraw_on_imbalance=True, balance_threshold=1e-9, max_redraws=2
        )
        with pytest.raises(RedrawBudgetError) as exc:
            run_blb(dgm_table, cfg)
        reasons = re.findall(r"attempt (\d+): ([^;]*)[;)]", str(exc.value))
        assert [int(i) for i, _ in reasons] == [0, 1, 2]
        for _, why in reasons:
            assert re.fullmatch(r"max \|SMD\| \S+ above threshold", why)

    def test_single_arm_table_rejected(self):
        table = cb.ObservationTable(
            y=np.arange(4.0), w=np.zeros(4, dtype=int), x=np.zeros((4, 1))
        )
        cfg = cb.BlbConfig(gamma=1.0, subsets=1, replicates=10, seed=0)
        with pytest.raises(DegenerateSubsetError, match="^both treatment arms must be nonempty$"):
            run_blb(table, cfg)

    def test_shift_invariance_end_to_end(self, dgm_table):
        cfg = cb.BlbConfig(gamma=0.6, subsets=4, replicates=50, seed=29)
        base = run_blb(dgm_table, cfg)
        shifted_table = cb.ObservationTable(
            y=dgm_table.y + 3.25,
            w=dgm_table.w,
            x=dgm_table.x,
            covariate_names=dgm_table.covariate_names,
        )
        shifted = run_blb(shifted_table, cfg)
        assert shifted.tau_hat == pytest.approx(base.tau_hat, abs=1e-12)
        assert shifted.se == pytest.approx(base.se, abs=1e-12)

    def test_external_scores_round_trip_reproduces_draws(self, dgm_table, tmp_path):
        cfg = cb.BlbConfig(gamma=1.0, subsets=1, replicates=80, seed=13)
        direct = run_blb(dgm_table, cfg)
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        scores_path = tmp_path / "scores.txt"
        scores_path.write_text(
            "".join(f"{float(v)!r}\n" for v in fit.scores), encoding="utf-8"
        )
        via_file = run_blb(
            dgm_table,
            dataclasses.replace(cfg, estimator="external", external_scores=str(scores_path)),
        )
        assert np.array_equal(direct.subsets[0].draws, via_file.subsets[0].draws)
        assert direct.tau_hat == via_file.tau_hat


class TestSubsetStageMemory:
    def test_traced_peak_is_a_few_subset_vectors(self, traced):
        # n = 200,000 and gamma = 0.85 give b = 32,054.  The logistic fit
        # sets the peak, at about 17 b-vectors of 8 bytes; one replicate
        # block of 2**18 counts and their products would be 16 on its own
        table = generate_dgm(200_000, cbrng.substream(11, cbrng.DOMAIN_DATASET, 0))
        cfg = cb.BlbConfig(gamma=0.85, subsets=2, replicates=20, seed=3)
        result, peak = traced(lambda: run_blb(table, cfg))
        assert result.b == 32_054
        assert peak < 20 * 8 * result.b

    def test_finished_subsets_hold_only_their_draws(self, dgm_table):
        # the payload reads a subset's fit diagnostics, not its b scores
        cfg = cb.BlbConfig(gamma=0.9, subsets=3, replicates=20, seed=3)
        for est in run_blb(dgm_table, cfg).subsets:
            arrays = [v for v in vars(est).values() if isinstance(v, np.ndarray)]
            assert [a.shape for a in arrays] == [(20,)]
            assert not any(isinstance(v, np.ndarray) for v in vars(est.fit).values())
