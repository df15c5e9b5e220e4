import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalboot as cb
from causalboot import rng as cbrng
from causalboot.engine import SubsetFit, order_subset, run_blb, run_subset
from causalboot.errors import DegenerateSubsetError, EstimationError, RedrawBudgetError
from causalboot.propensity import ArmWeights, PropensityFit, fit_logistic_irls, normalized_weights, truncate_scores
from causalboot.simulation import generate_dgm

from oracles import replicate_estimate_longhand


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
        indices=np.arange(b0 + b1),
        y=np.concatenate([y0, y1]),
        w=np.concatenate([np.zeros(b0, dtype=int), np.ones(b1, dtype=int)]),
        x=np.zeros((b0 + b1, 1)),
        b0=b0,
        b1=b1,
        weights=ArmWeights(w0=w0, w1=w1),
        fit=constant_fit(np.full(b0 + b1, 0.5)),
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
        assert list(sf.w) == [0, 0, 1, 1]
        # controls 2, 4 keep their input order, then treated 1, 3
        assert list(sf.indices) == [2, 4, 1, 3]
        np.testing.assert_array_equal(sf.y, small_table.y[[2, 4, 1, 3]])
        np.testing.assert_array_equal(sf.x, small_table.x[[2, 4, 1, 3]])
        # scores permuted with the rows
        np.testing.assert_array_equal(sf.fit.scores, [0.5, 0.7, 0.4, 0.6])

    def test_single_arm_raises_degenerate(self, small_table):
        controls = np.array([0, 2, 4, 6])
        with pytest.raises(DegenerateSubsetError):
            order_subset(small_table, controls, constant_fit(np.full(4, 0.5)))

    def test_weights_attach_to_reordered_rows(self, small_table):
        indices = np.array([0, 1, 2, 3])
        fit = constant_fit([0.2, 0.25, 0.4, 0.75])
        sf = order_subset(small_table, indices, fit)
        expected = normalized_weights(
            constant_fit([0.2, 0.4, 0.25, 0.75]),
            np.array([0, 0, 1, 1]),
        )
        np.testing.assert_allclose(sf.weights.w0, expected.w0)
        np.testing.assert_allclose(sf.weights.w1, expected.w1)


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
        sample = generate_dgm(2000, cbrng.substream(41, cbrng.DOMAIN_DATASET, 0))
        table = sample.table
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
            sample = generate_dgm(1000, cbrng.substream(trial, cbrng.DOMAIN_DATASET, 3))
            table = sample.table
            idx = np.arange(table.n)
            fit = truncate_scores(fit_logistic_irls(table.x, table.w), 0.01, 0.99)
            sf = order_subset(table, idx, fit)
            est = run_subset(sf, 500, table.n0, table.n1, 0.05, cbrng.substream(trial, 2, 9, 0))
            if abs(est.mean - 2.0) >= 4 * est.se:
                failures += 1
        assert failures <= 1

    def test_draws_match_longhand_on_redrawn_counts(self):
        # Pins the stream layout: from the subset's replicate stream, all
        # r treated count vectors are drawn first, then all r control ones.
        r = 25
        for case in range(20):
            stream = cbrng.substream(31, 2, case, 0)
            b0, b1 = (int(v) for v in stream.integers(1, 9, size=2))
            y0 = stream.uniform(-10.0, 10.0, size=b0)
            y1 = stream.uniform(-10.0, 10.0, size=b1)
            n0, n1 = (int(v) for v in stream.integers(10, 200, size=2))
            sf = make_subsetfit(
                y0, y1, stream.dirichlet(np.ones(b0)), stream.dirichlet(np.ones(b1))
            )
            est = run_subset(sf, r, n0, n1, 0.05, cbrng.substream(31, 2, case, 1))
            redraw = cbrng.substream(31, 2, case, 1)
            m1 = redraw.multinomial(n1, sf.weights.w1, size=r)
            m0 = redraw.multinomial(n0, sf.weights.w0, size=r)
            expected = [
                replicate_estimate_longhand(m0[j], m1[j], y0, y1, n0, n1) for j in range(r)
            ]
            np.testing.assert_allclose(est.draws, expected, rtol=0, atol=1e-12)

    def test_replicate_minimum(self):
        sf = make_subsetfit([1.0], [2.0])
        with pytest.raises(EstimationError):
            run_subset(sf, 1, 5, 5, 0.05, cbrng.substream(0, 2, 0, 0))


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
        sample = generate_dgm(20000, cbrng.substream(1, cbrng.DOMAIN_DATASET, 0))
        cfg = cb.BlbConfig(gamma=0.8, subsets=5, replicates=100, seed=42)
        res = run_blb(sample.table, cfg)
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

    def test_redraw_budget_exhaustion(self, dgm_table):
        # an impossible weight cap fails every attempt
        cfg = cb.BlbConfig(
            gamma=0.5, subsets=2, replicates=10, seed=0, weight_cap=1e-9,
            max_redraws=2,
        )
        with pytest.raises(RedrawBudgetError):
            run_blb(dgm_table, cfg)

    def test_single_arm_table_rejected(self):
        table = cb.ObservationTable(
            y=np.arange(4.0), w=np.zeros(4, dtype=int), x=np.zeros((4, 1))
        )
        cfg = cb.BlbConfig(gamma=1.0, subsets=1, replicates=10, seed=0)
        with pytest.raises(EstimationError, match="both treatment arms"):
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
