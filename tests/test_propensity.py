import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit as scipy_expit

from causalboot import (
    DataError,
    EstimationError,
    SeparationError,
    fit_cbps,
    fit_logistic_irls,
    load_external_scores,
    marginal_propensity,
    normalized_weights,
    truncate_scores,
)
from causalboot import rng as cbrng
from causalboot.propensity import _balance_conditions, expit
from causalboot.simulation import generate_dgm

from oracles import design, logistic_fisher_se, two_cell_balance_scores, weighted_arm_means


class TestExpit:
    """The package's numpy logistic function against scipy's."""

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 40.0])
    def test_matches_scipy_to_the_last_bits(self, sigma):
        # Both compute 1 / (1 + exp(-z)); their exp may differ in the last
        # bit.  Below z = -36.7, exp(-z) >= 2**53 and adding 1 rounds a
        # tie, which can double that difference: there the two differ by
        # up to 4 ulps, while each stays within 2 ulps of the correctly
        # rounded value.
        z = np.random.default_rng(29).normal(scale=sigma, size=200_000)
        # both are nonnegative, so their bit patterns count ulps
        ulps = np.abs(expit(z).view(np.int64) - scipy_expit(z).view(np.int64))
        tie = np.exp(-z) >= 2.0**53
        assert ulps[~tie].max() <= 2
        assert ulps[tie].max(initial=0) <= 4

    @pytest.mark.parametrize(
        "z, value", [(-800.0, 0.0), (-np.inf, 0.0), (40.0, 1.0), (800.0, 1.0), (np.inf, 1.0)]
    )
    def test_exact_limits_without_warning(self, z, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([z]))
        assert out[0] == value == scipy_expit(z)

    def test_nan_stays_nan(self):
        assert np.isnan(expit(np.array([np.nan]))[0])


class TestLogisticIrls:
    def test_intercept_only_recovers_treated_rate(self):
        w = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1])
        fit = fit_logistic_irls(np.empty((10, 0)), w)
        assert fit.converged
        np.testing.assert_allclose(fit.scores, w.mean(), atol=1e-10)

    def test_recovers_assignment_model_coefficients(self):
        # b=50000 from the confounded process; truth (0, -0.5, -0.5),
        # tolerance three asymptotic SEs from the Fisher information
        table = generate_dgm(50000, cbrng.substream(7, cbrng.DOMAIN_DATASET, 0))
        fit = fit_logistic_irls(table.x, table.w)
        assert fit.converged
        se = logistic_fisher_se(design(table.x), fit.scores)
        truth = np.array([0.0, -0.5, -0.5])
        assert (np.abs(fit.coefficients - truth) <= 3 * se).all()

    def test_matches_statsmodels(self, dgm_table):
        sm = pytest.importorskip("statsmodels.api")
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        ref = sm.Logit(dgm_table.w, sm.add_constant(dgm_table.x)).fit(disp=0)
        np.testing.assert_allclose(fit.coefficients, ref.params, atol=1e-6)

    def test_matches_scipy_minimize(self, dgm_table):
        # the same log-likelihood maximized by BFGS with its analytic
        # gradient X'(w - pi), run until that gradient is below 1e-10
        X = design(dgm_table.x)
        w = dgm_table.w.astype(float)

        def negloglik(beta):
            eta = X @ beta
            return float(np.sum(np.logaddexp(0.0, eta) - w * eta))

        def gradient(beta):
            return X.T @ (scipy_expit(X @ beta) - w)

        ref = minimize(negloglik, np.zeros(X.shape[1]), jac=gradient, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 1000})
        assert np.max(np.abs(gradient(ref.x))) < 1e-8
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        np.testing.assert_allclose(fit.coefficients, ref.x, atol=1e-6)

    def test_gradient_below_tolerance_at_convergence(self, dgm_table):
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        X = design(dgm_table.x)
        score = X.T @ (dgm_table.w - fit.scores)
        assert np.max(np.abs(score)) < 1e-8
        assert fit.objective < 1e-8

    def test_affine_rescaling_leaves_scores_unchanged(self, dgm_table):
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        x2 = dgm_table.x.copy()
        x2[:, 0] = 3.5 * x2[:, 0] - 1.25
        fit2 = fit_logistic_irls(x2, dgm_table.w)
        np.testing.assert_allclose(fit.scores, fit2.scores, atol=1e-8)

    def test_perfect_separation_raises(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 1))
        w = (x[:, 0] > 0).astype(int)
        with pytest.raises(SeparationError):
            fit_logistic_irls(x, w)

    def test_single_arm_rejected(self):
        with pytest.raises(EstimationError, match="both treatment arms"):
            fit_logistic_irls(np.zeros((5, 0)), np.ones(5, dtype=int))

    def test_constant_column_rejected(self):
        x = np.column_stack([np.ones(20), np.linspace(0, 1, 20)])
        w = np.tile([0, 1], 10)
        with pytest.raises(EstimationError, match="constant"):
            fit_logistic_irls(x, w)

    @pytest.mark.parametrize("fit", [fit_logistic_irls, fit_cbps])
    @pytest.mark.parametrize("value, b", [(0.1, 100), (0.1, 1000), (1 / 3, 1000), (0.3, 1000)])
    def test_exactly_constant_column_rejected_whatever_its_sd(self, fit, value, b):
        # these columns' means round away from their value, so their SD is
        # not 0: an SD test alone lets a fit split the intercept across them
        gen = np.random.default_rng(5)
        x = np.column_stack([gen.standard_normal(b), np.full(b, value)])
        w = np.tile([0, 1], b // 2)
        assert x[:, 1].std() > 0.0
        with pytest.raises(EstimationError, match="covariate column 1 is constant"):
            fit(x, w)


class TestCbps:
    def test_binary_covariate_balances_exactly(self):
        # two cells, both arms present at both levels; closed-form
        # solution is the per-cell treated rate
        x = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        w = np.array([0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1])
        fit = fit_cbps(x.reshape(-1, 1).astype(float), w)
        assert fit.converged
        np.testing.assert_allclose(fit.scores, two_cell_balance_scores(w, x), atol=1e-6)
        mean1, mean0 = weighted_arm_means(x.astype(float), w, fit.scores)
        assert abs(mean1 - mean0) < 1e-6

    def test_balanced_discrete_null_matches_irls(self):
        # saturated two-cell design with x in {-1, +1}, independent of w:
        # balancing and likelihood solutions coincide at the cell rates
        x = np.tile([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0], 20).reshape(-1, 1)
        w = np.tile([0, 1, 1, 0, 0, 1], 20)
        cbps = fit_cbps(x, w)
        irls = fit_logistic_irls(x, w)
        assert cbps.converged
        np.testing.assert_allclose(cbps.coefficients, irls.coefficients, atol=1e-5)

    def test_balance_conditions_below_tolerance(self, dgm_table):
        fit = fit_cbps(dgm_table.x, dgm_table.w)
        assert fit.converged
        # the evaluation of a stack of one member
        columns, w = dgm_table.x.T.copy()[None], dgm_table.w.astype(float)[None]
        g = _balance_conditions(columns, w, fit.coefficients[None])[2][0]
        assert np.max(np.abs(g)) < 1e-6

    def test_weighted_means_agree_across_arms(self):
        table = generate_dgm(2000, cbrng.substream(9, cbrng.DOMAIN_DATASET, 1))
        fit = fit_cbps(table.x, table.w)
        assert fit.converged
        for j in range(table.p):
            mean1, mean0 = weighted_arm_means(table.x[:, j], table.w, fit.scores)
            assert abs(mean1 - mean0) < 1e-5

    def test_initialized_from_irls_improves_balance(self, dgm_table):
        irls = fit_logistic_irls(dgm_table.x, dgm_table.w)
        cbps = fit_cbps(dgm_table.x, dgm_table.w)
        columns = dgm_table.x.T.copy()[None]
        w = dgm_table.w.astype(float)[None]
        g_irls = np.max(np.abs(_balance_conditions(columns, w, irls.coefficients[None])[2]))
        g_cbps = np.max(np.abs(_balance_conditions(columns, w, cbps.coefficients[None])[2]))
        assert g_cbps < g_irls


class TestMarginal:
    def test_two_units(self):
        fit = marginal_propensity(np.array([0, 1]))
        np.testing.assert_allclose(fit.scores, [0.5, 0.5])
        assert fit.coefficients.size == 0

    def test_rate(self):
        w = np.zeros(100, dtype=int)
        w[:30] = 1
        fit = marginal_propensity(w)
        np.testing.assert_allclose(fit.scores, 0.3)

    def test_uniform_weights_downstream(self):
        w = np.array([0, 1, 0, 1, 1])
        weights = normalized_weights(marginal_propensity(w), w)
        np.testing.assert_allclose(weights.w0, 1 / 2)
        np.testing.assert_allclose(weights.w1, 1 / 3)

    def test_single_arm_rejected(self):
        with pytest.raises(EstimationError):
            marginal_propensity(np.zeros(4, dtype=int))


class TestTruncation:
    def test_clamps_and_counts(self):
        fit = marginal_propensity(np.array([0, 1, 0]))
        fit = type(fit)(
            scores=np.array([0.001, 0.5, 0.999]),
            coefficients=fit.coefficients,
            method="external",
            converged=True,
            iterations=0,
            objective=0.0,
        )
        out = truncate_scores(fit, 0.01, 0.99)
        np.testing.assert_allclose(out.scores, [0.01, 0.5, 0.99])
        assert out.clamped == 2

    def test_identity_bounds(self):
        fit = marginal_propensity(np.array([0, 1, 1]))
        out = truncate_scores(fit, 0.0, 1.0)
        np.testing.assert_array_equal(out.scores, fit.scores)
        assert out.clamped == 0

    def test_clamp_fraction_small_on_synthetic_data(self):
        # true propensities under the process satisfy
        # P(pi < 0.01) = Phi(logit(0.01)/sqrt(0.5)) ~ 4e-11, so fitted
        # scores at b=1000 should almost never clamp
        table = generate_dgm(1000, cbrng.substream(13, cbrng.DOMAIN_DATASET, 2))
        fit = fit_logistic_irls(table.x, table.w)
        out = truncate_scores(fit, 0.01, 0.99)
        assert out.clamped / 1000 < 0.01

    def test_invalid_bounds(self):
        fit = marginal_propensity(np.array([0, 1]))
        with pytest.raises(EstimationError):
            truncate_scores(fit, 0.5, 0.5)


class TestNormalizedWeights:
    def _fit_with_scores(self, scores):
        fit = marginal_propensity(np.array([0, 1]))
        return type(fit)(
            scores=np.asarray(scores, dtype=float),
            coefficients=np.empty(0),
            method="external",
            converged=True,
            iterations=0,
            objective=0.0,
        )

    def test_singleton_arms(self):
        weights = normalized_weights(self._fit_with_scores([0.3, 0.8]), np.array([0, 1]))
        np.testing.assert_allclose(weights.w0, [1.0])
        np.testing.assert_allclose(weights.w1, [1.0])

    def test_equal_scores_give_uniform_weights(self):
        weights = normalized_weights(
            self._fit_with_scores([0.5, 0.5, 0.5, 0.5]), np.array([0, 0, 1, 1])
        )
        np.testing.assert_allclose(weights.w0, [0.5, 0.5])
        np.testing.assert_allclose(weights.w1, [0.5, 0.5])

    def test_hand_computed_two_treated(self):
        # scores (0.25, 0.75): inverse weights (4, 4/3) normalize to (0.75, 0.25)
        weights = normalized_weights(
            self._fit_with_scores([0.9, 0.25, 0.75]), np.array([0, 1, 1])
        )
        np.testing.assert_allclose(weights.w1, [0.75, 0.25])

    def test_sums_to_one_tightly(self, dgm_table):
        fit = fit_logistic_irls(dgm_table.x, dgm_table.w)
        weights = normalized_weights(fit, dgm_table.w)
        assert abs(weights.w0.sum() - 1.0) <= 1e-12
        assert abs(weights.w1.sum() - 1.0) <= 1e-12
        assert (weights.w0 >= 0).all() and (weights.w1 >= 0).all()

    def test_boundary_score_rejected(self):
        with pytest.raises(EstimationError, match="strictly inside"):
            normalized_weights(self._fit_with_scores([0.0, 0.5]), np.array([0, 1]))


class TestExternalScores:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.txt"
        values = [0.2, 0.5, 0.8]
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        fit = load_external_scores(path, 3)
        np.testing.assert_array_equal(fit.scores, values)
        assert fit.method == "external"

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3"):
            load_external_scores(path, 3)

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="outside"):
            load_external_scores(path, 2)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\noops\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            load_external_scores(path, 2)
