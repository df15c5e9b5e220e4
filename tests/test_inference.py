import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalboot
from causalboot import (
    EstimationError,
    asymptotic_ci,
    fit_logistic_irls,
    hajek_ipw,
    normalized_weights,
    percentile_ci,
    smd_balance,
    truncate_scores,
)
from causalboot import rng as cbrng
from causalboot.propensity import ArmWeights, fit_cbps
from causalboot.simulation import generate_dgm

from oracles import hajek_with_sandwich, quantile_type7


def uniform_weights(n0, n1):
    return ArmWeights(w0=np.full(n0, 1.0 / n0), w1=np.full(n1, 1.0 / n1))


class TestPercentileCi:
    def test_interpolated_bounds_on_1_to_100(self):
        ci = percentile_ci(np.arange(1.0, 101.0), 0.05)
        assert ci.lower == pytest.approx(3.475, abs=1e-12)
        assert ci.upper == pytest.approx(97.525, abs=1e-12)
        # independent hand-rolled interpolation formula
        assert ci.lower == pytest.approx(quantile_type7(range(1, 101), 0.025), abs=1e-12)
        assert ci.upper == pytest.approx(quantile_type7(range(1, 101), 0.975), abs=1e-12)

    def test_constant_draws(self):
        ci = percentile_ci(np.full(50, 3.25), 0.05)
        assert ci.lower == ci.upper == 3.25

    def test_monotone_nesting_in_alpha(self):
        draws = np.random.default_rng(0).standard_normal(501)
        widths = []
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            ci = percentile_ci(draws, alpha)
            widths.append(ci.upper - ci.lower)
        assert widths == sorted(widths, reverse=True)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_inside_data_range(self, values, alpha):
        draws = np.asarray(values)
        ci = percentile_ci(draws, alpha)
        assert draws.min() <= ci.lower <= ci.upper <= draws.max()

    def test_too_few_draws(self):
        with pytest.raises(EstimationError):
            percentile_ci(np.array([1.0]), 0.05)


class TestAsymptoticCi:
    def test_zero_se_degenerates(self):
        ci = asymptotic_ci(1.7, 0.0, 0.05)
        assert ci.lower == ci.upper == 1.7

    def test_reference_normal_quantile(self):
        ci = asymptotic_ci(2.0, 1.0, 0.05)
        assert ci.lower == pytest.approx(2.0 - 1.959964, abs=1e-6)
        assert ci.upper == pytest.approx(2.0 + 1.959964, abs=1e-6)

    def test_midpoint_is_center(self):
        ci = asymptotic_ci(-3.2, 0.7, 0.1)
        assert (ci.lower + ci.upper) / 2 == pytest.approx(-3.2, abs=1e-12)

    def test_width_formula(self):
        from scipy.stats import norm

        for alpha in (0.01, 0.05, 0.32):
            ci = asymptotic_ci(0.0, 2.5, alpha)
            expected = 2 * norm.ppf(1 - alpha / 2) * 2.5
            assert ci.upper - ci.lower == pytest.approx(expected, abs=1e-12)

    def test_negative_se_rejected(self):
        with pytest.raises(EstimationError):
            asymptotic_ci(0.0, -1.0, 0.05)

    def test_quantile_matches_ndtri_within_eight_ulps(self):
        from scipy.special import ndtri

        alphas = np.concatenate([[0.01, 0.05, 0.1, 0.32], np.geomspace(1e-8, 0.999, 2000)])
        z = np.array([asymptotic_ci(0.0, 1.0, alpha).upper for alpha in alphas])
        reference = ndtri(1.0 - alphas / 2.0)
        # both are positive, so their bit patterns count ulps
        assert np.abs(z.view(np.int64) - reference.view(np.int64)).max() <= 8

    def test_package_import_leaves_scipy_unloaded(self):
        # scipy.special alone costs about 0.3 s and 26 MB at start-up; the
        # package and its CLI run on numpy and the standard library
        src = str(Path(causalboot.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, causalboot, causalboot.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestHajek:
    def test_uniform_weights_give_difference_in_means(self):
        est = hajek_ipw(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0]), uniform_weights(3, 2))
        assert est == pytest.approx(15.0 - 2.0)

    def test_two_units(self):
        est = hajek_ipw(np.array([1.0]), np.array([3.0]), uniform_weights(1, 1))
        assert est == pytest.approx(2.0)

    def test_against_textbook_oracle_on_synthetic_data(self):
        # b=5000, logistic scores; band of four analytic sandwich SEs
        table = generate_dgm(5000, cbrng.substream(31, cbrng.DOMAIN_DATASET, 0))
        fit = truncate_scores(fit_logistic_irls(table.x, table.w), 0.01, 0.99)
        weights = normalized_weights(fit, table.w)
        est = hajek_ipw(table.y[table.w == 0], table.y[table.w == 1], weights)
        oracle_tau, oracle_se = hajek_with_sandwich(table.y, table.w, fit.scores)
        assert est == pytest.approx(oracle_tau, abs=1e-10)
        assert abs(est - 2.0) < 4 * oracle_se

    def test_shift_and_scale(self):
        y0, y1 = np.array([1.0, 5.0]), np.array([2.0, 8.0])
        weights = ArmWeights(w0=np.array([0.25, 0.75]), w1=np.array([0.6, 0.4]))
        base = hajek_ipw(y0, y1, weights)
        assert hajek_ipw(y0 + 7.0, y1 + 7.0, weights) == pytest.approx(base, abs=1e-12)
        assert hajek_ipw(3.0 * y0, 3.0 * y1, weights) == pytest.approx(3.0 * base, rel=1e-12)

    def test_arm_sizes_must_match_the_weights(self):
        with pytest.raises(EstimationError, match="arm weights do not match arm sizes"):
            hajek_ipw(np.array([1.0, 2.0]), np.array([3.0]), uniform_weights(1, 2))


class TestSmdBalance:
    def test_identical_distributions_uniform_weights(self):
        report = smd_balance(np.eye(3), np.eye(3), uniform_weights(3, 3))
        assert all(v == pytest.approx(0.0) for v in report.smd.values())
        assert report.passed

    def test_balancing_fit_drives_smd_to_zero(self):
        table = generate_dgm(2000, cbrng.substream(33, cbrng.DOMAIN_DATASET, 0))
        fit = fit_cbps(table.x, table.w)
        weights = normalized_weights(fit, table.w)
        x, w = table.x, table.w
        report = smd_balance(x[w == 0], x[w == 1], weights, names=table.covariate_names)
        assert report.max_abs_smd <= 0.01
        assert report.passed

    def test_constant_covariate_flagged(self):
        x0 = np.column_stack([np.ones(3), [0.0, 2.0, 4.0]])
        x1 = np.column_stack([np.ones(3), [1.0, 3.0, 5.0]])
        report = smd_balance(x0, x1, uniform_weights(3, 3), names=("c", "t"))
        assert "c" in report.not_applicable
        assert np.isnan(report.smd["c"])
        assert not np.isnan(report.smd["t"])

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        x0, x1 = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
        weights = uniform_weights(20, 20)
        before = smd_balance(x0, x1, weights)
        scale, shift = np.array([1.0, -2.0]), np.array([0.0, 5.0])
        after = smd_balance(x0 * scale + shift, x1 * scale + shift, weights)
        assert abs(after.smd["x2"]) == pytest.approx(abs(before.smd["x2"]), rel=1e-10)

    def test_threshold_controls_pass_flag(self):
        x0, x1 = np.array([[0.0], [0.0], [1.0]]), np.array([[1.0], [1.0], [0.0]])
        weights = uniform_weights(3, 3)
        strict = smd_balance(x0, x1, weights, threshold=0.01)
        loose = smd_balance(x0, x1, weights, threshold=10.0)
        assert not strict.passed
        assert loose.passed
