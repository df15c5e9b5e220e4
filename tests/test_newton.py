"""The damped-Newton loop both propensity fits run: stopping rules, typed
failures on hostile designs, and the balancing fit's line search."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from causalboot import BlbConfig, EstimationError, SeparationError, fit_cbps, fit_logistic_irls, run_blb
from causalboot import propensity
from causalboot import rng as cbrng
from causalboot.config import CBPS_TOL, IRLS_TOL
from causalboot.simulation import generate_dgm

from oracles import design

FITS = [(fit_logistic_irls, IRLS_TOL), (fit_cbps, CBPS_TOL)]
KINDS = ("random", "near_separated", "collinear", "binary")


def hostile_design(seed, b, p, kind, noise, scale):
    """Covariates and a treatment vector holding both arms.

    ``near_separated`` assigns treatment by the sign of the first
    covariate plus ``noise`` (0 separates completely); ``collinear``
    makes the last covariate an affine copy of the first; ``binary``
    draws 0/1 covariates, so a cell may hold one arm only.  ``scale``
    multiplies every covariate, which scales the coefficients by its
    inverse.
    """
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((b, p))
    if kind == "binary":
        x = (gen.random((b, p)) < 0.5).astype(float)
    if kind == "collinear" and p >= 2:
        x[:, -1] = 2.0 * x[:, 0] - 1.0
    if kind == "near_separated":
        w = (x[:, 0] + noise * gen.standard_normal(b) > 0).astype(int)
    else:
        w = (gen.random(b) < expit(x.sum(axis=1))).astype(int)
    w[0], w[1] = 0, 1
    return scale * x, w


class TestHostileDesigns:
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(8, 60),
        p=st.integers(1, 3),
        kind=st.sampled_from(KINDS),
        noise=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e2]),
    )
    @example(seed=3, b=40, p=2, kind="collinear", noise=0.0, scale=1.0)
    @example(seed=18, b=12, p=1, kind="binary", noise=0.0, scale=1.0)
    @example(seed=21, b=40, p=1, kind="near_separated", noise=0.1, scale=1e-3)
    @settings(max_examples=200, deadline=None)
    def test_fit_returns_valid_scores_or_raises_typed(self, seed, b, p, kind, noise, scale):
        # a singular solve must surface as SeparationError, never as a raw
        # LinAlgError, and a returned fit must lie inside the separation bound
        x, w = hostile_design(seed, b, p, kind, noise, scale)
        for fit_fn, tol in FITS:
            try:
                fit = fit_fn(x, w)
            except EstimationError:
                continue
            assert np.isfinite(fit.scores).all()
            assert ((fit.scores > 0.0) & (fit.scores < 1.0)).all()
            eta = design(x) @ fit.coefficients
            assert np.max(np.abs(eta)) <= propensity._SEPARATION_ETA
            if fit.converged:
                assert fit.objective < tol

    def test_duplicated_covariate_is_a_separation_error(self):
        x, w = hostile_design(3, 40, 2, "collinear", 0.0, 1.0)
        for fit_fn, _ in FITS:
            with pytest.raises(SeparationError, match="singular Jacobian"):
                fit_fn(x, w)

    def test_diverging_coefficients_stop_at_the_norm_bound(self):
        # complete separation: the linear predictor's max-norm grows by up
        # to about 30 per Newton step whatever the covariate's units, so
        # its bound is crossed long before the fitted scores saturate
        z = np.random.default_rng(1).standard_normal(40)
        w = (z > 0).astype(int)
        for scale in (1e-3, 1.0, 1e3):
            for fit_fn, _ in FITS:
                with pytest.raises(SeparationError, match="linear predictor"):
                    fit_fn(scale * z.reshape(-1, 1), w)

    def test_covariate_in_small_units_is_not_separated(self):
        # x = 1e-5 * z needs a slope near 1e5; the fit must not read that
        # as separation, and its scores are those of the x = z fit
        gen = np.random.default_rng(0)
        z = gen.standard_normal(2000)
        w = (gen.random(2000) < expit(z)).astype(int)
        for fit_fn, _ in FITS:
            unit = fit_fn(z.reshape(-1, 1), w)
            small = fit_fn(1e-5 * z.reshape(-1, 1), w)
            assert small.converged
            np.testing.assert_allclose(small.scores, unit.scores, rtol=0, atol=1e-6)


class TestStoppingRules:
    @pytest.mark.parametrize("fit_fn,tol", FITS)
    def test_iteration_cap_reports_not_converged(self, monkeypatch, dgm_table, fit_fn, tol):
        cap = "CBPS_MAX_ITER" if fit_fn is fit_cbps else "IRLS_MAX_ITER"
        monkeypatch.setattr(propensity, cap, 1)
        fit = fit_fn(dgm_table.x, dgm_table.w)
        assert not fit.converged
        assert fit.iterations == 1
        assert fit.objective >= tol

    def test_cbps_converges_in_few_newton_steps(self, dgm_table):
        fit = fit_cbps(dgm_table.x, dgm_table.w)
        assert fit.converged
        assert fit.iterations <= 4

    def test_cbps_subsets_all_converge(self):
        table = generate_dgm(2000, cbrng.substream(31, cbrng.DOMAIN_DATASET, 0))
        config = BlbConfig(gamma=0.7, subsets=10, replicates=20, seed=31, estimator="cbps", threads=1)
        result = run_blb(table, config)
        assert result.diagnostics["nonconverged_fits"] == 0
        assert all(0 < e.fit.iterations <= 4 for e in result.subsets)

    def test_cbps_checks_its_inputs_once(self, dgm_table):
        # the IRLS start runs on the design the balancing fit checked
        with mock.patch.object(
            propensity, "_check_fit_inputs", wraps=propensity._check_fit_inputs
        ) as check:
            fit_cbps(dgm_table.x, dgm_table.w)
        assert check.call_count == 1

    def test_cbps_builds_a_jacobian_only_for_a_step(self, monkeypatch, dgm_table):
        # X'DX is built once per step taken, never at the converged iterate
        builds = []
        balance = propensity._balance_conditions

        def counted(X, w, beta, jacobian=False):
            if not jacobian:
                return balance(X, w, beta)
            g, build = balance(X, w, beta, jacobian=True)
            return g, lambda: builds.append(1) or build()

        monkeypatch.setattr(propensity, "_balance_conditions", counted)
        fit = fit_cbps(dgm_table.x, dgm_table.w)
        assert fit.converged and fit.iterations >= 1
        assert len(builds) == fit.iterations

    def test_cbps_steps_meet_the_armijo_condition(self, monkeypatch):
        # one covariate cell holds treated rows only, so the balance
        # conditions have no root and the merit 0.5*||g||^2 flattens out
        # as that cell's scores approach 1; a step is taken only when it
        # cuts the merit by the Armijo amount 2e-4 * scale * merit
        x = np.array([0.0] * 10 + [1.0] * 4).reshape(-1, 1)
        w = np.array([0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1])
        calls = []
        balance = propensity._balance_conditions

        def recorded(X, w, beta, jacobian=False):
            out = balance(X, w, beta, jacobian)
            g = out[0] if jacobian else out
            calls.append((jacobian, 0.5 * float(g @ g)))
            return out

        monkeypatch.setattr(propensity, "_balance_conditions", recorded)
        with pytest.raises(SeparationError):
            fit_cbps(x, w)
        # each Jacobian call is at an iterate; the merit calls after it are
        # the candidates at scales 1, 1/2, ..., the last of them taken
        # unless all 40 were refused
        iterates = [i for i, (jac, _) in enumerate(calls) if jac]
        steps = 0
        for start, end in zip(iterates, iterates[1:] + [len(calls)]):
            tried = end - start - 1
            if 0 < tried < 40:
                steps += 1
                f_old, f_new = calls[start][1], calls[end - 1][1]
                assert f_new <= f_old * (1.0 - 2e-4 * 0.5 ** (tried - 1))
        assert steps >= 1
