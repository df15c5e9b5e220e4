"""The damped-Newton loop both propensity fits run: stopping rules, typed
failures on hostile designs, the balancing fit's line search, and the
stacked loop's batches, each member of which is its fit alone."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from causalboot import (BlbConfig, DegenerateSubsetError, EstimationError, SeparationError, fit_cbps,
                        fit_logistic_irls, run_blb)
from causalboot import engine, propensity
from causalboot import rng as cbrng
from causalboot.cli import main
from causalboot.config import CBPS_TOL, IRLS_TOL
from causalboot.propensity import BatchFit, PropensityFit
from causalboot.simulation import generate_dgm

from oracles import design
from test_cli import export_dgm_csv

FITS = [(fit_logistic_irls, IRLS_TOL), (fit_cbps, CBPS_TOL)]
KINDS = ("random", "near_separated", "collinear", "binary")


@pytest.fixture
def newton_log(monkeypatch):
    """Each ``propensity._newton`` call's method and log, in call order,
    for fits of one subset (a batch of one).  A log lists (code,
    residual) pairs: e an evaluation, with its residual; j a Jacobian
    built; A or r a candidate accepted or refused."""
    calls, newton = [], propensity._newton

    def traced(method, evaluate, jacobian, accept, *rest, **kwargs):
        log = []
        calls.append((method, log))

        def traced_evaluate(*args):
            merit, eta_max, residual, scores = evaluate(*args)
            log.append(("e", residual[0].copy()))  # the loop may write over it later
            return merit, eta_max, residual, scores

        def traced_jacobian(*args):
            log.append(("j", None))
            return jacobian(*args)

        def traced_accept(*args):
            accepted = accept(*args)
            log.append(("A" if accepted[0] else "r", None))
            return accepted

        return newton(method, traced_evaluate, traced_jacobian, traced_accept, *rest, **kwargs)

    monkeypatch.setattr(propensity, "_newton", traced)
    return calls


def last_log(calls, method):
    """The log of the last ``_newton`` call for ``method``."""
    return [log for name, log in calls if name == method][-1]


def codes(log):
    return "".join(code for code, _ in log)


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

    def test_cbps_builds_a_jacobian_only_for_a_step(self, newton_log, dgm_table):
        # X'DX is built once per step taken, never at the converged iterate
        fit = fit_cbps(dgm_table.x, dgm_table.w)
        assert fit.converged and fit.iterations >= 1
        assert codes(last_log(newton_log, "cbps")).count("j") == fit.iterations

    @pytest.mark.parametrize("fit_fn", [fit_logistic_irls, fit_cbps])
    def test_each_iterate_is_evaluated_once(self, newton_log, dgm_table, fit_fn):
        # one evaluation at the start and one per candidate tried; a
        # Jacobian (for IRLS, minus the Fisher information) before each
        # step's first candidate, and none at the converged iterate
        fit = fit_fn(dgm_table.x, dgm_table.w)
        pattern = codes(last_log(newton_log, fit.method))
        assert fit.converged and fit.iterations >= 1
        assert pattern.count("e") == 1 + pattern.count("A") + pattern.count("r")
        assert re.fullmatch(r"e(j(er)*eA)*", pattern)
        assert pattern.count("j") == pattern.count("A") == fit.iterations

    def test_cbps_steps_meet_the_armijo_condition(self, newton_log):
        # one covariate cell holds treated rows only, so the balance
        # conditions have no root and the merit 0.5*||g||^2 flattens out
        # as that cell's scores approach 1; a step is taken only when it
        # cuts the merit by the Armijo amount 2e-4 * scale * merit
        x = np.array([0.0] * 10 + [1.0] * 4).reshape(-1, 1)
        w = np.array([0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1])
        with pytest.raises(SeparationError):
            fit_cbps(x, w)
        # the merit at each iterate and at each candidate, from its g; the
        # candidates after a Jacobian are at scales 1, 1/2, ...
        steps, tried, f_old = 0, 0, None
        for code, g in last_log(newton_log, "cbps"):
            if code == "e":
                f_new = 0.5 * float(g @ g)
                f_old = f_new if f_old is None else f_old
            elif code == "j":
                tried = 0
            else:
                tried += 1
                if code == "A":
                    assert f_new <= f_old * (1.0 - 2e-4 * 0.5 ** (tried - 1))
                    steps, f_old = steps + 1, f_new
        assert steps >= 1

    def test_refused_line_search_returns_the_current_point(self, monkeypatch, dgm_table):
        # from the second step on the solve is reversed, so each step
        # climbs the merit 0.5*||g||^2 and all 40 halvings are refused:
        # the fit stops where its first step left it
        with mock.patch.object(propensity, "CBPS_MAX_ITER", 1):
            one_step = fit_cbps(dgm_table.x, dgm_table.w)
        solve, solves = np.linalg.solve, []

        def reversed_after_first(a, b):
            solves.append(1)
            return solve(a, b) if len(solves) == 1 else -solve(a, b)

        start = fit_logistic_irls(dgm_table.x, dgm_table.w)
        monkeypatch.setattr(propensity, "_irls", lambda columns, w, ends: [start])
        monkeypatch.setattr(np.linalg, "solve", reversed_after_first)
        fit = fit_cbps(dgm_table.x, dgm_table.w)
        assert not fit.converged
        assert fit.iterations == 2
        np.testing.assert_array_equal(fit.coefficients, one_step.coefficients)
        np.testing.assert_array_equal(fit.scores, one_step.scores)
        X, w = design(dgm_table.x), dgm_table.w
        pi = expit(X @ fit.coefficients)
        g = X.T @ (w / pi - (1 - w) / (1 - pi)) / len(w)
        assert fit.objective == pytest.approx(np.max(np.abs(g)), rel=1e-9)
        assert fit.objective >= CBPS_TOL


# Members a batch mixes with ordinary ones: a single arm, a constant
# column and complete separation, besides the kinds of hostile_design.
MEMBER_KINDS = KINDS + ("single_arm", "constant", "separated")


def member_design(seed, b, p, kind, scale):
    """One member's covariates and treatment, by ``kind``."""
    if kind == "separated":
        return hostile_design(seed, b, p, "near_separated", 0.0, scale)
    x, w = hostile_design(seed, b, p, kind if kind in KINDS else "random", 0.1, scale)
    if kind == "single_arm":
        w[:] = seed % 2
    if kind == "constant":
        x[:, seed % p] = 0.1 * scale
    return x, w


def same_fit(got, alone):
    """Whether a batch member's fit is, bit for bit, its fit alone."""
    return (
        type(got) is PropensityFit
        and got.scores.tobytes() == alone.scores.tobytes()
        and got.coefficients.tobytes() == alone.coefficients.tobytes()
        and (got.method, got.converged, got.iterations, got.clamped)
        == (alone.method, alone.converged, alone.iterations, alone.clamped)
        and repr(got.objective) == repr(alone.objective)
    )


class TestBatches:
    @given(
        seed=st.integers(0, 2**32 - 13),
        m=st.integers(1, 12),
        p=st.integers(1, 4),
        b=st.integers(3, 300),
        tiny=st.integers(0, 9),
        kinds=st.lists(st.sampled_from(MEMBER_KINDS), min_size=12, max_size=12),
        scale=st.sampled_from([1e-3, 1.0, 1e2, 1e200]),  # X'X overflows at 1e200
    )
    @example(seed=3, m=3, p=2, b=40, tiny=1, kinds=["random", "collinear"] + ["random"] * 10,
             scale=1.0)
    @example(seed=5, m=4, p=3, b=4, tiny=0, kinds=["random", "single_arm"] * 6, scale=1.0)
    @settings(max_examples=150, deadline=None)
    def test_each_member_is_its_fit_alone(self, seed, m, p, b, tiny, kinds, scale):
        # one draw in ten gives every member b <= p + 1 rows, too few to
        # fit; a member that fails raises its fit alone's error and message
        b = 2 + b % p if tiny == 0 else max(b, p + 2)
        members = [member_design(seed + i, b, p, kinds[i], scale) for i in range(m)]
        x = np.stack([x for x, _ in members])
        w = np.stack([w for _, w in members])
        for fit_fn in (fit_logistic_irls, fit_cbps):
            batch = fit_fn(x, w)
            assert isinstance(batch, BatchFit) and len(batch.fits) == m
            iterations = 0
            for (x_i, w_i), got in zip(members, batch.fits):
                try:
                    alone = fit_fn(x_i, w_i)
                except EstimationError as exc:
                    assert (type(got), str(got)) == (type(exc), str(exc))
                    continue
                assert same_fit(got, alone)
                iterations += alone.iterations
            assert batch.iterations == iterations

    def test_a_batch_of_one_copies_no_design(self, monkeypatch):
        # the stack a single fit builds views the covariates it was given
        x = generate_dgm(500, cbrng.substream(7, cbrng.DOMAIN_DATASET, 0)).x.T.copy().T
        columns, _, errors = propensity._check_fit_inputs(x, np.arange(500) % 2)
        assert errors == [None] and np.shares_memory(columns, x)
        # nor does a batch copy it when members stop: an ordinary member,
        # one with a single arm (no fit) and one that separates, given as
        # the transpose of a contiguous (m, p, b) stack, as the engine does
        members = [member_design(10 + i, 60, 2, kind, 1.0)
                   for i, kind in enumerate(("random", "single_arm", "separated"))]
        stack = np.ascontiguousarray(np.stack([x.T for x, _ in members]))
        w = np.stack([w for _, w in members])
        seen, newton = [], propensity._newton

        def traced(method, evaluate, jacobian, *rest, **kwargs):
            def traced_evaluate(columns, *args):
                seen.append(np.shares_memory(columns, stack))
                return evaluate(columns, *args)

            def traced_jacobian(columns, *args):
                seen.append(np.shares_memory(columns, stack))
                return jacobian(columns, *args)

            return newton(method, traced_evaluate, traced_jacobian, *rest, **kwargs)

        monkeypatch.setattr(propensity, "_newton", traced)
        for fit_fn in (fit_logistic_irls, fit_cbps):
            fits = fit_fn(stack.transpose(0, 2, 1), w).fits
            assert [type(fit) for fit in fits] == [
                PropensityFit, DegenerateSubsetError, SeparationError]
        assert seen and all(seen)


def analyze_argv(csv_path, method, threads, out):
    # at a balance threshold of 0.05, 5 of the 10 logistic subsets redraw
    # (8 redraws), so members fail and retry together as a smaller batch
    return ["analyze", "--input", str(csv_path), "--outcome", "y", "--treatment", "w",
            "--covariates", "x1,x2", "--method", method, "--gamma", "0.7", "--subsets", "10",
            "--replicates", "30", "--seed", "5", "--redraw-on-imbalance",
            "--balance-threshold", "0.05", "--max-redraws", "30",
            "--threads", str(threads), "--output", str(out)]


def simulate_argv(threads, out):
    return ["simulate", "--method", "cbps", "--n", "2000", "--replications", "10",
            "--subsets", "10", "--replicates", "20", "--seed", "5", "--threads", str(threads),
            "--output", str(out)]


def test_payloads_do_not_depend_on_the_batches(tmp_path, monkeypatch):
    # n = 2,000 and gamma = 0.7 give b = 205: at the default row cap ten
    # subsets form one batch on one thread and 2 or 4 batches on 2 or 4;
    # a cap of one row puts every subset alone in its batch
    csv_path = export_dgm_csv(tmp_path / "data.csv", n=2000, seed=8)
    checked = []

    def recorded(fit_fn):
        def fit(x, w):
            batch = fit_fn(x, w)
            alone = []
            for x_i, w_i in zip(x, w):
                try:
                    alone.append(fit_fn(x_i, w_i).iterations)
                except EstimationError:
                    pass
            checked.append(batch.iterations == sum(alone))
            return batch
        return fit

    monkeypatch.setattr(engine, "fit_logistic_irls", recorded(fit_logistic_irls))
    monkeypatch.setattr(engine, "fit_cbps", recorded(fit_cbps))
    runs = [(f"analyze {method}", lambda t, out, method=method: analyze_argv(
        csv_path, method, t, out), "result.json") for method in ("logistic", "cbps")]
    runs.append(("simulate cbps", simulate_argv, "summary.json"))
    for name, argv, document in runs:
        payloads = set()
        for cap in (engine._BATCH_ROWS, 1):
            monkeypatch.setattr(engine, "_BATCH_ROWS", cap)
            for threads in (1, 2, 4):
                out = tmp_path / f"{name}-{cap}-{threads}".replace(" ", "-")
                assert main(argv(threads, out)) == 0
                payload = json.loads((out / document).read_text())["payload"]
                payloads.add(json.dumps(payload, sort_keys=True))
        assert len(payloads) == 1, name
    assert checked and all(checked)
