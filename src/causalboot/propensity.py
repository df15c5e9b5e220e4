"""Propensity-score fitting and normalized arm weights.

Three in-package estimators produce per-row scores pi_hat(X): logistic
regression fit by iteratively reweighted least squares, a just-identified
covariate-balancing fit solved by BFGS on the squared balance conditions,
and the marginal treatment rate.  A fourth path loads scores computed by
an external tool.  Scores are then truncated and turned into the
normalized inverse-propensity weights that drive the resampling engine:

    w1_i = (1/pi_i) / sum_treated(1/pi_j)
    w0_i = (1/(1-pi_i)) / sum_control(1/(1-pi_j))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .config import CBPS_MAX_ITER, CBPS_TOL, IRLS_MAX_ITER, IRLS_TOL
from .errors import DataError, EstimationError, SeparationError

# Coefficient max-norm beyond which a logistic fit is declared separated.
_SEPARATION_NORM = 1e4
# A fit whose probabilities all match the outcomes this closely is a
# perfect classifier: separation that stops short of the norm bound.
_SATURATION_TOL = 1e-5
# Clip for propensities inside optimization objectives only; final scores
# are bounded by truncation instead.
_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PropensityFit:
    """Fitted scores plus solver diagnostics.

    ``objective`` is the final max-norm of the solver's criterion (score
    vector for IRLS, balance conditions for the balancing fit, 0 for the
    trivial methods).  ``clamped`` counts rows clipped by truncation.
    """

    scores: np.ndarray
    coefficients: np.ndarray
    method: str
    converged: bool
    iterations: int
    objective: float
    clamped: int = 0


@dataclass(frozen=True)
class ArmWeights:
    """Normalized inverse-propensity weights, one simplex per arm."""

    w0: np.ndarray
    w1: np.ndarray

    def __post_init__(self):
        for name, arr in (("w0", self.w0), ("w1", self.w1)):
            if arr.size == 0:
                raise EstimationError(f"{name} is empty")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise EstimationError(f"{name} has negative or non-finite entries")
            if abs(arr.sum() - 1.0) > 1e-12:
                raise EstimationError(f"{name} does not sum to 1")


def _design(x: np.ndarray) -> np.ndarray:
    """Prepend the intercept column."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise EstimationError("covariate matrix must be 2-dimensional")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _check_fit_inputs(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    w = np.asarray(w)
    b, p = x.shape
    if w.shape[0] != b:
        raise EstimationError("treatment vector length does not match covariate rows")
    n1 = int(w.sum())
    if n1 == 0 or n1 == b:
        raise EstimationError("both treatment arms must be nonempty")
    if b <= p + 1:
        raise EstimationError(f"need more rows than parameters: b={b}, p={p}")
    if p > 0 and (x.std(axis=0) == 0.0).any():
        j = int(np.flatnonzero(x.std(axis=0) == 0.0)[0])
        raise EstimationError(f"covariate column {j} is constant; drop it (intercept is implicit)")
    return x, w.astype(np.float64)


def _loglik(eta: np.ndarray, w: np.ndarray) -> float:
    # log L = sum(w*eta - log(1 + exp(eta))), stable via logaddexp
    return float(np.sum(w * eta - np.logaddexp(0.0, eta)))


def fit_logistic_irls(
    x: np.ndarray,
    w: np.ndarray,
    tol: float = IRLS_TOL,
    max_iter: int = IRLS_MAX_ITER,
) -> PropensityFit:
    """Fit a logistic propensity model by Newton/IRLS.

    Convergence is declared when the max-norm of the score vector
    X'(w - pi) falls below ``tol``.  Divergence of the coefficient norm
    signals perfect separation and raises ``SeparationError``.
    """
    x, w = _check_fit_inputs(x, w)
    X = _design(x)
    b, m = X.shape
    beta = np.zeros(m)
    # Start at the intercept-only MLE so the first step is well scaled.
    rate = w.mean()
    beta[0] = np.log(rate / (1.0 - rate))

    eta = X @ beta
    ll = _loglik(eta, w)
    score_norm = np.inf
    for it in range(1, max_iter + 1):
        pi = expit(eta)
        score = X.T @ (w - pi)
        score_norm = float(np.max(np.abs(score)))
        if score_norm < tol:
            if float(np.max(np.abs(w - pi))) < _SATURATION_TOL:
                raise SeparationError(
                    "fitted probabilities saturated at the outcomes; data are separated"
                )
            return PropensityFit(
                scores=pi, coefficients=beta, method="logistic",
                converged=True, iterations=it - 1, objective=score_norm,
            )
        weight = pi * (1.0 - pi)
        hessian = X.T @ (X * weight[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(
                f"singular information matrix at iteration {it}"
            ) from exc
        # Halve the step until the log-likelihood does not decrease.
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            cand_eta = X @ cand
            cand_ll = _loglik(cand_eta, w)
            if cand_ll >= ll - 1e-12 * abs(ll):
                break
            scale *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
        if float(np.max(np.abs(beta))) > _SEPARATION_NORM:
            raise SeparationError(
                f"coefficient norm exceeded {_SEPARATION_NORM:g}; data are separated"
            )
    return PropensityFit(
        scores=expit(eta), coefficients=beta, method="logistic",
        converged=False, iterations=max_iter, objective=score_norm,
    )


def _balance_conditions(X: np.ndarray, w: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Just-identified ATE balance moments g(beta), intercept included."""
    b = X.shape[0]
    with np.errstate(divide="ignore", over="ignore"):
        pi = np.clip(expit(X @ beta), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        coef = w / pi - (1.0 - w) / (1.0 - pi)
    return (X.T @ coef) / b


def _balance_jacobian(X: np.ndarray, w: np.ndarray, beta: np.ndarray) -> np.ndarray:
    b = X.shape[0]
    pi = np.clip(expit(X @ beta), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    d = w * (1.0 - pi) / pi + (1.0 - w) * pi / (1.0 - pi)
    return -(X.T @ (X * d[:, None])) / b


def fit_cbps(
    x: np.ndarray,
    w: np.ndarray,
    tol: float = CBPS_TOL,
    max_iter: int = CBPS_MAX_ITER,
) -> PropensityFit:
    """Covariate-balancing propensity fit (just-identified, logistic link).

    Finds coefficients making the inverse-propensity-weighted covariate
    sums (intercept included) agree across arms:

        g(beta) = (1/b) sum_i [w_i x_i / pi_i - (1 - w_i) x_i / (1 - pi_i)] = 0

    solved by BFGS with backtracking line search on 0.5*||g(beta)||^2,
    with the exact analytic gradient J(beta)'g(beta), initialized at the
    IRLS solution.  Convergence requires ||g||_inf < ``tol``.
    """
    x, w = _check_fit_inputs(x, w)
    init = fit_logistic_irls(x, w)
    X = _design(x)
    m = X.shape[1]

    beta = init.coefficients.copy()
    g = _balance_conditions(X, w, beta)
    f = 0.5 * float(g @ g)
    grad = _balance_jacobian(X, w, beta) @ g
    H = np.eye(m)  # inverse-Hessian approximation

    g_norm = float(np.max(np.abs(g)))
    for it in range(1, max_iter + 1):
        if g_norm < tol:
            return PropensityFit(
                scores=expit(X @ beta), coefficients=beta, method="cbps",
                converged=True, iterations=it - 1, objective=g_norm,
            )
        direction = -H @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:  # lost positive definiteness; reset
            H = np.eye(m)
            direction = -grad
            slope = -float(grad @ grad)
        step = 1.0
        for _ in range(40):
            cand = beta + step * direction
            g_cand = _balance_conditions(X, w, cand)
            f_cand = 0.5 * float(g_cand @ g_cand)
            if np.isfinite(f_cand) and f_cand <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            # No acceptable step: report the best point found.
            return PropensityFit(
                scores=expit(X @ beta), coefficients=beta, method="cbps",
                converged=False, iterations=it, objective=g_norm,
            )
        grad_cand = _balance_jacobian(X, w, cand) @ g_cand
        s = step * direction
        yvec = grad_cand - grad
        sy = float(s @ yvec)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yvec)):
            rho = 1.0 / sy
            V = np.eye(m) - rho * np.outer(s, yvec)
            H = V @ H @ V.T + rho * np.outer(s, s)
        beta, g, f, grad = cand, g_cand, f_cand, grad_cand
        g_norm = float(np.max(np.abs(g)))
        if float(np.max(np.abs(beta))) > _SEPARATION_NORM:
            raise SeparationError(
                f"coefficient norm exceeded {_SEPARATION_NORM:g}; data are separated"
            )
    converged = g_norm < tol
    return PropensityFit(
        scores=expit(X @ beta), coefficients=beta, method="cbps",
        converged=converged, iterations=max_iter, objective=g_norm,
    )


def marginal_propensity(w: np.ndarray) -> PropensityFit:
    """Constant scores equal to the treated fraction (randomized designs)."""
    w = np.asarray(w)
    b = w.shape[0]
    n1 = int(w.sum())
    if n1 == 0 or n1 == b:
        raise EstimationError("both treatment arms must be nonempty")
    rate = n1 / b
    return PropensityFit(
        scores=np.full(b, rate), coefficients=np.empty(0), method="marginal",
        converged=True, iterations=0, objective=0.0,
    )


def truncate_scores(fit: PropensityFit, lo: float, hi: float) -> PropensityFit:
    """Clamp scores into [lo, hi], recording how many rows were clipped."""
    if not (0.0 <= lo < hi <= 1.0):
        raise EstimationError(f"truncation bounds must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    clipped = int(np.count_nonzero((fit.scores < lo) | (fit.scores > hi)))
    if clipped == 0:
        return dataclasses.replace(fit, clamped=fit.clamped)
    return dataclasses.replace(fit, scores=np.clip(fit.scores, lo, hi), clamped=fit.clamped + clipped)


def normalized_weights(fit: PropensityFit, w: np.ndarray) -> ArmWeights:
    """Per-arm normalized inverse-propensity weights.

    Requires scores strictly inside (0, 1); truncation with lo > 0 and
    hi < 1 guarantees this upstream.
    """
    w = np.asarray(w)
    scores = fit.scores
    if scores.shape[0] != w.shape[0]:
        raise EstimationError("scores length does not match treatment vector")
    if (scores <= 0.0).any() or (scores >= 1.0).any():
        raise EstimationError("scores must lie strictly inside (0, 1) before weighting")
    treated = w == 1
    if not treated.any() or treated.all():
        raise EstimationError("both treatment arms must be nonempty")
    inv1 = 1.0 / scores[treated]
    inv0 = 1.0 / (1.0 - scores[~treated])
    return ArmWeights(w0=inv0 / inv0.sum(), w1=inv1 / inv1.sum())


def load_external_scores(path, expected: int) -> PropensityFit:
    """Read externally computed scores, one real per line.

    The file must be UTF-8 text (a leading byte-order mark is skipped)
    and hold exactly ``expected`` values, each strictly inside (0, 1),
    aligned with the rows they score.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = [ln.strip() for ln in handle]
    except OSError as exc:
        raise DataError(f"cannot read scores file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"scores file {path} is not UTF-8 text: {exc.reason}") from None
    values = []
    for i, ln in enumerate(lines, start=1):
        if not ln:
            continue
        try:
            value = float(ln)
        except ValueError:
            raise DataError(f"non-numeric score {ln!r} at line {i} of {path}") from None
        if not np.isfinite(value):
            raise DataError(f"non-finite score {ln!r} at line {i} of {path}")
        values.append(value)
    if len(values) != expected:
        raise DataError(
            f"scores file {path} has {len(values)} values, expected {expected}"
        )
    scores = np.asarray(values)
    if (scores <= 0.0).any() or (scores >= 1.0).any():
        bad = scores[(scores <= 0.0) | (scores >= 1.0)][0]
        raise DataError(f"score {bad!r} outside (0, 1) in {path}")
    return PropensityFit(
        scores=scores, coefficients=np.empty(0), method="external",
        converged=True, iterations=0, objective=0.0,
    )
