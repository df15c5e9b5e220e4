"""Propensity-score fitting and normalized arm weights.

Three in-package estimators produce per-row scores pi_hat(X): logistic
regression fit by iteratively reweighted least squares, a just-identified
covariate-balancing fit solved by damped Newton on the balance conditions,
from the IRLS solution, and the marginal treatment rate; both regression
fits run one damped-Newton loop, which evaluates each iterate once, from
one X beta.  The design X = [1, x] is never formed: its products are
computed from the covariate columns, with the intercept apart, as
fixed-order numpy reductions rather than BLAS calls.  A fourth path
loads scores computed by an external tool.
Scores are then truncated and turned into the normalized
inverse-propensity weights that drive the resampling engine:

    w1_i = (1/pi_i) / sum_treated(1/pi_j)
    w0_i = (1/(1-pi_i)) / sum_control(1/(1-pi_j))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import CBPS_MAX_ITER, CBPS_TOL, IRLS_MAX_ITER, IRLS_TOL, NUL_FREE, PATH, check
from .errors import DataError, DegenerateSubsetError, EstimationError, SeparationError

# Linear-predictor max-norm max|X beta| beyond which a logistic fit is
# declared separated (a score within 4e-44 of 0 or 1).  Bounding X beta
# rather than beta leaves the guard independent of the covariates' units.
_SEPARATION_ETA = 100.0
# A fit whose probabilities all match the outcomes this closely is a
# perfect classifier: separation that stops short of the predictor bound.
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


def expit(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)).

    It is exactly 0.0 below about -709.8, where exp overflows, and
    exactly 1.0 above about 36.7, without a warning; the fits call a
    score of exactly 0 or 1 separation.  As with a ufunc, ``out`` (a
    float64 array of z's shape, possibly ``z`` itself) receives the
    result; by default a new array does.
    """
    with np.errstate(over="ignore"):
        # in place, one array: the same roundings as 1 / (1 + exp(-z))
        out = np.negative(z, out=np.empty(np.shape(z)) if out is None else out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def require_both_arms(w: np.ndarray) -> int:
    """The number of treated rows of the 0/1 vector ``w``.

    Raises ``DegenerateSubsetError`` when ``w`` holds a single arm: the
    fits and ``normalized_weights``, which ``order_subset`` calls, all
    give this one reason for it.
    """
    w = np.asarray(w)
    n1 = int(w.sum())
    if n1 == 0 or n1 == w.shape[0]:
        raise DegenerateSubsetError("both treatment arms must be nonempty")
    return n1


def _check_fit_inputs(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariates as one contiguous p x b array of columns and ``w``
    as floats, once the rows match, both arms are present, rows
    outnumber parameters and no column of ``x`` is constant: every value
    equal, or a standard deviation of 0, as at 1e-300, where the spread
    underflows.  The SD alone misses a column of 0.1 at b=100, whose mean
    rounds away from 0.1.

    The fits handle the intercept apart from these columns, so they hold
    no b x (p+1) design.  A b x p ``x`` that is the transpose of
    contiguous columns, as ``engine.fit_scores`` passes, is not copied.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    w = np.asarray(w)
    b, p = x.shape
    if w.shape[0] != b:
        raise EstimationError("treatment vector length does not match covariate rows")
    require_both_arms(w)
    if b <= p + 1:
        raise EstimationError(f"need more rows than parameters: b={b}, p={p}")
    columns = np.ascontiguousarray(x.T)
    with np.errstate(all="ignore"):  # the SD of huge covariates overflows to inf
        constant = [j for j, column in enumerate(columns)
                    if column.max() == column.min() or column.std() == 0.0]
    if constant:
        raise EstimationError(
            f"covariate column {constant[0]} is constant; drop it (intercept is implicit)"
        )
    return columns, w.astype(np.float64)


# The products of the design X = [1, x] that the fits need, from the
# columns of x.  Each is a fixed-order np.einsum reduction, not a BLAS
# call, so its bits do not depend on the BLAS thread pool.
def _linear_predictor(columns: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X beta, a new b-vector."""
    eta = np.einsum("ji,j->i", columns, beta[1:])
    eta += beta[0]
    return eta


def _design_dot(columns: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X'v: the sum of v, then each column's dot product with v."""
    out = np.empty(columns.shape[0] + 1)
    out[0] = np.einsum("i->", v)
    np.einsum("ji,i->j", columns, v, out=out[1:])
    return out


def _design_gram(columns: np.ndarray, d: np.ndarray) -> np.ndarray:
    """X'DX with D = diag(d), a row of its upper triangle at a time:
    row j holds the dot products of d * x_j with x_j, ..., x_p, so one
    weighted column is alive at a time, never a weighted copy of x."""
    gram = np.empty((columns.shape[0] + 1,) * 2)
    gram[0] = gram[:, 0] = _design_dot(columns, d)
    for j, column in enumerate(columns, start=1):
        gram[j, j:] = gram[j:, j] = np.einsum("ki,i->k", columns[j - 1 :], column * d)
    return gram


def _newton(method, evaluate, beta, accept, tol, max_iter, at_root=None) -> PropensityFit:
    """Damped Newton iteration shared by both regression fits.

    ``evaluate(beta)`` computes all the loop uses at ``beta`` from one
    X beta: ``(merit, eta_max, residual, jacobian, scores)``, with
    ``eta_max`` = max|X beta|, ``scores`` = expit(X beta) and
    ``jacobian()`` building the residual's Jacobian J from the same
    scores.  Each iterate is evaluated once.  The fit converges at the
    first iterate whose residual max-norm is below ``tol``, where
    ``at_root(scores)``, if given, may still refuse it.  Otherwise the
    step solves J step = -residual and is halved until
    ``accept(candidate merit, merit, scale)`` holds, and the accepted
    candidate's evaluation is the next iterate's; when 40 halvings find
    no such candidate the current point is returned as not converged.
    A candidate with ``eta_max`` beyond ``_SEPARATION_ETA``, a singular
    Jacobian or a fitted score of exactly 0 or 1 raises
    ``SeparationError``; a step that is not finite (X'X overflows on
    covariates near 1e200) raises ``EstimationError``.  The fit's
    ``objective`` is the residual norm at the returned coefficients.
    """
    converged, iterations = False, max_iter
    with np.errstate(all="ignore"):  # a non-finite step raises below
        value, eta_max, residual, jacobian, scores = evaluate(beta)
        for it in range(max_iter + 1):
            norm = float(np.max(np.abs(residual)))
            if norm < tol:
                if at_root is not None:
                    at_root(scores)
                converged, iterations = True, it
                break
            try:
                step = np.linalg.solve(jacobian(), -residual)
            except np.linalg.LinAlgError as exc:
                raise SeparationError(f"singular Jacobian at iteration {it + 1}") from exc
            if not np.isfinite(step).all():
                raise EstimationError(f"Newton step is not finite at iteration {it + 1}")
            if it == max_iter:
                break
            scale = 1.0
            for _ in range(40):
                cand = beta + scale * step
                cand_eval = evaluate(cand)
                if accept(cand_eval[0], value, scale):
                    break
                scale *= 0.5
            else:
                iterations = it + 1
                break
            beta, (value, eta_max, residual, jacobian, scores) = cand, cand_eval
            if eta_max > _SEPARATION_ETA:
                raise SeparationError(
                    f"linear predictor exceeded {_SEPARATION_ETA:g}; data are separated"
                )
    if not ((scores > 0.0) & (scores < 1.0)).all():
        raise SeparationError("fitted probabilities reached 0 or 1; data are separated")
    return PropensityFit(
        scores=scores, coefficients=beta, method=method,
        converged=converged, iterations=iterations, objective=norm,
    )


def fit_logistic_irls(x: np.ndarray, w: np.ndarray) -> PropensityFit:
    """Fit a logistic propensity model by Newton/IRLS.

    Convergence is declared when the max-norm of the score vector
    X'(w - pi) falls below ``config.IRLS_TOL`` within
    ``config.IRLS_MAX_ITER`` steps.  Divergence of the linear predictor
    signals perfect separation and raises ``SeparationError``.
    """
    return _irls(*_check_fit_inputs(x, w))


def _likelihood_equations(columns: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """IRLS's evaluation at ``beta`` for ``_newton``: the log-likelihood,
    max|X beta|, the score X'(w - pi), its Jacobian -X'WX with
    W = pi(1 - pi), and pi."""
    eta = _linear_predictor(columns, beta)
    # log L = sum(w*eta - log(1 + exp(eta))), stable via logaddexp
    softplus = np.logaddexp(0.0, eta)
    loglik = float((w * eta - softplus).sum())
    eta_max = float(np.abs(eta).max())
    pi = expit(eta, out=eta)
    score = _design_dot(columns, np.subtract(w, pi, out=softplus))
    return loglik, eta_max, score, lambda: -_design_gram(columns, pi * (1.0 - pi)), pi


def _irls(columns: np.ndarray, w: np.ndarray) -> PropensityFit:
    """The IRLS fit on checked covariate columns and float 0/1 vector ``w``."""
    beta = np.zeros(columns.shape[0] + 1)
    # Start at the intercept-only MLE so the first step is well scaled.
    rate = w.mean()
    beta[0] = np.log(rate / (1.0 - rate))

    def at_root(pi):
        if float(np.max(np.abs(w - pi))) < _SATURATION_TOL:
            raise SeparationError(
                "fitted probabilities saturated at the outcomes; data are separated"
            )

    return _newton(
        "logistic", lambda beta: _likelihood_equations(columns, w, beta), beta,
        # a step is taken unless the log-likelihood falls
        lambda new, old, scale: new >= old - 1e-12 * abs(old),
        IRLS_TOL, IRLS_MAX_ITER, at_root,
    )


def _balance_conditions(columns: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """The balancing fit's evaluation at ``beta`` for ``_newton``: the
    merit 0.5*||g||^2, max|X beta|, the just-identified ATE balance
    moments g(beta), intercept included, their Jacobian
    J(beta) = -X'DX/b with D = w(1 - pi)/pi + (1 - w)pi/(1 - pi), and pi.
    Inside g and J, pi is clipped to [_PROB_FLOOR, 1 - _PROB_FLOOR].
    """
    b = columns.shape[1]
    eta = _linear_predictor(columns, beta)
    eta_max = float(np.abs(eta).max())
    scores = expit(eta, out=eta)
    pi = scores.clip(_PROB_FLOOR, 1.0 - _PROB_FLOOR)
    g = _design_dot(columns, w / pi - (1.0 - w) / (1.0 - pi)) / b

    def jacobian():
        d = w * (1.0 - pi) / pi + (1.0 - w) * pi / (1.0 - pi)
        return -_design_gram(columns, d) / b

    return 0.5 * float(np.einsum("j,j->", g, g)), eta_max, g, jacobian, scores


def fit_cbps(x: np.ndarray, w: np.ndarray) -> PropensityFit:
    """Covariate-balancing propensity fit (just-identified, logistic link).

    Finds coefficients making the inverse-propensity-weighted covariate
    sums (intercept included) agree across arms:

        g(beta) = (1/b) sum_i [w_i x_i / pi_i - (1 - w_i) x_i / (1 - pi_i)] = 0

    solved by damped Newton on the balance conditions, from the IRLS
    solution.  Each step solves J(beta) step = -g(beta) with the exact
    Jacobian J = -X'DX/b, D > 0, so it descends 0.5*||g||^2, and is
    halved until that merit passes an Armijo test.  Convergence requires
    ||g||_inf < ``config.CBPS_TOL`` within ``config.CBPS_MAX_ITER`` steps.
    """
    columns, w = _check_fit_inputs(x, w)
    return _newton(
        "cbps", lambda beta: _balance_conditions(columns, w, beta), _irls(columns, w).coefficients,
        # Armijo with c = 1e-4: along the Newton step the merit f has
        # slope -||g||^2 = -2f
        lambda new, old, scale: new <= old * (1.0 - 2e-4 * scale),
        CBPS_TOL, CBPS_MAX_ITER,
    )


def marginal_propensity(w: np.ndarray) -> PropensityFit:
    """Constant scores equal to the treated fraction (randomized designs)."""
    w = np.asarray(w)
    b = w.shape[0]
    rate = require_both_arms(w) / b
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
        return fit
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
    require_both_arms(w)
    treated = w == 1
    w1 = np.divide(1.0, scores[treated])
    w0 = scores[~treated]
    np.subtract(1.0, w0, out=w0)
    np.divide(1.0, w0, out=w0)
    w1 /= w1.sum()
    w0 /= w0.sum()
    return ArmWeights(w0=w0, w1=w1)


def load_external_scores(path, expected: int) -> PropensityFit:
    """Read externally computed scores, one real per line.

    The file must be UTF-8 text (a leading byte-order mark is skipped)
    and hold exactly ``expected`` values, each strictly inside (0, 1),
    aligned with the rows they score.
    """
    check("path", path, PATH, NUL_FREE)
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
