"""Propensity-score fitting and normalized arm weights.

Three in-package estimators produce per-row scores pi_hat(X): logistic
regression fit by iteratively reweighted least squares, a just-identified
covariate-balancing fit solved by damped Newton on the balance conditions,
from the IRLS solution, and the marginal treatment rate; both regression
fits run one damped-Newton loop, which evaluates each iterate once, from
one X beta.  The loop runs a batch of subsets in lockstep, over a stack
of their covariate columns that keeps all its members for the whole
fit, a mask saying whose results still count; a single fit is a batch
of one, and each member's fit is bit for bit its fit alone.  The design X = [1, x] is
never formed: its products are computed from the covariate columns,
with the intercept apart, as fixed-order numpy reductions along each
member's rows rather than BLAS calls.  A fourth path loads scores
computed by an external tool.
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


@dataclass(frozen=True)
class BatchFit:
    """The propensity fits of a batch of subsets, in batch order: each
    member's ``PropensityFit``, or the ``EstimationError`` its fit
    raised."""

    fits: list

    @property
    def iterations(self) -> int:
        """The iterations of the members that fitted, summed."""
        return sum(fit.iterations for fit in self.fits if isinstance(fit, PropensityFit))

    def single(self) -> PropensityFit:
        """The fit of a batch of one, raised if it failed."""
        (fit,) = self.fits
        if isinstance(fit, EstimationError):
            raise fit
        return fit


def _check_fit_inputs(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The covariates as one contiguous (m, p, b) stack of columns, ``w``
    as floats and each member's input error, or None, once the rows
    match.  ``x`` is b x p (or a b-vector) with a b-vector ``w`` for one
    fit, a batch of one, or an (m, b, p) stack with an (m, b) ``w``.  A
    member fails unless both arms are present, rows outnumber parameters
    and no column of ``x`` is constant: every value equal, or a standard
    deviation of 0, as at 1e-300, where the spread underflows.  The SD
    alone misses a column of 0.1 at b=100, whose mean rounds away from
    0.1.

    The fits handle the intercept apart from these columns, so they hold
    no b x (p+1) design.  An ``x`` that is the transpose of contiguous
    columns, as ``engine.fit_scores`` passes, is not copied.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    w = np.asarray(w)
    if w.shape != x.shape[:-1]:
        raise EstimationError("treatment vector length does not match covariate rows")
    columns = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    if columns.ndim == 2:
        columns, w = columns[np.newaxis], w[np.newaxis]
    m, p, b = columns.shape
    constant = np.zeros((m, p), dtype=bool)
    if b > p + 1:
        with np.errstate(all="ignore"):  # the SD of huge covariates overflows to inf
            for j in range(p):  # one column of each member at a time
                column = columns[:, j]
                constant[:, j] = ((column.max(axis=1) == column.min(axis=1))
                                  | (column.std(axis=1) == 0.0))
    errors = []
    for member_w, member_constant in zip(w, constant):
        try:
            require_both_arms(member_w)
            if b <= p + 1:
                raise EstimationError(f"need more rows than parameters: b={b}, p={p}")
            if member_constant.any():
                raise EstimationError(
                    f"covariate column {member_constant.argmax()} is constant; "
                    "drop it (intercept is implicit)"
                )
        except EstimationError as exc:
            errors.append(exc)
        else:
            errors.append(None)
    return columns, w.astype(np.float64), errors


# The products of the design X = [1, x] that the fits need, for each
# member of a stack, from the columns of x.  Each is a fixed-order
# np.einsum reduction along a member's rows, not a BLAS call, so its bits
# depend neither on the BLAS thread pool nor on the other members.
def _linear_predictor(columns: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X beta of each member, a new (m, b) array."""
    eta = np.einsum("sji,sj->si", columns, beta[:, 1:])
    eta += beta[:, :1]
    return eta


def _design_dot(columns: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X'v of each member: the sum of v, then each column's dot product with v."""
    out = np.empty((len(v), columns.shape[1] + 1))
    out[:, 0] = np.einsum("si->s", v)
    np.einsum("sji,si->sj", columns, v, out=out[:, 1:])
    return out


def _design_gram(columns: np.ndarray, d: np.ndarray) -> np.ndarray:
    """X'DX of each member, D = diag(d), a row of its upper triangle at a
    time: row j holds the dot products of d * x_j with x_j, ..., x_p, so
    one weighted column per member is alive at a time, never a weighted
    copy of x."""
    k = columns.shape[1] + 1
    gram = np.empty((len(d), k, k))
    gram[:, 0] = gram[:, :, 0] = _design_dot(columns, d)
    for j in range(1, k):
        gram[:, j, j:] = gram[:, j:, j] = np.einsum(
            "ski,si->sk", columns[:, j - 1 :], columns[:, j - 1] * d
        )
    return gram


def _steps(jacobian: np.ndarray, residual: np.ndarray, it: int) -> tuple[np.ndarray, dict]:
    """Each member's Newton step, which solves J step = -residual, and
    the error that ends each member that has none, by its index:
    ``SeparationError`` for a singular J, found by solving the members
    one by one when the stacked solve fails, or ``EstimationError`` for
    a step that is not finite."""
    errors = {}
    try:
        steps = np.linalg.solve(jacobian, -residual[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty(residual.shape)
        for i in range(len(jacobian)):
            try:
                steps[i] = np.linalg.solve(
                    jacobian[i : i + 1], -residual[i : i + 1, :, np.newaxis])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                errors[i] = SeparationError(f"singular Jacobian at iteration {it + 1}")
                errors[i].__cause__ = exc
                steps[i] = 0.0
    for i in (~np.isfinite(steps).all(axis=1)).nonzero()[0]:
        errors[i] = EstimationError(f"Newton step is not finite at iteration {it + 1}")
    return steps, errors


def _final(method, scores, beta, converged, iterations, objective):
    """A member's fit where its iteration stops, or ``SeparationError``
    when a fitted score is exactly 0 or 1."""
    if not ((scores > 0.0) & (scores < 1.0)).all():
        return SeparationError("fitted probabilities reached 0 or 1; data are separated")
    return PropensityFit(
        scores=scores, coefficients=beta, method=method,
        converged=converged, iterations=iterations, objective=float(objective),
    )


def _newton(method, evaluate, jacobian, accept, columns, w, beta, tol, max_iter,
            saturated=None, ends=None) -> list:
    """Damped Newton iteration shared by both regression fits, run in
    lockstep over a batch: member i starts at ``beta[i]`` on
    ``columns[i]`` and ``w[i]``, unless ``ends[i]``, its error before the
    fit, is given.

    ``evaluate(columns, w, beta)`` computes all the loop uses at each
    member's ``beta`` from one X beta: ``(merit, eta_max, residual,
    scores)``, with ``eta_max`` = max|X beta| and ``scores`` =
    expit(X beta), and ``jacobian(columns, w, scores)`` builds the
    residuals' Jacobians J from those scores.  Each iterate is evaluated
    once.  A member converges at the first iterate whose residual
    max-norm is below ``tol``, unless ``saturated(w, scores)``, if
    given, flags it.  Otherwise its step solves J step = -residual and
    is halved until ``accept(candidate merit, merit, scale)`` holds, and
    the accepted candidate's evaluation is its next iterate's; when 40
    halvings find no such candidate its current point is returned as not
    converged.  A candidate with ``eta_max`` beyond ``_SEPARATION_ETA``,
    a singular Jacobian or a fitted score of exactly 0 or 1 ends the
    member in ``SeparationError``, a step that is not finite (X'X
    overflows on covariates near 1e200) in ``EstimationError``.  A fit's
    ``objective`` is the residual norm at its returned coefficients.

    The stack keeps all its members for the whole fit: every evaluation
    covers each of them, and a mask of the live members says whose
    results count.  A member that has stopped gets the identity for its
    Jacobian and a zero residual, so a zero step, and its results are
    ignored.  Every reduction runs along one member's rows and all live
    members start their line searches together, so each member's
    iterates, halvings, iteration count and error are those of its fit
    alone.  Returns each member's fit or error, in batch order.
    """
    ends = [None] * len(beta) if ends is None else list(ends)
    live = np.array([end is None for end in ends])
    if not live.any():
        return ends
    with np.errstate(all="ignore"):  # a stopped member's results and non-finite steps are ignored
        value, _, residual, scores = evaluate(columns, w, beta)
        for it in range(max_iter + 1):
            norm = np.maximum.reduce(np.abs(residual), axis=1)
            at_root = live & (norm < tol)
            if at_root.any():
                flagged = saturated(w, scores) if saturated else np.zeros_like(at_root)
                for i in at_root.nonzero()[0]:
                    ends[i] = (SeparationError(
                        "fitted probabilities saturated at the outcomes; data are separated")
                        if flagged[i] else _final(method, scores[i], beta[i], True, it, norm[i]))
                live &= ~at_root
            if not live.any():
                break
            jac = jacobian(columns, w, scores)
            jac[~live] = np.eye(jac.shape[1])
            residual[~live] = 0.0
            step, errors = _steps(jac, residual, it)
            for i, error in errors.items():
                ends[i], live[i] = error, False
            if it == max_iter or not live.any():
                for i in live.nonzero()[0]:
                    ends[i] = _final(method, scores[i], beta[i], False, it, norm[i])
                break
            # the line searches, a halving at a time: each member's
            # accepted candidate and its (merit, eta_max, residual,
            # scores) are written into the first round's arrays
            searching, trial, scale = live.copy(), None, 1.0
            for _ in range(40):
                cand = beta + scale * step
                found = (cand, *evaluate(columns, w, cand))
                ok = searching & accept(found[1], value, scale)
                if trial is None:
                    trial = found
                else:
                    for kept, new in zip(trial, found):
                        kept[ok] = new[ok]
                searching &= ~ok
                if not searching.any():
                    break
                scale *= 0.5
            for i in searching.nonzero()[0]:
                ends[i] = _final(method, scores[i], beta[i], False, it + 1, norm[i])
            live &= ~searching
            beta, value, eta_max, residual, scores = trial
            separated = live & (eta_max > _SEPARATION_ETA)
            for i in separated.nonzero()[0]:
                ends[i] = SeparationError(
                    f"linear predictor exceeded {_SEPARATION_ETA:g}; data are separated"
                )
            live &= ~separated
    return ends


def _fit(solver, x: np.ndarray, w: np.ndarray):
    """``solver`` on the checked stack of ``x`` and ``w``, each member
    that fails the input checks ending in its error: the ``BatchFit`` of
    a stack, or the fit of one subset."""
    batch = BatchFit(solver(*_check_fit_inputs(x, w)))
    return batch if np.ndim(x) == 3 else batch.single()


def fit_logistic_irls(x: np.ndarray, w: np.ndarray) -> PropensityFit | BatchFit:
    """Fit a logistic propensity model by Newton/IRLS.

    ``x`` b x p and ``w`` a b-vector give one fit, returned or raised;
    an (m, b, p) stack and an (m, b) ``w`` give the ``BatchFit`` of m
    subsets, each fitted as if alone.  Convergence is declared when the
    max-norm of the score vector X'(w - pi) falls below
    ``config.IRLS_TOL`` within ``config.IRLS_MAX_ITER`` steps.
    Divergence of the linear predictor signals perfect separation and
    ends the fit in ``SeparationError``.
    """
    return _fit(_irls, x, w)


def _likelihood_equations(columns: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """IRLS's evaluation at ``beta`` for ``_newton``: the log-likelihood,
    max|X beta|, the score X'(w - pi) and pi, of each member."""
    eta = _linear_predictor(columns, beta)
    # log L = sum(w*eta - log(1 + exp(eta))), stable via logaddexp
    softplus = np.logaddexp(0.0, eta)
    loglik = (w * eta - softplus).sum(axis=1)
    eta_max = np.abs(eta).max(axis=1)
    pi = expit(eta, out=eta)
    score = _design_dot(columns, np.subtract(w, pi, out=softplus))
    return loglik, eta_max, score, pi


def _irls(columns: np.ndarray, w: np.ndarray, ends: list) -> list:
    """The IRLS fits on checked covariate columns and float 0/1 rows
    ``w``; a member with an input error in ``ends`` ends in it."""
    beta = np.zeros((len(w), columns.shape[1] + 1))
    # Start at the intercept-only MLE so the first step is well scaled;
    # a member with a single arm, or no rows, has none.
    with np.errstate(all="ignore"):
        rate = w.sum(axis=1) / w.shape[1]
        beta[:, 0] = np.log(rate / (1.0 - rate))
    return _newton(
        "logistic", _likelihood_equations,
        # minus the Fisher information X'WX, W = pi(1 - pi)
        lambda columns, w, pi: -_design_gram(columns, pi * (1.0 - pi)),
        # a step is taken unless the log-likelihood falls
        lambda new, old, scale: new >= old - 1e-12 * np.abs(old),
        columns, w, beta, IRLS_TOL, IRLS_MAX_ITER,
        lambda w, pi: np.abs(w - pi).max(axis=1) < _SATURATION_TOL, ends,
    )


def _balance_conditions(columns: np.ndarray, w: np.ndarray, beta: np.ndarray):
    """The balancing fit's evaluation at ``beta`` for ``_newton``: the
    merit 0.5*||g||^2, max|X beta|, the just-identified ATE balance
    moments g(beta), intercept included, and pi, of each member.  Inside
    g, pi is clipped to [_PROB_FLOOR, 1 - _PROB_FLOOR].
    """
    b = columns.shape[2]
    eta = _linear_predictor(columns, beta)
    eta_max = np.abs(eta).max(axis=1)
    scores = expit(eta, out=eta)
    pi = scores.clip(_PROB_FLOOR, 1.0 - _PROB_FLOOR)
    g = _design_dot(columns, w / pi - (1.0 - w) / (1.0 - pi)) / b
    return 0.5 * np.einsum("sj,sj->s", g, g), eta_max, g, scores


def _balance_jacobian(columns: np.ndarray, w: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """J(beta) = -X'DX/b of each member, D = w(1 - pi)/pi + (1 - w)pi/(1 - pi),
    with pi clipped as in ``_balance_conditions``."""
    pi = scores.clip(_PROB_FLOOR, 1.0 - _PROB_FLOOR)
    d = w * (1.0 - pi) / pi + (1.0 - w) * pi / (1.0 - pi)
    return -_design_gram(columns, d) / columns.shape[2]


def fit_cbps(x: np.ndarray, w: np.ndarray) -> PropensityFit | BatchFit:
    """Covariate-balancing propensity fit (just-identified, logistic link).

    Finds coefficients making the inverse-propensity-weighted covariate
    sums (intercept included) agree across arms:

        g(beta) = (1/b) sum_i [w_i x_i / pi_i - (1 - w_i) x_i / (1 - pi_i)] = 0

    solved by damped Newton on the balance conditions, from the IRLS
    solution.  Each step solves J(beta) step = -g(beta) with the exact
    Jacobian J = -X'DX/b, D > 0, so it descends 0.5*||g||^2, and is
    halved until that merit passes an Armijo test.  Convergence requires
    ||g||_inf < ``config.CBPS_TOL`` within ``config.CBPS_MAX_ITER`` steps.
    ``x`` and ``w`` give one fit or a batch, as for ``fit_logistic_irls``.
    """
    return _fit(_cbps, x, w)


def _cbps(columns: np.ndarray, w: np.ndarray, ends: list) -> list:
    """The balancing fits on checked columns and float rows ``w``, each
    from its member's IRLS fit; a member with an input error in ``ends``,
    or whose IRLS fit fails, ends in that error."""
    start = _irls(columns, w, ends)
    ends = [None if isinstance(fit, PropensityFit) else fit for fit in start]
    beta = np.zeros((len(w), columns.shape[1] + 1))  # a member that ended stays at 0
    for member_beta, fit, end in zip(beta, start, ends):
        if end is None:
            member_beta[:] = fit.coefficients
    return _newton(
        "cbps", _balance_conditions, _balance_jacobian,
        # Armijo with c = 1e-4: along the Newton step the merit f has
        # slope -||g||^2 = -2f
        lambda new, old, scale: new <= old * (1.0 - 2e-4 * scale),
        columns, w, beta, CBPS_TOL, CBPS_MAX_ITER, ends=ends,
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
