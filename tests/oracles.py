"""Independent oracle implementations used only by the test suite.

These deliberately avoid the package's code paths: plain textbook
formulas, loop-based where that makes independence obvious.  Tests
compare package output against these, never the other way around.
"""

import csv
import itertools
import math

import numpy as np


def hajek_with_sandwich(y, w, pi):
    """Textbook normalized-IPW ATE with a plug-in sandwich variance.

    Treats the propensities as known, which makes the SE conservative
    for fitted scores; fine for the wide tolerance bands used in tests.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    pi = np.asarray(pi, dtype=float)
    ipw1 = w / pi
    ipw0 = (1.0 - w) / (1.0 - pi)
    mu1 = float(np.sum(ipw1 * y) / np.sum(ipw1))
    mu0 = float(np.sum(ipw0 * y) / np.sum(ipw0))
    tau = mu1 - mu0
    n = y.shape[0]
    psi = w * (y - mu1) / pi - (1.0 - w) * (y - mu0) / (1.0 - pi)
    se = math.sqrt(float(np.sum(psi**2)) / n**2)
    return tau, se


def quantile_type7(values, q):
    """Hand-evaluated linear-interpolation quantile (R type 7)."""
    data = sorted(float(v) for v in values)
    n = len(data)
    h = (n - 1) * q
    lo = int(math.floor(h))
    if lo >= n - 1:
        return data[-1]
    return data[lo] + (h - lo) * (data[lo + 1] - data[lo])


def two_cell_balance_scores(w, x):
    """Closed-form balancing solution for one binary covariate.

    With a saturated logistic model over cells x=0 and x=1, the balance
    conditions are solved exactly by the per-cell treated fractions.
    Returns the per-row score vector.
    """
    w = np.asarray(w)
    x = np.asarray(x)
    scores = np.empty(len(w), dtype=float)
    for level in (0, 1):
        mask = x == level
        scores[mask] = w[mask].mean()
    return scores


def weighted_arm_means(y, w, pi):
    """Normalized-weight arm means computed longhand."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w)
    num1 = den1 = num0 = den0 = 0.0
    for yi, wi, pii in zip(y, w, pi):
        if wi == 1:
            num1 += yi / pii
            den1 += 1.0 / pii
        else:
            num0 += yi / (1.0 - pii)
            den0 += 1.0 / (1.0 - pii)
    return num1 / den1, num0 / den0


def design(x):
    """The covariates with an intercept column prepended."""
    return np.column_stack([np.ones(len(x)), x])


def logistic_fisher_se(x_design, scores):
    """Asymptotic coefficient SEs from the Fisher information."""
    lam = scores * (1.0 - scores)
    info = x_design.T @ (x_design * lam[:, None])
    return np.sqrt(np.diag(np.linalg.inv(info)))


def multinomial_pmf(n, w):
    """Exact multinomial(n, w) pmf as a dict from count tuples, by enumeration."""
    pmf = {}
    for counts in itertools.product(range(n + 1), repeat=len(w)):
        if sum(counts) == n:
            p = float(math.factorial(n))
            for c, wi in zip(counts, w):
                p *= wi**c / math.factorial(c)
            pmf[counts] = p
    return pmf


def replicate_cumulants(w0, y0, n0, w1, y1, n1):
    """Exact mean, variance and third cumulant of a replicate estimate
    T1/n1 - T0/n0, with T_a = sum_i(M_i * y_i) and independent arms
    M ~ multinomial(n_a, w_a).

    Per arm, with mu = sum(w * y): mean mu, variance
    sum(w * (y - mu)**2) / n_a and third cumulant
    sum(w * (y - mu)**3) / n_a**2; the arms' cumulants add, the
    control arm's odd ones with a minus sign.
    """
    out = np.zeros(3)
    for w, y, n, sign in ((w1, y1, n1, 1.0), (w0, y0, n0, -1.0)):
        mu = float(np.sum(w * y))
        d = y - mu
        out += (sign * mu, np.sum(w * d**2) / n, sign * np.sum(w * d**3) / n**2)
    return tuple(float(v) for v in out)


def poissonized_totals_longhand(stream, n_arm, w, y, r, topup_max):
    """An arm's r replicate totals drawn row by row, Poissonized.

    Restates ``draw_arm_totals``' stream layout with loops.  First, row
    by row, a vector of independent Poisson(lam * w_i) counts with
    lam = max(0, n_arm - 2 sqrt(n_arm)).  Then, row by row again: a row
    short of n_arm by 0..``topup_max`` counts draws that many uniforms,
    each picking the first cell whose cumulative weight exceeds it, and
    adds the picked outcomes in order to sum(counts * y); any other row
    is replaced by one multinomial(n_arm, w) row, summed the same way.
    Returns the totals and the number of replaced rows.
    """
    lam = max(0.0, n_arm - 2.0 * math.sqrt(n_arm))
    poisson_rows = [stream.poisson(lam * np.asarray(w)) for _ in range(r)]
    cdf = np.cumsum(w)
    cdf = cdf / cdf[-1]
    totals = []
    replaced = 0
    for counts in poisson_rows:
        short = n_arm - int(sum(counts))
        if short < 0 or short > topup_max:
            totals.append(float(np.sum(stream.multinomial(n_arm, w) * y)))
            replaced += 1
            continue
        topped = 0.0
        for _ in range(short):
            u = stream.random()
            cell = 0
            while cdf[cell] <= u:
                cell += 1
            topped += y[cell]
        totals.append(float(np.sum(counts * y)) + topped)
    return totals, replaced


# Monte-Carlo oracle for Cov(X1, W) under the confounded assignment
# model expit(-0.5*x1 - 0.5*x2): 1e7 draws, Philox seed 987654321.
COV_X1_W_ORACLE = -0.11251356351041067
COV_X1_W_ORACLE_MCSE = 0.00022081784083158


def load_csv_longhand(path, outcome, treatment, covariates, na_policy):
    """CSV reading cell by cell through ``csv.DictReader``.

    Restates ``load_csv``'s rules on text: a stripped cell that is empty
    or ``na``/``nan``/``null`` in any case is missing, as is a cell its
    row lacks, and so is one ``float`` rejects under ``na_policy="drop"``;
    a missing cell drops its row (``drop``) or is an error (``reject``);
    a cell ``float`` reads as infinite or NaN and a treatment other than
    0 or 1 are always errors.  Returns
    (y, w, x, dropped) as lists; raises DataError worded as ``load_csv``.
    """
    from causalboot import DataError

    used = [outcome, treatment, *covariates]
    ys, ws, xs = [], [], []
    dropped = 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in used if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"missing column(s) {missing} in {path}")
        for i, record in enumerate(reader, start=1):
            row = []
            for col in used:
                text = (record.get(col) or "").strip()
                try:
                    if text.lower() in ("", "na", "nan", "null"):
                        raise DataError(f"missing value in column {col!r} at data row {i}")
                    try:
                        value = float(text)
                    except ValueError:
                        raise DataError(
                            f"non-numeric value {text!r} in column {col!r} at data row {i}"
                        ) from None
                except DataError:
                    if na_policy == "reject":
                        raise
                    break
                if not math.isfinite(value):
                    raise DataError(f"non-finite value {text!r} in column {col!r} at data row {i}")
                row.append(value)
            if len(row) < len(used):
                dropped += 1
                continue
            if row[1] not in (0.0, 1.0):
                raise DataError(f"non-binary treatment value {row[1]!r} at data row {i}")
            ys.append(row[0])
            ws.append(int(row[1]))
            xs.append(row[2:])
    if not ys:
        raise DataError(f"no usable rows in {path} (dropped {dropped})")
    return ys, ws, xs, dropped
