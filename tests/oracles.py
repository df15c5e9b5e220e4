"""Independent oracle implementations used only by the test suite.

These deliberately avoid the package's code paths: plain textbook
formulas, loop-based where that makes independence obvious.  Tests
compare package output against these, never the other way around.
"""

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


def replicate_estimate_longhand(m0, m1, y0, y1, n0, n1):
    """One replicate's estimate from its count vectors, summed in loops:
    (1/n1) * sum_i m1_i * y1_i - (1/n0) * sum_i m0_i * y0_i."""
    treated = 0.0
    for count, value in zip(m1, y1):
        treated += float(count) * float(value)
    control = 0.0
    for count, value in zip(m0, y0):
        control += float(count) * float(value)
    return treated / n1 - control / n0


def logistic_fisher_se(x_design, scores):
    """Asymptotic coefficient SEs from the Fisher information."""
    lam = scores * (1.0 - scores)
    info = x_design.T @ (x_design * lam[:, None])
    return np.sqrt(np.diag(np.linalg.inv(info)))


# Monte-Carlo oracle for Cov(X1, W) under the confounded assignment
# model expit(-0.5*x1 - 0.5*x2): 1e7 draws, Philox seed 987654321.
COV_X1_W_ORACLE = -0.11251356351041067
COV_X1_W_ORACLE_MCSE = 0.00022081784083158
