"""Hostile inputs: tiny arms, a covariate constant within a subset, near
separation, duplicate rows, external scores at the truncation bounds and
covariates at extreme scales.

Each case either returns a well-formed estimate (every subset of size b,
split b0 + b1 = b) or refuses with a typed ``CausalbootError``; through
the CLI the refusal is exit code 2, 3 or 4, never a traceback.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import causalboot as cb
from causalboot import rng as cbrng
from causalboot.cli import main
from causalboot.errors import CausalbootError

EXAMPLES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

configs = st.builds(
    cb.BlbConfig,
    gamma=st.sampled_from([0.5, 0.8, 1.0]),
    subsets=st.integers(1, 3),
    replicates=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    estimator=st.sampled_from(["logistic", "cbps", "marginal"]),
    # the default cap refuses any arm of fewer than ten rows
    weight_cap=st.sampled_from([cb.BlbConfig().weight_cap, 1.0]),
)


def check_run(table, config):
    """Run ``run_blb``; a result must be well formed, a refusal typed."""
    try:
        res = cb.run_blb(table, config)
    except CausalbootError as exc:
        event(f"refused: {type(exc).__name__}")
        return None
    event("estimated")
    assert len(res.subsets) == config.subsets
    for e in res.subsets:
        assert e.b0 >= 1 and e.b1 >= 1
        assert e.b0 + e.b1 == res.b
    assert res.n0 + res.n1 == res.n == table.n
    assert np.isfinite(res.tau_hat) and res.se >= 0.0
    return res


def normal_table(seed, n, p, w):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, p))
    y = x.sum(axis=1) + g.standard_normal(n) + 2.0 * w
    return x, y


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(6, 120),
    p=st.integers(1, 3),
    small=st.integers(1, 2),
    treated_small=st.booleans(),
    config=configs,
)
def test_tiny_arm(seed, n, p, small, treated_small, config):
    rows = np.random.default_rng(seed).choice(n, small, replace=False)
    w = np.zeros(n, dtype=np.int8)
    w[rows] = 1
    if not treated_small:
        w = 1 - w
    x, y = normal_table(seed, n, p, w)
    check_run(cb.ObservationTable(y=y, w=w, x=x), config)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 200),
    varying=st.integers(0, 3),
    level=st.sampled_from([0.0, -3.5, 1e6]),
    config=configs,
)
def test_covariate_constant_within_a_subset(seed, n, varying, level, config):
    # column 2 takes one value except on ``varying`` rows, so most
    # subsets (all, when varying is 0) hold it constant
    g = np.random.default_rng(seed)
    w = (g.random(n) < 0.5).astype(np.int8)
    w[:2] = (0, 1)
    x, y = normal_table(seed, n, 2, w)
    x[:, 1] = level
    x[g.choice(n, varying, replace=False), 1] += 1.0
    check_run(cb.ObservationTable(y=y, w=w, x=x), config)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 200),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    scale=st.sampled_from([1.0, 1e3]),
    config=configs,
)
def test_near_separation(seed, n, noise, scale, config):
    g = np.random.default_rng(seed)
    x = scale * g.standard_normal((n, 2))
    w = (x[:, 0] + noise * scale * g.standard_normal(n) > 0).astype(np.int8)
    w[:2] = (0, 1)
    y = x[:, 1] / scale + 2.0 * w
    check_run(cb.ObservationTable(y=y, w=w, x=x), config)


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    distinct=st.integers(2, 8),
    copies=st.integers(2, 25),
    shuffle=st.booleans(),
    config=configs,
)
def test_duplicate_rows(seed, distinct, copies, shuffle, config):
    g = np.random.default_rng(seed)
    w = np.arange(distinct, dtype=np.int8) % 2
    x, y = normal_table(seed, distinct, 2, w)
    order = np.tile(np.arange(distinct), copies)
    if shuffle:
        g.shuffle(order)
    check_run(cb.ObservationTable(y=y[order], w=w[order], x=x[order]), config)


BOUND_SCORES = [1e-12, 0.005, 0.01, 0.5, 0.99, 0.995, 1.0 - 1e-12]


@pytest.fixture(scope="module")
def scores_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "scores.txt"


@EXAMPLES
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(10, 150),
    scores=st.lists(st.sampled_from(BOUND_SCORES), min_size=1, max_size=4),
    config=configs,
)
def test_external_scores_at_truncation_bounds(scores_path, seed, n, scores, config):
    g = np.random.default_rng(seed)
    w = (g.random(n) < 0.5).astype(np.int8)
    w[:2] = (0, 1)
    x, y = normal_table(seed, n, 2, w)
    values = np.resize(np.array(scores), n)
    scores_path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    config = dataclasses.replace(config, estimator="external", external_scores=str(scores_path))
    check_run(cb.ObservationTable(y=y, w=w, x=x), config)


def scaled_table(scale):
    """The seed-1 simulated table (n=2000, p=2) with its covariates
    multiplied by ``scale``."""
    t = cb.generate_dgm(2000, cbrng.substream(1, cbrng.DOMAIN_DATASET, 0))
    return cb.ObservationTable(y=t.y, w=t.w, x=t.x * scale)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["logistic", "cbps"])
@pytest.mark.parametrize("scale, reason", [
    # X'X overflows, so the first Newton step is not finite
    (1e200, "Newton step is not finite"),
    # each column's SD underflows to 0.  A constancy test that passes this
    # table (max == min does) lets IRLS stop at its intercept-only start,
    # whose score norm is already below the tolerance, and report the
    # marginal estimate as converged
    (1e-300, "is constant"),
])
def test_covariates_at_extreme_scales_are_refused(method, scale, reason):
    config = cb.BlbConfig(gamma=0.7, subsets=3, replicates=20, seed=1, estimator=method)
    with pytest.raises(cb.RedrawBudgetError) as exc:
        cb.run_blb(scaled_table(scale), config)
    assert str(exc.value).count(reason) == config.max_redraws + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, exact", [
    # the SDs overflow to inf; a power of two rescales without rounding
    (2.0**664, True), (1e200, False), (1e160, False),
    # the SDs underflow to 0, which read as constant covariates
    (2.0**-1000, True),
], ids=["2**664", "1e200", "1e160", "2**-1000"])
def test_balance_at_extreme_scales_is_the_unscaled_balance(scale, exact):
    config = cb.BlbConfig(gamma=0.7, subsets=3, replicates=20, seed=1, estimator="marginal")
    want = [e.balance for e in cb.run_blb(scaled_table(1.0), config).subsets]
    got = [e.balance for e in cb.run_blb(scaled_table(scale), config).subsets]
    if exact:
        assert got == want
    for g, w in zip(got, want, strict=True):
        assert g.not_applicable == () and g.passed == w.passed
        assert g.smd == pytest.approx(w.smd, rel=1e-14, abs=0.0)


def hostile_csvs():
    """(name, rows) of CSV tables with y, w, x1, x2 columns."""
    g = np.random.default_rng(5)
    x = g.standard_normal((60, 2))
    lone = np.zeros(60, dtype=int)
    lone[17] = 1
    split = (np.arange(60) % 2).astype(int)
    constant = x.copy()
    constant[:, 1] = 4.0
    duplicated = np.repeat(x[:3], 20, axis=0)
    return {
        "lone_treated_row": (lone, x),
        "constant_covariate": (split, constant),
        "duplicate_rows": (np.repeat([0, 1, 1], 20), duplicated),
        "separated": ((x[:, 0] > 0).astype(int), x),
    }


@pytest.mark.parametrize("name", sorted(hostile_csvs()))
@pytest.mark.parametrize("method", ["logistic", "cbps", "external"])
def test_cli_analyze_exits_with_a_code(name, method, tmp_path, capsys):
    w, x = hostile_csvs()[name]
    y = x.sum(axis=1) + 2.0 * w
    path = tmp_path / "in.csv"
    lines = ["y,w,x1,x2"] + [
        f"{float(y[i])!r},{w[i]},{float(x[i, 0])!r},{float(x[i, 1])!r}" for i in range(len(w))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if method == "external":
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(["0.01", "0.99"] * (len(w) // 2)) + "\n", encoding="utf-8")
        method = f"external:{scores}"
    code = main([
        "analyze", "--input", str(path), "--outcome", "y", "--treatment", "w",
        "--covariates", "x1,x2", "--method", method, "--subsets", "2",
        "--replicates", "5", "--threads", "1", "--output", str(tmp_path / "out"),
    ])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["logistic", "cbps"])
def test_cli_refuses_huge_covariates_in_one_line(method, tmp_path, capsys):
    t = scaled_table(1e200)
    path = tmp_path / "in.csv"
    lines = ["y,w,x1,x2"] + [
        f"{float(t.y[i])!r},{t.w[i]},{float(t.x[i, 0])!r},{float(t.x[i, 1])!r}"
        for i in range(t.n)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([
        "analyze", "--input", str(path), "--outcome", "y", "--treatment", "w",
        "--covariates", "x1,x2", "--method", method, "--gamma", "0.7", "--subsets", "3",
        "--replicates", "20", "--seed", "1", "--threads", "1",
        "--output", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("estimation error: subset 0: no usable subset")
    assert err.count("\n") == 1
