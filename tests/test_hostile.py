"""Hostile inputs: tiny arms, a covariate constant within a subset, near
separation, duplicate rows, external scores at the truncation bounds,
covariates at extreme scales, and hostile values of every run setting
and every command-line option.

Each case either returns a well-formed estimate (every subset of size b,
split b0 + b1 = b) or refuses with a typed ``CausalbootError``; through
the CLI the refusal is exit code 2, 3 or 4, never a traceback.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import causalboot as cb
from causalboot import rng as cbrng
from causalboot import cli
from causalboot.cli import OPTIONS, main
from causalboot.errors import CausalbootError

SRC = Path(cb.__file__).resolve().parents[1]

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


# ---------------------------------------------------------------------
# Hostile run settings and option texts
# ---------------------------------------------------------------------

HOSTILE_VALUES = [
    math.nan, math.inf, -math.inf, float("1e400"), True, False, np.True_, np.False_,
    np.int8(-3), np.int16(3), np.int32(7), np.int64(5), np.uint8(0), np.uint16(2),
    np.uint32(9), np.uint64(2**63), np.float16(0.5), np.float32(0.25), np.float64(-0.5),
    np.longdouble(0.2), "0.5", "", "logistic", None, (), (0.1,), (0.05, 0.5, 0.95),
    (math.nan, 0.9), (0.0, 1.0), 2**70, -(2**70), 10**400, "scores\0.txt",
]
# The fields that count loops or threads: a huge one is checked when
# made and never run.
COUNTS = ("subsets", "max_redraws", "threads")
# What a field needs beside it to be used at all, and the error besides
# an EstimationError a run may then end in: a subset size above the
# table's rows, and scores from a file that is not there.
PARTNERS = {"subset_size": ({"gamma": None}, cb.ConfigError),
            "external_scores": ({"estimator": "external"}, cb.DataError)}
FIELDS = [f.name for f in dataclasses.fields(cb.BlbConfig)]


@pytest.fixture(scope="module")
def table_200():
    return cb.generate_dgm(200, cbrng.substream(3, cbrng.DOMAIN_DATASET, 0))


def hostile_setting(table, name, value):
    """Make a config with field ``name`` set to ``value`` and run it: it
    must be refused in one shape, or run, or end in an expected error."""
    partner, run_error = PARTNERS.get(name, ({}, cb.EstimationError))
    try:
        config = cb.BlbConfig(**partner, **{name: value})
    except cb.ConfigError as exc:
        assert re.fullmatch(r"(\w+) must be .+, got .+", str(exc)).group(1) in FIELDS
        return
    if name in COUNTS and value > 4:
        return
    try:
        cb.run_blb(table, config)
    except (cb.EstimationError, run_error):
        pass


def failures(check, cases):
    """``check(case)`` for every case; each case that raised, with its error."""
    found = []
    for case in cases:
        try:
            check(case)
        except Exception as exc:  # every escape is a finding
            found.append(f"{case!r}: {type(exc).__name__}: {exc}")
    return found


# The whole product of fields and values runs in about a second, so no
# case is sampled.
@pytest.mark.parametrize("name", FIELDS)
def test_every_hostile_value_of_a_setting_is_refused_or_runs(table_200, name):
    assert failures(lambda value: hostile_setting(table_200, name, value), HOSTILE_VALUES) == []


HOSTILE_TEXTS = ["nan", "inf", "-0", "1e400", "", "0x10", "\u0661\u0662", "-1", "in\0.csv"]
NINES = "9" * 30


@pytest.fixture(scope="module")
def argv_base(tmp_path_factory):
    """Each command's argv, small enough to finish at once, as a dict of
    option name to text."""
    tmp = tmp_path_factory.mktemp("hostile_cli")
    t = cb.generate_dgm(300, cbrng.substream(4, cbrng.DOMAIN_DATASET, 0))
    rows = ["y,w,x1,x2"] + [f"{y!r},{w},{x[0]!r},{x[1]!r}"
                            for y, w, x in zip(t.y.tolist(), t.w.tolist(), t.x.tolist())]
    (tmp / "in.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    small = {"subsets": "2", "replicates": "20", "threads": "1", "output": str(tmp / "out")}
    return tmp, {
        "analyze": {"input": str(tmp / "in.csv"), "outcome": "y", "treatment": "w",
                    "covariates": "x1,x2", **small},
        "simulate": {"n": "300", "replications": "10", **small},
        "relerr": {"n": "300", "gammas": "0.7", "replicates": "20", "oracle_reps": "100",
                   "data_reps": "1", "output": str(tmp / "out")},
        "benchmark": {"ns": "300", "reps": "1", "output": str(tmp / "out")},
    }


# output is left out: most texts name a directory in the working
# directory, which the command would make.  Its cases are below.
CLI_CASES = [
    (command, opt.name, text)
    for command, table in OPTIONS.items()
    for opt in table if opt.name != "output"
    for text in HOSTILE_TEXTS + [NINES] * (opt.name in ("replicates", "subset_size"))
]


def run_cli(argv_base, capsys, command, name, text):
    """``main`` on the command's small argv with option ``name`` set to
    ``text``: as a flag, or for a switch as a config-file line.  Returns
    the exit code and stderr."""
    tmp, bases = argv_base
    options = {**bases[command], name: text}
    switch = {opt.name for opt in OPTIONS[command] if isinstance(opt.default, bool)}
    argv = [command] + [f"--{key.replace('_', '-')}={value}"
                        for key, value in options.items() if key not in switch]
    if name in switch:
        (tmp / "hostile.conf").write_text(f"{name}={text}\n", encoding="utf-8")
        argv += ["--config", str(tmp / "hostile.conf")]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


def hostile_option(argv_base, capsys, command, name, text):
    """Exit 0, 2, 3 or 4, and a refusal on one line with no traceback."""
    code, err = run_cli(argv_base, capsys, command, name, text)
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (code, err)
    assert err.count("\n") == (code != 0), err


# The whole product runs in about two seconds, so no case is sampled.
@pytest.mark.parametrize("command", OPTIONS)
def test_every_hostile_option_text_exits_with_a_code(argv_base, capsys, command):
    cases = [case for case in CLI_CASES if case[0] == command]
    assert failures(lambda case: hostile_option(argv_base, capsys, *case), cases) == []


@pytest.mark.parametrize("command, name, text, message", [
    ("analyze", "weight_cap", "nan", "weight_cap must be a real number, got nan"),
    ("simulate", "weight_cap", "nan", "weight_cap must be a real number, got nan"),
    ("simulate", "balance_threshold", "1e400", "balance_threshold must be a real number, got inf"),
    *[(command, "seed", "-1", "seed must be at least 0, got -1") for command in OPTIONS],
])
def test_cli_refuses_a_setting_it_once_ran(argv_base, capsys, command, name, text, message):
    assert run_cli(argv_base, capsys, command, name, text) == (
        2, f"configuration error: {message}\n")


@pytest.mark.parametrize("r", [2**62, int(NINES)])
def test_cli_names_replicates_beyond_any_array(argv_base, capsys, r):
    code, err = run_cli(argv_base, capsys, "simulate", "replicates", str(r))
    assert code == 4 and err.startswith(f"estimation error: {r} replicates do not fit in memory")
    assert err.count("\n") == 1


def test_cli_names_replicates_beyond_memory(argv_base):
    """2**40 replicates need 8 TiB; the child's address space is held to
    4 GiB, so the allocation fails on any host."""
    options = {**argv_base[1]["simulate"], "replicates": 2**40}
    argv = ["simulate"] + [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from causalboot.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                                           "PYTHONPATH": str(SRC)})
    assert run.returncode == 4, run.stderr
    assert run.stderr.startswith(f"estimation error: {2**40} replicates do not fit in memory")
    assert run.stderr.count("\n") == 1


# Every file each command writes in a full run (analyze with --emit-draws).
WRITES = {
    "analyze": ("result.json", "draws.csv"),
    "simulate": ("summary.json", "zipplot.csv"),
    "relerr": ("relerr_summary.json", "relerr.csv"),
    "benchmark": ("benchmark_summary.json", "timings.csv", "medians.csv"),
}
def hostile_outputs(tmp, command):
    """(output text, the path its refusal names) for each hostile output
    of ``command``, made under ``tmp``: a regular file, a path under one,
    a NUL byte, and per file the command writes, a directory in its place."""
    file = tmp / "file"
    file.write_text("a file, not a directory\n", encoding="utf-8")
    cases = [(file, file), (file / "out", file / "out"), (tmp / "out\0put", tmp / "out\0put")]
    for name in WRITES[command]:
        (tmp / name / name).mkdir(parents=True)
        cases.append((tmp / name, tmp / name / name))
    return cases


@pytest.fixture
def no_work(monkeypatch):
    """Make each command's work, from reading its input on, fail the test."""
    def work(*args, **kwargs):
        raise AssertionError("the command started its work")

    for name in ("load_csv", "run_blb", "run_replications", "run_relerr_harness",
                 "benchmark_timing"):
        monkeypatch.setattr(cli, name, work)


@pytest.mark.parametrize("command", OPTIONS)
def test_a_hostile_output_is_refused_before_the_work(argv_base, capsys, no_work, command):
    tmp = argv_base[0] / f"output-{command}"
    tmp.mkdir()
    cases = hostile_outputs(tmp, command)
    before = sorted(tmp.rglob("*"))

    def refused(case):
        output, named = case
        code, err = run_cli(argv_base, capsys, command, "output", str(output))
        assert code == 2 and err.startswith("configuration error: ") and str(named) in err, err
        assert err.count("\n") == 1 and "Traceback" not in err, err

    assert failures(refused, cases) == []
    assert sorted(tmp.rglob("*")) == before  # nothing made, nothing written


def test_an_output_with_a_nul_byte_in_a_config_file_is_refused(argv_base, capsys, no_work):
    # a shell cannot pass a NUL byte in an argument, but a file can hold one
    tmp, bases = argv_base
    config = tmp / "nul_output.conf"
    config.write_text(f"output={tmp / 'out'}\0\n", encoding="utf-8")
    options = {key: value for key, value in bases["simulate"].items() if key != "output"}
    argv = ["simulate"] + [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    capsys.readouterr()
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot make output directory ")
    assert "embedded null byte" in err and err.count("\n") == 1


@pytest.mark.parametrize("command, name, text, message", [
    ("analyze", "method", "external:scores\0.txt", "external_scores must be free of NUL bytes"),
    ("simulate", "method", "external:scores\0.txt", "external_scores must be free of NUL bytes"),
])
def test_a_path_with_a_nul_byte_is_refused(argv_base, capsys, command, name, text, message):
    code, err = run_cli(argv_base, capsys, command, name, text)
    assert code == 2 and err.startswith(f"configuration error: {message}, got ")
    assert err.count("\n") == 1


def test_a_config_path_with_a_nul_byte_is_refused(argv_base, capsys):
    argv = ["relerr"] + [f"--{key.replace('_', '-')}={value}"
                         for key, value in argv_base[1]["relerr"].items()]
    capsys.readouterr()
    assert main(argv + ["--config", "run\0.conf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file run")
    assert "embedded null byte" in err and err.count("\n") == 1
