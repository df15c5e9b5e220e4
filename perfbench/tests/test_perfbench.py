"""Tests of the benchmark itself.

Each workload runs at a tiny size through the same code the benchmark
times, and each output check is shown to reject a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, run
from perfbench.tracer import TraceError, Tracer
from perfbench.workloads import AnalyzeCsv, BlbLargeB, SimulateCbps

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "analyze_csv": lambda: AnalyzeCsv(n=3000),
    "blb_large_b": lambda: BlbLargeB(n=20_000),
    "simulate_cbps": lambda: SimulateCbps(n=1000, replications=10),
}


def _ready(name, work, seed=3):
    workload = TINY[name]()
    workload.build(seed)
    work.mkdir(parents=True, exist_ok=True)
    workload.prepare(work)
    return workload


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- whole runs at tiny size --------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(name, trace, tmp_path):
    workload = _ready(name, tmp_path)
    tally = run.Tally()
    figures = run.measure(workload, 0.0, trace, tally)
    # warm-up plus one round: one operation, or an untraced and a traced one
    assert tally.attempted == (3 if trace else 2)
    assert tally.failed == 0 and not tally.check_failed
    metrics = run.summarize(figures, setups=[1.0])
    spec = _benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in metrics.items()}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_traced_layers_match_the_workload(tmp_path):
    workload = _ready("analyze_csv", tmp_path)
    tally = run.Tally()
    figures = run.measure(workload, 0.0, True, tally)
    _, cpu, trace = figures["traced"][0]
    per_op = layers.metrics(trace, cpu)
    b = checks.expected_subset_size(workload.n, workload.gamma)
    assert per_op["engine.replicate_cells"] == workload.subsets * workload.replicates * b
    assert per_op["engine.count_matrix_mb"] == workload.replicates * b * 8 / 2**20
    assert per_op["engine.subset_yield"] == 1.0
    assert per_op["data.load_csv_s"] > 0 and per_op["cli.digest_s"] > 0
    assert per_op["rng.substreams"] == 2 * workload.subsets
    assert per_op["propensity.fit_iterations"] > 0
    assert per_op["simulation.generate_s"] == 0.0


def test_tracing_leaves_the_package_unwrapped(tmp_path):
    import causalboot.engine

    original = causalboot.engine.run_subset
    workload = _ready("blb_large_b", tmp_path)
    run.measure(workload, 0.0, True, run.Tally())
    assert causalboot.engine.run_subset is original


def test_csv_round_trips_the_generated_table(tmp_path):
    from causalboot.data import load_csv

    workload = _ready("analyze_csv", tmp_path)
    table = load_csv(workload.csv_path, "y", "w", [f"x{j + 1}" for j in range(workload.p)])
    assert np.array_equal(table.y, workload.table.y)
    assert np.array_equal(table.w, workload.table.w)
    assert np.array_equal(table.x, workload.table.x)


# -- each check rejects a corrupted output ------------------------------------


def _corrupt_json(path, mutate):
    document = json.loads(path.read_text(encoding="utf-8"))
    mutate(document)
    path.write_text(json.dumps(document), encoding="utf-8")


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    return _ready("analyze_csv", tmp_path_factory.mktemp("analyze"))


def _shift_mean(doc):
    sub = doc["payload"]["subsets"][0]
    sub["mean"] = sub["hajek"] + 10 * sub["se"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["payload"].__setitem__("tau_hat", doc["payload"]["tau_hat"] + 1.0),
         "tau_hat"),
        (_shift_mean, "|mean - hajek|"),
        (lambda doc: doc["payload"]["subsets"][0].__setitem__("b0", doc["payload"]["subsets"][0]["b0"] + 1),
         "b0 + b1"),
        (lambda doc: doc["payload"].__setitem__("n1", doc["payload"]["n1"] + 1), "n1 is"),
        (lambda doc: doc["payload"].__setitem__("subset_size", doc["payload"]["subset_size"] + 1),
         "subset_size is"),
        (lambda doc: doc["payload"]["subsets"].pop(), "subsets, expected"),
        (lambda doc: doc["payload"].pop("diagnostics"), "does not match"),
    ],
    ids=["tau_shifted", "mean_off_hajek", "b0_plus_one", "n1_off", "b_off", "subset_missing",
         "schema"],
)
def test_analyze_check_rejects(analyze, mutate, message):
    analyze.operation()
    _corrupt_json(analyze.out_dir / "result.json", mutate)
    with pytest.raises(checks.CheckError, match=message.replace("|", r"\|").replace("+", r"\+")):
        analyze.check()


def test_analyze_check_accepts_clean_output(analyze):
    analyze.operation()
    assert analyze.check()


@pytest.fixture(scope="module")
def blb(tmp_path_factory):
    return _ready("blb_large_b", tmp_path_factory.mktemp("blb"))


def _blb_shift_tau(res):
    res.tau_hat += 1.0


def _blb_shift_mean(res):
    res.subsets[0].mean = res.subsets[0].hajek + 10 * res.subsets[0].se


def _blb_b0(res):
    res.subsets[1].b0 += 1


def _blb_draws(res):
    res.subsets[0].draws = res.subsets[0].draws[:-1]


@pytest.mark.parametrize(
    "mutate, message",
    [(_blb_shift_tau, "tau_hat"), (_blb_shift_mean, "hajek"), (_blb_b0, "b0 \\+ b1"),
     (_blb_draws, "draws")],
)
def test_blb_check_rejects(blb, mutate, message):
    blb.operation()
    mutate(blb.result)
    with pytest.raises(checks.CheckError, match=message):
        blb.check()


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    return _ready("simulate_cbps", tmp_path_factory.mktemp("simulate"))


def _drop_zip_row(out_dir):
    path = out_dir / "zipplot.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _flip_covered(out_dir):
    path = out_dir / "zipplot.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[5] = "0" if fields[5] == "1" else "1"
    lines[1] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")


def _shift_every_estimate(out_dir):
    # Rows and summary stay consistent, but the estimates are biased by 1.
    path = out_dir / "zipplot.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[1] = repr(float(fields[1]) + 1.0)
        lines[i] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    rows = checks.parse_zipplot("".join(lines))
    _corrupt_json(out_dir / "summary.json", lambda doc: doc["payload"].update(
        bias=sum(r["tau_hat"] for r in rows) / len(rows) - checks.TRUE_EFFECT,
        coverage=sum(r["lower"] <= 2.0 <= r["upper"] for r in rows) / len(rows),
    ))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_zip_row, "one per replication"),
        (_flip_covered, "covered"),
        (lambda d: _corrupt_json(d / "summary.json",
                                 lambda doc: doc["payload"].__setitem__("bias", doc["payload"]["bias"] + 0.01)),
         "summary bias"),
        (lambda d: _corrupt_json(d / "summary.json",
                                 lambda doc: doc["payload"].__setitem__("coverage", 0.5)),
         "summary coverage"),
        (lambda d: _corrupt_json(d / "summary.json",
                                 lambda doc: doc["payload"].__setitem__("replications", 11)),
         "replications"),
        (_shift_every_estimate, "above"),
    ],
    ids=["row_missing", "covered_flipped", "bias_off", "coverage_off", "replications_off",
         "biased_estimates"],
)
def test_simulate_check_rejects(simulate, mutate, message):
    simulate.operation()
    mutate(simulate.out_dir)
    with pytest.raises(checks.CheckError, match=message):
        simulate.check()


# -- the runner's accounting --------------------------------------------------


class _Scripted:
    """A stand-in workload whose operations and payloads follow a script."""

    def __init__(self, payloads, fail_on=()):
        self.payloads = list(payloads)
        self.fail_on = set(fail_on)
        self.calls = 0

    def operation(self):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError("scripted failure")

    def check(self):
        return self.payloads[self.calls - 1]


def test_changed_payload_fails_the_determinism_check():
    tally = run.Tally()
    workload = _Scripted([b"a", b"a", b"b"])
    for _ in range(3):
        run.run_operation(workload, tally)
    assert (tally.attempted, tally.failed, tally.check_failed) == (3, 1, True)


def test_raising_operation_counts_as_failed_but_not_incorrect():
    tally = run.Tally()
    workload = _Scripted([b"a"] * 3, fail_on={2})
    for _ in range(3):
        run.run_operation(workload, tally)
    assert (tally.attempted, tally.failed, tally.check_failed) == (3, 1, False)


def test_failing_entry_point_counts_as_failed(tmp_path):
    workload = _ready("simulate_cbps", tmp_path)
    workload.argv = workload.argv + ["--replications", "3"]  # the CLI rejects R < 10
    tally = run.Tally()
    assert run.run_operation(workload, tally) is None
    assert (tally.attempted, tally.failed, tally.check_failed) == (1, 1, False)


# -- the tracer ----------------------------------------------------------------


def test_self_times_add_up_to_the_operation(monkeypatch):
    fake = types.ModuleType("fake_layers")

    def inner():
        return sum(range(20_000))

    def outer():
        return fake.inner() + fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    tracer = Tracer()
    tracer.wrap("fake_layers.outer", "outer")
    tracer.wrap("fake_layers.inner", "inner")
    try:
        tracer.begin("op")
        fake.outer()
        trace = tracer.close()
    finally:
        tracer.restore()
    assert trace.calls == {"op": 1, "outer": 1, "inner": 2}
    assert all(v >= 0 for v in trace.self_seconds.values())
    assert sum(trace.self_seconds.values()) == pytest.approx(trace.wall_seconds, rel=1e-9)
    assert fake.outer is outer and fake.inner is inner


def test_tracer_rejects_a_missing_target():
    with pytest.raises(AttributeError):
        Tracer().wrap("causalboot.engine.no_such_function", "x")


def test_tracer_rejects_a_span_left_open():
    tracer = Tracer()
    tracer.begin("op")
    tracer._open("child")
    with pytest.raises(TraceError):
        tracer.close()


# -- the command line -----------------------------------------------------------


def test_setup_probe_prints_seconds():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         "--workload", "simulate_cbps", "--seed", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(done.stdout.strip().splitlines()[-1]) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
