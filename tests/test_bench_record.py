"""``tools/bench_record.py`` builds its documents from run.py's result
lines; here the runner is stubbed with canned lines, so no workload runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools/bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(checkout, workload, seed, seconds, trace):
    """A run.py result line; the parent's operations take 2 s, the change's 1 s."""
    wall = 1.0 if checkout == ROOT else 2.0
    if trace:
        metrics = {"process.cpu_s": {"value": wall, "unit": "s"},
                   "rng.substreams": {"value": 12, "unit": "count"},
                   "propensity.fit_iterations": {"value": 40, "unit": "count"},
                   "engine.replicate_cells": {"value": 900, "unit": "count"}}
    else:
        metrics = {"op_wall_s": {"value": wall, "unit": "s"},
                   "peak_rss_mb": {"value": 50.0, "unit": "MB"},
                   "setup_s": {"value": 0.2, "unit": "s"}}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics,
            "argv": [workload, seed, seconds, trace]}


def test_record_keeps_each_result_line_as_it_is(tool):
    runs = tool.record(BENCHMARK, 11, 25, canned)
    assert list(runs) == WORKLOADS
    for name, both in runs.items():
        assert both == {"trace0": canned(tool.ROOT, name, 11, 25, 0),
                        "trace1": canned(tool.ROOT, name, 11, 25, 1)}


def test_pairs_alternate_and_report_ratio_and_wins(tool, tmp_path):
    calls = []

    def runner(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, trace))
        return canned(checkout, workload, seed, seconds, trace)

    out = tool.compare(BENCHMARK, tmp_path, 11, 25, 3, runner)
    assert list(out) == WORKLOADS
    first = [checkout for checkout, workload, trace in calls if workload == WORKLOADS[0]]
    assert first == [tmp_path, ROOT, ROOT, tmp_path, tmp_path, ROOT, tmp_path, ROOT]
    entry = out[WORKLOADS[0]]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent", "change", "parent"]
    summary = entry["summary"]
    assert summary["metrics"]["op_wall_s"] == {
        "median_ratio": 0.5, "change_won": 3, "pairs": 3,
        "parent_quartiles": [2.0, 2.0, 2.0], "change_quartiles": [1.0, 1.0, 1.0],
        "median_gap": -1.0, "parent_spread": 0.0, "gap_exceeds_spread": True}
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_won"] == 0  # ties count for neither
    assert (rss["median_gap"], rss["parent_spread"], rss["gap_exceeds_spread"]) == (0.0, 0.0, False)
    assert summary["parent"] == {"process.cpu_s": 2.0, "rng.substreams": 12,
                                 "propensity.fit_iterations": 40,
                                 "engine.replicate_cells": 900}
    assert summary["change"]["process.cpu_s"] == 1.0


def test_a_gap_within_the_parents_spread_is_no_gain(tool, tmp_path):
    # the parent's untraced runs take 2, 3 and 4 s, so its quartiles are
    # 2.5, 3 and 3.5; the change's 2.5 s wins two pairs of three, but its
    # median is only 0.5 s below the parent's, within the 1 s spread
    parent_walls = iter([2.0, 3.0, 4.0])

    def runner(checkout, workload, seed, seconds, trace):
        line = canned(checkout, workload, seed, seconds, trace)
        if not trace:
            wall = 2.5 if checkout == ROOT else next(parent_walls)
            line["metrics"]["op_wall_s"]["value"] = wall
        return line

    benchmark = dict(BENCHMARK, workloads=BENCHMARK["workloads"][:1])
    wall = tool.compare(benchmark, tmp_path, 11, 25, 3, runner)[WORKLOADS[0]]["summary"][
        "metrics"]["op_wall_s"]
    assert wall["change_won"] == 2
    assert (wall["median_gap"], wall["parent_spread"], wall["gap_exceeds_spread"]) == (
        -0.5, 1.0, False)


def test_main_writes_the_document(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    monkeypatch.setattr(tool, "run_perfbench", canned)
    assert tool.main(["t1"]) == 0
    document = json.loads((tmp_path / "BENCH_t1.json").read_text(encoding="utf-8"))
    assert {"label", "seed", "seconds", "revision", "host", "runs"} <= set(document)
    assert (document["label"], document["seed"], document["seconds"]) == ("t1", 11, BENCHMARK["run_seconds"])
    assert {"cpu_model", "vcpus", "python", "numpy", "blas"} <= set(document["host"])
    assert list(document["runs"]) == WORKLOADS
