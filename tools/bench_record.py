"""Record one point of the benchmark trajectory as ``BENCH_<LABEL>.json``.

Run from anywhere, with the label of the point:

    python3 tools/bench_record.py LABEL
    python3 tools/bench_record.py LABEL --pair PARENT_DIR

For each workload of ``BENCHMARK.json`` it runs this checkout's
``perfbench/run.py`` in a subprocess, once with ``--trace 0`` and once
with ``--trace 1``, at seed 11 and BENCHMARK.json's ``run_seconds``, so
that every point of the trajectory is run alike, and keeps run.py's
result line as it is.  The file also holds the seed and seconds, the git
revision, the CPU model and vCPU count, and the Python, numpy and BLAS
versions.

``--pair PARENT_DIR`` compares the checkout at PARENT_DIR (the parent)
with this one (the change).  For each workload it runs ten pairs of
``--trace 0`` runs, one of each side, alternating which side goes
first, and keeps every pair; then one ``--trace 1`` run of each side.
For each end-to-end metric it reports the median change/parent ratio,
how many pairs the change won, each side's quartiles, the change's
median minus the parent's (``median_gap``), the parent's q3 - q1
(``parent_spread``) and whether the gap is wider than that spread
(``gap_exceeds_spread``), next to each side's ``process.cpu_s`` and
deterministic counts from its traced run.  A gain counts only when the
change wins nine pairs in ten and its gap exceeds the parent's spread.
Only alternated pairs separate a change from a host whose slow and fast
periods last a minute or more.  The file is written to the root of this
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The traced figures that do not depend on the host.
COUNTS = ("rng.substreams", "propensity.fit_iterations", "engine.replicate_cells")
SEED = 11
PAIRS = 10  # the fewest alternated pairs that can resolve a change


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """run.py's result line: the last line of its standard output."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def revision(checkout: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def host() -> dict:
    import numpy as np

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": model,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def record(benchmark: dict, seed: int, seconds: float, runner) -> dict:
    """One untraced and one traced run of every workload of this checkout."""
    return {
        workload["name"]: {f"trace{trace}": runner(ROOT, workload["name"], seed, seconds, trace)
                           for trace in (0, 1)}
        for workload in benchmark["workloads"]
    }


def _value(result: dict, name: str):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def _quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of ``values``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(benchmark: dict, parent: Path, seed: int, seconds: float, pairs: int,
            runner) -> dict:
    """``pairs`` alternated pairs of untraced runs and one traced run of each side,
    per workload, with each end-to-end metric's median ratio, the pairs the
    change won (ties count for neither side), each side's quartiles and
    whether the gap between the medians exceeds the parent's q3 - q1."""
    sides = {"parent": parent, "change": ROOT}
    out = {}
    for workload in benchmark["workloads"]:
        name = workload["name"]
        kept = []
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            kept.append({"first": order[0],
                         **{side: runner(sides[side], name, seed, seconds, 0) for side in order}})
        traced = {side: runner(sides[side], name, seed, seconds, 1) for side in sides}
        metrics = {}
        for metric in benchmark["end_to_end"]:
            before = [_value(pair["parent"], metric["name"]) for pair in kept]
            after = [_value(pair["change"], metric["name"]) for pair in kept]
            lower = metric["better"] == "lower"
            parent_q, change_q = _quartiles(before), _quartiles(after)
            gap, spread = change_q[1] - parent_q[1], parent_q[2] - parent_q[0]
            metrics[metric["name"]] = {
                "median_ratio": statistics.median(a / b for a, b in zip(after, before)),
                "change_won": sum(a < b if lower else a > b for a, b in zip(after, before)),
                "pairs": pairs,
                "parent_quartiles": parent_q,
                "change_quartiles": change_q,
                "median_gap": gap,
                "parent_spread": spread,
                "gap_exceeds_spread": abs(gap) > spread,
            }
        out[name] = {
            "pairs": kept,
            "traced": traced,
            "summary": {
                "metrics": metrics,
                **{side: {key: _value(traced[side], key) for key in ("process.cpu_s", *COUNTS)}
                   for side in sides},
            },
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file: BENCH_<LABEL>.json")
    parser.add_argument("--pair", metavar="PARENT_DIR", type=Path, default=None,
                        help="compare the checkout at PARENT_DIR with this one")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    document = {
        "label": args.label,
        "seed": SEED,
        "seconds": seconds,
        "revision": revision(ROOT),
        "host": host(),
    }
    if args.pair is None:
        document["runs"] = record(benchmark, SEED, seconds, run_perfbench)
    else:
        parent = args.pair.resolve()
        document.update(parent_revision=revision(parent), pairs=PAIRS,
                        workloads=compare(benchmark, parent, SEED, seconds, PAIRS,
                                          run_perfbench))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
