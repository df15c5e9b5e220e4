"""Digests of every command's deterministic output and of direct fits.

Run from the root of a checkout, with no arguments:

    python tools/payload_digests.py

It imports ``causalboot`` from that checkout's ``src``, runs each command
in-process on small synthetic inputs in a temporary directory and prints
one line per run: a label and the first 8 hex digits of the sha256 of
``json.dumps(payload, sort_keys=True)``.  A CSV that a command writes is
digested the same way, as its list of rows, less any column of seconds.
The direct-fit line covers the logistic and balancing fits on synthetic
tables at b = 205..1,278 and p = 1..4 and one balancing fit at
b = 17,411 and p = 20: scores, coefficients, method, ``converged``,
``iterations`` and ``objective``, or the exception a fit raised.

Two checkouts that print the same lines produce byte-identical payloads
and fits.  ``tests/payload_digests.txt`` holds the output with numpy's
dispatch held to its baseline, and ``tests/test_payload_digests.py``
compares a fresh run with it; its docstring gives the command that
regenerates the file.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from causalboot import rng  # noqa: E402
from causalboot.cli import main  # noqa: E402
from causalboot.errors import CausalbootError  # noqa: E402
from causalboot.propensity import expit, fit_cbps, fit_logistic_irls  # noqa: E402
from causalboot.simulation import generate_dgm  # noqa: E402

SEED = 5


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:8]


def report(label: str, payload) -> None:
    print(f"{label:<50} {digest(payload)}")


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"causalboot {' '.join(argv)} exited {code}")


def payload(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["payload"]


def csv_rows(path: Path, drop: tuple[str, ...] = ()) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    return [[row[i] for i in keep] for row in rows]


def write_inputs(tmp: Path) -> tuple[Path, Path]:
    """A 20,000-row CSV of the benchmark process and a file of scores for it."""
    table = generate_dgm(20_000, rng.substream(SEED, rng.DOMAIN_DATASET, 0))
    data = tmp / "data.csv"
    with open(data, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["y", "w", "x1", "x2"])
        for y, w, x in zip(table.y.tolist(), table.w.tolist(), table.x.tolist()):
            out.writerow([repr(y), w, repr(x[0]), repr(x[1])])
    scores = tmp / "scores.txt"
    values = expit(-0.5 * table.x.sum(axis=1))
    scores.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return data, scores


def analyze_runs(tmp: Path) -> None:
    data, scores = write_inputs(tmp)
    common = ["--input", str(data), "--outcome", "y", "--treatment", "w",
              "--covariates", "x1,x2", "--subsets", "4", "--replicates", "50",
              "--seed", str(SEED)]
    runs = {
        "logistic": ["--method", "logistic"],
        "cbps": ["--method", "cbps"],
        "marginal --emit-draws": ["--method", "marginal", "--emit-draws"],
        "external": ["--method", f"external:{scores}"],
        "logistic --redraw-on-imbalance": ["--method", "logistic", "--redraw-on-imbalance",
                                           "--balance-threshold", "0.02"],
    }
    for i, (label, extra) in enumerate(runs.items()):
        for threads in (1, 2):
            out = tmp / f"analyze-{i}-{threads}"
            run(["analyze", *common, *extra, "--threads", str(threads), "--output", str(out)])
            report(f"analyze {label} threads={threads}", payload(out / "result.json"))
            if "--emit-draws" in extra:
                report(f"  draws.csv threads={threads}", csv_rows(out / "draws.csv"))


def simulate_runs(tmp: Path) -> None:
    for threads in (1, 2):
        out = tmp / f"simulate-{threads}"
        run(["simulate", "--n", "2000", "--replications", "10", "--method", "cbps",
             "--subsets", "3", "--replicates", "20", "--seed", str(SEED),
             "--threads", str(threads), "--output", str(out)])
        report(f"simulate cbps threads={threads}", payload(out / "summary.json"))
        report(f"  zipplot.csv threads={threads}", csv_rows(out / "zipplot.csv"))


def relerr_run(tmp: Path) -> None:
    out = tmp / "relerr"
    run(["relerr", "--n", "2000", "--gammas", "0.6,0.7", "--replicates", "20",
         "--oracle-reps", "100", "--data-reps", "2", "--seed", str(SEED), "--output", str(out)])
    report("relerr", payload(out / "relerr_summary.json"))
    report("  relerr.csv without cum_seconds", csv_rows(out / "relerr.csv", ("cum_seconds",)))


def benchmark_runs(tmp: Path) -> None:
    for label, extra in (("benchmark", []), ("benchmark --grid", ["--grid"])):
        out = tmp / label.replace(" ", "")
        run(["benchmark", "--ns", "2000", "--reps", "1", "--seed", str(SEED), *extra,
             "--output", str(out)])
        report(label, payload(out / "benchmark_summary.json"))
        report("  timings.csv without seconds", csv_rows(out / "timings.csv", ("seconds",)))
        report("  medians.csv without seconds",
               csv_rows(out / "medians.csv", ("median_seconds",)))


def fit_record(fit_fn, x, w) -> dict:
    try:
        fit = fit_fn(x, w)
    except CausalbootError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "scores": fit.scores.tolist(), "coefficients": fit.coefficients.tolist(),
        "method": fit.method, "converged": fit.converged,
        "iterations": fit.iterations, "objective": fit.objective,
    }


def direct_fits() -> None:
    records = []
    for i, b in enumerate((205, 300, 437, 637, 928, 1278)):
        for p in (1, 2, 3, 4):
            for k in (0, 1):
                table = generate_dgm(b, rng.substream(SEED, rng.DOMAIN_DATASET, i, p, k), p)
                for fit_fn in (fit_logistic_irls, fit_cbps):
                    records.append(fit_record(fit_fn, table.x, table.w))
    wide = generate_dgm(17_411, rng.substream(SEED, rng.DOMAIN_DATASET, 99), 20)
    records.append(fit_record(fit_cbps, wide.x, wide.w))
    report(f"direct fits ({len(records)})", records)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        analyze_runs(tmp)
        simulate_runs(tmp)
        relerr_run(tmp)
        benchmark_runs(tmp)
    direct_fits()
