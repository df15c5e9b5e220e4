"""The benchmark's workloads.

Each workload builds its input from a seed with the package's own
functions (``build``), may write files the operation reads (``prepare``;
benchmark work, not timed as set-up), runs one timed operation
(``operation``) and checks that operation's outputs (``check``), which
returns the canonical payload bytes used for the determinism check.
Every operation of a run repeats the same call, so all do identical work.

Sizes are fields with the benchmarked values as defaults; the benchmark's
own tests run the same code at tiny sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from causalboot import cli, engine
from causalboot.config import BlbConfig
from causalboot.simulation import generate_wide_dgm

from perfbench import checks

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "result_schema.json"
# Rows the CSV writer formats at a time, so that the writer's memory stays
# far below the operation's peak RSS.
CSV_CHUNK_ROWS = 10_000


class OperationFailed(Exception):
    """The operation raised or exited with a non-zero code."""


def _call_cli(argv: list[str]) -> None:
    """Call the ``causalboot`` entry point in-process, quietly."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    if code != 0:
        raise OperationFailed(f"causalboot {argv[0]} exited {code}: {err.getvalue().strip()}")


def _truth(table, gamma: float) -> dict:
    """Counts computed from the generated arrays, and round(n**gamma)."""
    w = np.asarray(table.w)
    n = int(w.shape[0])
    n1 = int(np.count_nonzero(w == 1))
    return {"n": n, "n0": n - n1, "n1": n1, "subset_size": checks.expected_subset_size(n, gamma)}


def _take(path: Path) -> str:
    """Read an output file and remove it, so the next operation cannot
    pass its checks on a stale copy."""
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def _canonical(document) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def write_csv(table, path: Path) -> None:
    """Write ``table`` as y,w,x1..xp with floats in Python's shortest
    round-trip form (what ``csv.writer`` emits), so parsing the file gives
    back the generated arrays exactly."""
    header = ["y", "w"] + [f"x{j + 1}" for j in range(table.p)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, table.n, CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            cols = [table.y[rows].tolist(), table.w[rows].tolist()]
            cols += [table.x[rows, j].tolist() for j in range(table.p)]
            handle.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


@dataclass
class AnalyzeCsv:
    """``causalboot analyze`` on a CSV written from generate_wide_dgm."""

    n: int = 200_000
    p: int = 5
    gamma: float = 0.7
    subsets: int = 10
    replicates: int = 100
    table: object = field(default=None, repr=False)

    def build(self, seed: int) -> None:
        self.seed = seed
        self.table = generate_wide_dgm(self.n, self.p, np.random.default_rng(seed))

    def prepare(self, work: Path) -> None:
        self.csv_path = work / "input.csv"
        self.out_dir = work / "analyze"
        write_csv(self.table, self.csv_path)
        # The values passed equal the CLI defaults; passing them pins the
        # work if a default ever changes.
        self.argv = [
            "analyze", "--input", str(self.csv_path), "--outcome", "y", "--treatment", "w",
            "--covariates", ",".join(f"x{j + 1}" for j in range(self.p)),
            "--method", "logistic", "--gamma", repr(self.gamma),
            "--subsets", str(self.subsets), "--replicates", str(self.replicates),
            "--ci", "percentile", "--seed", str(self.seed), "--threads", "1",
            "--output", str(self.out_dir),
        ]

    def operation(self) -> None:
        _call_cli(self.argv)

    def check(self) -> bytes:
        document = json.loads(_take(self.out_dir / "result.json"))
        checks.check_schema(document, SCHEMA_PATH)
        payload = document["payload"]
        truth = _truth(self.table, self.gamma)
        checks.check_sizes(payload, truth)
        b = truth["subset_size"]
        checks.check_subsets(payload["subsets"], b, self.subsets, self.replicates)
        checks.check_effect(payload["tau_hat"], payload["se"], truth["n"], self.subsets, b)
        return _canonical(payload)


@dataclass
class BlbLargeB:
    """``run_blb`` on an in-memory table, with large subsets."""

    n: int = 1_000_000
    p: int = 2
    gamma: float = 0.85
    subsets: int = 2
    replicates: int = 100
    table: object = field(default=None, repr=False)

    def build(self, seed: int) -> None:
        self.table = generate_wide_dgm(self.n, self.p, np.random.default_rng(seed))
        self.config = BlbConfig(
            gamma=self.gamma, subsets=self.subsets, replicates=self.replicates,
            seed=seed, estimator="logistic", ci_kind="percentile", threads=1,
        )

    def prepare(self, work: Path) -> None:
        pass

    def operation(self) -> None:
        self.result = engine.run_blb(self.table, self.config)

    def check(self) -> bytes:
        res, self.result = self.result, None
        subsets = [
            {
                "id": e.subset_id, "b0": e.b0, "b1": e.b1, "mean": e.mean, "se": e.se,
                "q_lower": e.q_lower, "q_upper": e.q_upper, "hajek": e.hajek,
                "draws_sha256": hashlib.sha256(np.ascontiguousarray(e.draws).tobytes()).hexdigest(),
            }
            for e in res.subsets
        ]
        payload = {
            "tau_hat": res.tau_hat, "se": res.se, "hajek": res.hajek,
            "ci": [res.ci.lower, res.ci.upper],
            "n": res.n, "n0": res.n0, "n1": res.n1, "subset_size": res.b, "subsets": subsets,
        }
        truth = _truth(self.table, self.gamma)
        checks.check_sizes(payload, truth)
        b = truth["subset_size"]
        checks.check_subsets(subsets, b, self.subsets, self.replicates)
        for e in res.subsets:
            if e.draws.shape != (self.replicates,):
                raise checks.CheckError(f"subset {e.subset_id} has {e.draws.shape} draws")
        checks.check_effect(res.tau_hat, res.se, truth["n"], self.subsets, b)
        return _canonical(payload)


@dataclass
class SimulateCbps:
    """``causalboot simulate``: the paper's bias/coverage study with CBPS."""

    n: int = 2000
    replications: int = 50
    gamma: float = 0.7
    subsets: int = 10
    replicates: int = 100

    def build(self, seed: int) -> None:
        # The input of this workload is its argument list; the data sets
        # are generated inside each operation by the program itself.
        # Parsing the list here makes a malformed one fail at set-up.
        self.seed = seed
        self.args = [
            "simulate", "--method", "cbps", "--n", str(self.n),
            "--replications", str(self.replications), "--gamma", repr(self.gamma),
            "--subsets", str(self.subsets), "--replicates", str(self.replicates),
            "--seed", str(seed), "--threads", "1",
        ]
        cli.build_parser().parse_args(self.args + ["--output", "."])

    def prepare(self, work: Path) -> None:
        self.out_dir = work / "simulate"
        self.argv = self.args + ["--output", str(self.out_dir)]

    def operation(self) -> None:
        _call_cli(self.argv)

    def check(self) -> bytes:
        document = json.loads(_take(self.out_dir / "summary.json"))
        rows = checks.parse_zipplot(_take(self.out_dir / "zipplot.csv"))
        checks.check_simulation(document["payload"], rows, self.replications, self.n)
        return _canonical({"payload": document["payload"], "zipplot": rows})


WORKLOADS = {
    "analyze_csv": AnalyzeCsv,
    "blb_large_b": BlbLargeB,
    "simulate_cbps": SimulateCbps,
}
