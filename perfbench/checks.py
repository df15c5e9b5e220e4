"""Output checks that every benchmark operation must pass.

Each check compares an output with a value the benchmark computes apart
from the package (counts of the arrays it generated, round(n**gamma), the
true effect of the synthetic process) or with a property the method must
have.  None compares with a stored copy of earlier output.  A failed check
raises ``CheckError``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from pathlib import Path

TRUE_EFFECT = 2.0  # y = sum(x) + eps + 2*w in every synthetic process used

# Multiple of a standard error allowed by the statistical checks.  At six
# standard errors a correct program fails a check about once in 5e8 tries;
# the corruptions the checks exist for (a shift of 1 in an estimate) sit
# hundreds of standard errors out.
K_SE = 6.0

# Absolute tolerance when a summary is recomputed from its own rows.
RECOMPUTE_TOL = 1e-12


class CheckError(Exception):
    """An operation's output failed a check."""


def expected_subset_size(n: int, gamma: float) -> int:
    """round(n**gamma), half up: the subset size the method prescribes."""
    return int(math.floor(n**gamma + 0.5))


def check_schema(document: dict, schema_path: Path) -> None:
    """``document`` validates against the JSON schema at ``schema_path``."""
    import jsonschema

    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    try:
        jsonschema.validate(document, schema)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise CheckError(f"result does not match {schema_path.name} at {where}: {exc.message}") from None


def check_sizes(payload: dict, truth: dict) -> None:
    """n, n0, n1 and subset_size equal the values in ``truth``."""
    for key, want in truth.items():
        got = payload.get(key)
        if got != want:
            raise CheckError(f"{key} is {got!r}, expected {want!r}")


def check_subsets(subsets: list[dict], b: int, s: int, r: int) -> None:
    """Every subset has b0 + b1 = b, and its replicate mean sits within
    K_SE * se / sqrt(r) of its whole-subset weighted estimate (the mean
    of r draws whose expectation is exactly that estimate)."""
    if len(subsets) != s:
        raise CheckError(f"{len(subsets)} subsets, expected {s}")
    for sub in subsets:
        if sub["b0"] + sub["b1"] != b:
            raise CheckError(f"subset {sub['id']}: b0 + b1 = {sub['b0'] + sub['b1']}, expected {b}")
        if min(sub["b0"], sub["b1"]) < 1:
            raise CheckError(f"subset {sub['id']} has an empty arm")
        bound = K_SE * sub["se"] / math.sqrt(r)
        gap = abs(sub["mean"] - sub["hajek"])
        if not gap <= bound:
            raise CheckError(
                f"subset {sub['id']}: |mean - hajek| = {gap:.3g} above {bound:.3g}"
            )


def check_effect(tau_hat: float, se: float, n: int, s: int, b: int) -> None:
    """tau_hat lies within K_SE standard deviations of the true effect.

    The estimate's error has two parts: the data set's own sampling error,
    of size se, and the error of averaging s subsets of b rows around the
    full-data estimate, of size se * sqrt(n / (s * b)).
    """
    sd = se * math.sqrt(1.0 + n / (s * b))
    gap = abs(tau_hat - TRUE_EFFECT)
    if not (se > 0.0 and gap <= K_SE * sd):
        raise CheckError(
            f"|tau_hat - {TRUE_EFFECT}| = {gap:.3g} above {K_SE} * {sd:.3g} (se={se:.3g})"
        )


def check_same_payload(first: bytes, current: bytes) -> None:
    """The determinism contract: identical payloads for identical calls."""
    if first != current:
        raise CheckError("payload differs from the first operation's in this run")


def check_simulation(summary: dict, rows: list[dict], replications: int, n: int) -> None:
    """A ``simulate`` summary agrees with its own ``zipplot.csv`` rows.

    ``rows`` are the CSV's records with numeric fields already parsed.
    Bias, coverage, mean SE and the Monte Carlo SE are recomputed from the
    rows against the true effect, and |bias| must stay within K_SE
    Monte Carlo standard errors.
    """
    for key, want in (("replications", replications), ("n", n), ("tau", TRUE_EFFECT)):
        if summary.get(key) != want:
            raise CheckError(f"summary {key} is {summary.get(key)!r}, expected {want!r}")
    ids = [row["replication"] for row in rows]
    if ids != list(range(replications)):
        raise CheckError(f"zipplot.csv has {len(rows)} rows, not one per replication 0..{replications - 1}")
    taus = [row["tau_hat"] for row in rows]
    covered = [row["lower"] <= TRUE_EFFECT <= row["upper"] for row in rows]
    if [bool(row["covered"]) for row in rows] != covered:
        raise CheckError("zipplot.csv 'covered' disagrees with its interval bounds")
    recomputed = {
        "bias": math.fsum(taus) / replications - TRUE_EFFECT,
        "coverage": sum(covered) / replications,
        "mean_se": math.fsum(row["se"] for row in rows) / replications,
        "mcse_mean": statistics.stdev(taus) / math.sqrt(replications),
    }
    for key, value in recomputed.items():
        if not abs(summary[key] - value) <= RECOMPUTE_TOL * max(1.0, abs(value)):
            raise CheckError(f"summary {key} = {summary[key]!r}, recomputed {value!r}")
    if not abs(summary["bias"]) <= K_SE * summary["mcse_mean"]:
        raise CheckError(
            f"|bias| = {abs(summary['bias']):.3g} above {K_SE} * mcse {summary['mcse_mean']:.3g}"
        )


def parse_zipplot(text: str) -> list[dict]:
    """Rows of a ``zipplot.csv`` with numeric fields parsed."""
    ints = ("replication", "covered")
    return [
        {k: (int(v) if k in ints else float(v)) for k, v in record.items()}
        for record in csv.DictReader(io.StringIO(text))
    ]
