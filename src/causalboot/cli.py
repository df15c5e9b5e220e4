"""Command-line interface.

Subcommands: ``analyze`` (estimate an effect from a CSV), ``simulate``
(bias/coverage replication study), ``relerr`` (relative-error
trajectories), ``benchmark`` (timing grid).  Structured results are
written as JSON with a deterministic ``payload`` section; anything meant
for plotting is written as tidy CSV.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import BlbConfig, CI_KINDS
from .data import load_csv
from .engine import BlbEstimate, run_blb
from .errors import CausalbootError, ConfigError, DataError, EstimationError
from .simulation import benchmark_timing, run_relerr_harness, run_replications

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4


# ---------------------------------------------------------------------
# Option plumbing: precedence is flags > config file > defaults.
# ---------------------------------------------------------------------

def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for i, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge(args: argparse.Namespace, file_values: dict[str, str], key: str, default, cast):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return cast(file_values[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config file option {key}={file_values[key]!r}: {exc}") from exc
    return default


def _parse_truncation(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _split_list(cast):
    """List parser raising ValueError (for config-file values)."""

    def parse(text):
        if isinstance(text, (list, tuple)):
            return list(text)
        return [cast(part.strip()) for part in str(text).split(",") if part.strip()]

    return parse


def _csv_list(cast):
    """List parser for argparse flags."""

    def parse(text: str):
        try:
            return _split_list(cast)(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _default_threads() -> int:
    return os.cpu_count() or 1


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _interval_dict(ci) -> dict:
    return {"kind": ci.kind, "alpha": ci.alpha, "lower": ci.lower, "upper": ci.upper}


def _estimate_payload(result: BlbEstimate, balance_threshold: float) -> dict:
    subsets = []
    for est in result.subsets:
        subsets.append(
            {
                "id": est.subset_id,
                "b0": est.b0,
                "b1": est.b1,
                "mean": est.mean,
                "se": est.se,
                "q_lower": est.q_lower,
                "q_upper": est.q_upper,
                "hajek": est.hajek,
                "asym_lower": est.asym_lower,
                "asym_upper": est.asym_upper,
                "redraws": est.redraws,
                "fit": {
                    "method": est.fit_method,
                    "converged": est.fit_converged,
                    "iterations": est.fit_iterations,
                    "objective": est.fit_objective,
                    "clamped": est.clamped,
                },
                "balance": {
                    "smd": dict(est.balance.smd),
                    "max_abs_smd": est.balance.max_abs_smd,
                    "threshold": balance_threshold,
                    "passed": est.balance.passed,
                    "not_applicable": list(est.balance.not_applicable),
                },
            }
        )
    return _json_safe(
        {
            "tau_hat": result.tau_hat,
            "se": result.se,
            "hajek": result.hajek,
            "ci": _interval_dict(result.ci),
            "ci_percentile": _interval_dict(result.ci_percentile),
            "ci_asymptotic": _interval_dict(result.ci_asymptotic),
            "n": result.n,
            "n0": result.n0,
            "n1": result.n1,
            "subset_size": result.b,
            "subsets": subsets,
            "diagnostics": result.diagnostics,
        }
    )


def _manifest(command: str, config_dict: dict, seed: int, started: str, threads: int,
              input_digest: str | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": _json_safe(config_dict),
        "seed": seed,
        "threads": threads,
        "input_digest": input_digest,
        "started_utc": started,
        "finished_utc": _utcnow(),
    }


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def _write_json(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------

def _add_common_blb_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", default=None,
                     help="logistic | cbps | marginal | external:PATH")
    sub.add_argument("--gamma", type=float, default=None,
                     help="subset exponent, b = n**gamma")
    sub.add_argument("--subsets", type=int, default=None, help="number of subsets s")
    sub.add_argument("--replicates", type=int, default=None,
                     help="bootstrap replicates r per subset")
    sub.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    sub.add_argument("--ci", choices=CI_KINDS, default=None, help="interval kind")
    sub.add_argument("--alpha", type=float, default=None, help="interval level (default 0.05)")
    sub.add_argument("--output", default=None, help="output directory (default .)")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: machine parallelism)")
    sub.add_argument("--config", default=None, help="key=value config file")


def _split_method(method: str) -> tuple[str, str | None]:
    if method.startswith("external:"):
        path = method.split(":", 1)[1]
        if not path:
            raise ConfigError("external method requires a path: external:PATH")
        return "external", path
    if method == "external":
        raise ConfigError("external method requires a path: external:PATH")
    return method, None


def _build_config(args, file_values) -> BlbConfig:
    """Merge flags and file values over the ``BlbConfig`` defaults; only
    ``threads`` defaults to the machine's parallelism instead."""
    default = BlbConfig()
    method = _merge(args, file_values, "method", default.estimator, str)
    estimator, scores_path = _split_method(method)
    gamma = _merge(args, file_values, "gamma", None, float)
    subset_size = _merge(args, file_values, "subset_size", default.subset_size, int)
    if gamma is not None and subset_size is not None:
        raise ConfigError("--gamma and --subset-size are mutually exclusive")
    if gamma is None and subset_size is None:
        gamma = default.gamma
    config = BlbConfig(
        gamma=gamma,
        subset_size=subset_size,
        subsets=_merge(args, file_values, "subsets", default.subsets, int),
        replicates=_merge(args, file_values, "replicates", default.replicates, int),
        seed=_merge(args, file_values, "seed", default.seed, int),
        truncation=_merge(args, file_values, "truncate", default.truncation,
                          lambda s: tuple(float(v) for v in s.split(","))),
        alpha=_merge(args, file_values, "alpha", default.alpha, float),
        ci_kind=_merge(args, file_values, "ci", default.ci_kind, str),
        estimator=estimator,
        external_scores=scores_path,
        balance_threshold=_merge(args, file_values, "balance_threshold",
                                 default.balance_threshold, float),
        redraw_on_imbalance=_merge(args, file_values, "redraw_on_imbalance",
                                   default.redraw_on_imbalance, _parse_bool),
        max_redraws=_merge(args, file_values, "max_redraws", default.max_redraws, int),
        weight_cap=_merge(args, file_values, "weight_cap", default.weight_cap, float),
        threads=_merge(args, file_values, "threads", _default_threads(), int),
    )
    return config.validate()


def cmd_analyze(args: argparse.Namespace) -> int:
    started = _utcnow()
    file_values = _read_config_file(args.config) if args.config else {}
    config = _build_config(args, file_values)
    outcome = _merge(args, file_values, "outcome", None, str)
    treatment = _merge(args, file_values, "treatment", None, str)
    covariates = _merge(args, file_values, "covariates", None, _split_list(str))
    if not outcome or not treatment or not covariates:
        raise ConfigError("--outcome, --treatment and --covariates are required")
    na_policy = _merge(args, file_values, "na_policy", "reject", str)
    out_dir = Path(_merge(args, file_values, "output", ".", str))

    t0 = time.perf_counter()
    table = load_csv(args.input, outcome, treatment, covariates, na_policy=na_policy)
    load_seconds = time.perf_counter() - t0
    result = run_blb(table, config)

    payload = _estimate_payload(result, config.balance_threshold)
    payload["diagnostics"]["dropped_rows"] = table.dropped_rows
    document = {
        "payload": payload,
        "manifest": _manifest("analyze", config.resolved(), config.seed, started,
                              config.threads, input_digest=_digest(args.input)),
        "timing": {
            "load_seconds": load_seconds,
            **result.timings,
        },
    }
    _write_json(out_dir / "result.json", document)
    if args.emit_draws:
        rows = [
            [est.subset_id, j, float(d)]
            for est in result.subsets
            for j, d in enumerate(est.draws)
        ]
        _write_csv(out_dir / "draws.csv", ["subset", "replicate", "estimate"], rows)
    print(
        f"tau_hat={result.tau_hat:.6g} se={result.se:.6g} "
        f"ci=({result.ci.lower:.6g}, {result.ci.upper:.6g}) [{result.ci.kind}]"
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    started = _utcnow()
    file_values = _read_config_file(args.config) if args.config else {}
    config = _build_config(args, file_values)
    n = _merge(args, file_values, "n", None, int)
    R = _merge(args, file_values, "replications", None, int)
    if n is None or R is None:
        raise ConfigError("--n and --replications are required")
    out_dir = Path(_merge(args, file_values, "output", ".", str))

    summary = run_replications(R, n, config, seed=config.seed, threads=config.threads)
    payload = _json_safe(
        {
            "replications": summary.replications,
            "n": n,
            "tau": summary.tau,
            "mean_tau_hat": summary.bias + summary.tau,
            "bias": summary.bias,
            "mcse_mean": summary.mcse_mean,
            "mean_se": summary.mean_se,
            "coverage": summary.coverage,
            "coverage_mcse": summary.coverage_mcse,
            "coverage_percentile": summary.coverage_percentile,
            "coverage_asymptotic": summary.coverage_asymptotic,
        }
    )
    document = {
        "payload": payload,
        "manifest": _manifest("simulate", {**config.resolved(), "n": n, "replications": R},
                              config.seed, started, config.threads),
        "timing": {
            "per_replication_quartiles": list(summary.timing_quartiles),
        },
    }
    _write_json(out_dir / "summary.json", document)
    zip_rows = summary.zip_rows()
    _write_csv(
        out_dir / "zipplot.csv",
        ["replication", "tau_hat", "se", "lower", "upper", "covered", "centile_rank"],
        [[r["replication"], r["tau_hat"], r["se"], r["lower"], r["upper"],
          r["covered"], r["centile_rank"]] for r in zip_rows],
    )
    print(
        f"bias={summary.bias:.6g} (mcse {summary.mcse_mean:.3g}) "
        f"coverage={summary.coverage:.3f} (mcse {summary.coverage_mcse:.3f})"
    )
    return EXIT_OK


def cmd_relerr(args: argparse.Namespace) -> int:
    started = _utcnow()
    file_values = _read_config_file(args.config) if args.config else {}
    n = _merge(args, file_values, "n", None, int)
    gammas = _merge(args, file_values, "gammas", None, _split_list(float))
    if n is None or not gammas:
        raise ConfigError("--n and --gammas are required")
    r = _merge(args, file_values, "replicates", 100, int)
    oracle_reps = _merge(args, file_values, "oracle_reps", 1000, int)
    data_reps = _merge(args, file_values, "data_reps", 10, int)
    seed = _merge(args, file_values, "seed", 0, int)
    out_dir = Path(_merge(args, file_values, "output", ".", str))

    trajectories = run_relerr_harness(
        n, gammas, r=r, oracle_reps=oracle_reps, data_reps=data_reps, seed=seed
    )
    rows = []
    for traj in trajectories:
        for s, secs, err in zip(traj.subset_counts, traj.cum_seconds, traj.err):
            rows.append([traj.gamma, s, secs, err])
    _write_csv(out_dir / "relerr.csv", ["gamma", "subsets", "cum_seconds", "err"], rows)
    document = {
        "payload": _json_safe(
            {
                "oracle_ci": list(trajectories[0].oracle_ci) if trajectories else None,
                "n": n,
                "gammas": gammas,
                "terminal_err": {str(t.gamma): t.err[-1] for t in trajectories},
            }
        ),
        "manifest": _manifest(
            "relerr",
            {"n": n, "gammas": gammas, "replicates": r, "oracle_reps": oracle_reps,
             "data_reps": data_reps, "seed": seed},
            seed, started, 1,
        ),
        "timing": {
            "per_gamma_total_seconds": {str(t.gamma): t.cum_seconds[-1] for t in trajectories},
        },
    }
    _write_json(out_dir / "relerr_summary.json", document)
    for t in trajectories:
        print(f"gamma={t.gamma}: terminal err={t.err[-1]:.4f}")
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    started = _utcnow()
    file_values = _read_config_file(args.config) if args.config else {}
    ns = _merge(args, file_values, "ns", None, _split_list(int))
    methods = _merge(args, file_values, "methods", ["logistic", "cbps"], _split_list(str))
    s_values = _merge(args, file_values, "subsets", [2, 10], _split_list(int))
    if ns is None:
        raise ConfigError("--ns is required")
    p = _merge(args, file_values, "p", 2, int)
    reps = _merge(args, file_values, "reps", 100, int)
    seed = _merge(args, file_values, "seed", 0, int)
    grid = bool(getattr(args, "grid", False))
    out_dir = Path(_merge(args, file_values, "output", ".", str))

    grid_ps = [2, 10, 50] if grid and p == 2 else [p]
    cells = benchmark_timing(
        ns, methods, s_values if not grid else [2, 4], p=p, reps=reps, seed=seed,
        grid=grid, grid_ps=grid_ps if grid else None,
    )
    rows = [
        [cell.n, cell.p, cell.method, cell.s, rep, sec]
        for cell in cells
        for rep, sec in enumerate(cell.seconds)
    ]
    _write_csv(out_dir / "timings.csv", ["n", "p", "method", "s", "rep", "seconds"], rows)
    med_rows = [
        [cell.n, cell.p, cell.method, cell.s, cell.median_seconds] for cell in cells
    ]
    _write_csv(out_dir / "medians.csv", ["n", "p", "method", "s", "median_seconds"], med_rows)
    document = {
        "payload": {"cells": len(cells)},
        "manifest": _manifest(
            "benchmark",
            {"ns": ns, "methods": methods, "subsets": s_values, "p": p,
             "reps": reps, "seed": seed, "grid": grid},
            seed, started, 1,
        ),
        "timing": {},
    }
    _write_json(out_dir / "benchmark_summary.json", document)
    for cell in cells:
        print(f"n={cell.n} p={cell.p} {cell.method} s={cell.s}: "
              f"median {cell.median_seconds:.4f}s")
    return EXIT_OK


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalboot",
        description="Subset-bootstrap estimation of average treatment effects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="estimate an effect from a CSV file")
    analyze.add_argument("--input", required=True, help="input CSV path")
    analyze.add_argument("--outcome", default=None, help="outcome column name")
    analyze.add_argument("--treatment", default=None, help="treatment column name (0/1)")
    analyze.add_argument("--covariates", type=_csv_list(str), default=None,
                         help="comma-separated covariate column names")
    analyze.add_argument("--subset-size", dest="subset_size", type=int, default=None,
                         help="fixed subset size b (mutually exclusive with --gamma)")
    analyze.add_argument("--truncate", dest="truncate", type=_parse_truncation,
                         default=None, help="score truncation bounds LO,HI")
    analyze.add_argument("--balance-threshold", dest="balance_threshold", type=float,
                         default=None, help="max |SMD| considered balanced")
    analyze.add_argument("--na-policy", dest="na_policy", choices=("reject", "drop"),
                         default=None, help="handling of rows with missing cells")
    analyze.add_argument("--emit-draws", action="store_true",
                         help="also write per-subset replicate draws CSV")
    _add_common_blb_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    simulate = commands.add_parser("simulate", help="bias/coverage replication study")
    simulate.add_argument("--n", type=int, default=None, help="rows per simulated dataset")
    simulate.add_argument("--replications", type=int, default=None,
                          help="independent replications (at least 10)")
    simulate.add_argument("--subset-size", dest="subset_size", type=int, default=None)
    simulate.add_argument("--truncate", dest="truncate", type=_parse_truncation, default=None)
    _add_common_blb_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    relerr = commands.add_parser("relerr", help="relative-error trajectories")
    relerr.add_argument("--n", type=int, default=None)
    relerr.add_argument("--gammas", type=_csv_list(float), default=None,
                        help="comma-separated gamma values")
    relerr.add_argument("--replicates", type=int, default=None)
    relerr.add_argument("--oracle-reps", dest="oracle_reps", type=int, default=None)
    relerr.add_argument("--data-reps", dest="data_reps", type=int, default=None)
    relerr.add_argument("--seed", type=int, default=None)
    relerr.add_argument("--output", default=None)
    relerr.add_argument("--config", default=None)
    relerr.set_defaults(func=cmd_relerr)

    benchmark = commands.add_parser("benchmark", help="timing benchmarks")
    benchmark.add_argument("--ns", type=_csv_list(int), default=None,
                           help="comma-separated dataset sizes")
    benchmark.add_argument("--methods", type=_csv_list(str), default=None,
                           help="comma-separated methods")
    benchmark.add_argument("--subsets", type=_csv_list(int), default=None,
                           help="comma-separated subset counts")
    benchmark.add_argument("--p", type=int, default=None, help="number of confounders")
    benchmark.add_argument("--reps", type=int, default=None, help="timed runs per cell")
    benchmark.add_argument("--grid", action="store_true",
                           help="vary (n, p) with s in {2, 4}, timing fits only")
    benchmark.add_argument("--seed", type=int, default=None)
    benchmark.add_argument("--output", default=None)
    benchmark.add_argument("--config", default=None)
    benchmark.set_defaults(func=cmd_benchmark)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except CausalbootError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
