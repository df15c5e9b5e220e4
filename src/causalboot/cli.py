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
from typing import Any, Callable, NamedTuple

from . import __version__
from .config import BlbConfig, CI_KINDS
from .data import NA_POLICIES, load_csv
from .engine import BlbEstimate, SubsetEstimate, run_blb
from .errors import CausalbootError, ConfigError, DataError, EstimationError
from .simulation import TRUE_ATE, ZIP_COLUMNS, benchmark_timing, run_relerr_harness, run_replications

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4


# ---------------------------------------------------------------------
# Options: one table per subcommand.  An entry's name is both its flag
# (--subset-size) and its config-file key (subset_size), and its parse
# function reads the text of either.  Precedence is flags > config file
# > defaults; the run-configuration defaults are BlbConfig's own.
# ---------------------------------------------------------------------

class Option(NamedTuple):
    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str


REQUIRED = object()  # the default of an option that must be given

_RUN = BlbConfig()
BENCH_SUBSETS, GRID_SUBSETS = (2, 10), (2, 4)
BENCH_PS, GRID_PS = (2,), (2, 10, 50)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_bounds(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected LO,HI")
    return (float(parts[0]), float(parts[1]))


def _list_of(cast):
    def parse(text: str) -> list:
        values = [cast(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError("expected a comma-separated list")
        return values

    return parse


def _show(value) -> str:
    """A default as it would be typed."""
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


_OUTPUT = Option("output", str, ".", "output directory")
_REPLICATES = Option("replicates", int, _RUN.replicates, "bootstrap replicates r per subset")
_SEED = Option("seed", int, _RUN.seed, "root seed")

_BLB_OPTIONS = (
    Option("method", str, _RUN.estimator, "logistic | cbps | marginal | external:PATH"),
    Option("gamma", float, None,
           f"subset exponent, b = n**gamma (default {_RUN.gamma} without --subset-size)"),
    Option("subset_size", int, _RUN.subset_size,
           "fixed subset size b (mutually exclusive with --gamma)"),
    Option("subsets", int, _RUN.subsets, "number of subsets s"),
    _REPLICATES,
    _SEED,
    Option("ci", str, _RUN.ci_kind, "interval kind: " + " | ".join(CI_KINDS)),
    Option("alpha", float, _RUN.alpha, "interval level"),
    Option("truncate", _parse_bounds, _RUN.truncation, "score truncation bounds LO,HI"),
    Option("weight_cap", float, _RUN.weight_cap, "largest normalized weight a subset may hold"),
    Option("balance_threshold", float, _RUN.balance_threshold, "max |SMD| considered balanced"),
    Option("redraw_on_imbalance", _parse_bool, _RUN.redraw_on_imbalance,
           "redraw a subset whose max |SMD| exceeds the balance threshold"),
    Option("max_redraws", int, _RUN.max_redraws, "redraws allowed per subset"),
    Option("threads", int, os.cpu_count() or 1, "worker threads; defaults to the CPU count"),
    _OUTPUT,
)

OPTIONS: dict[str, tuple[Option, ...]] = {
    "analyze": (
        Option("input", str, REQUIRED, "input CSV path"),
        Option("outcome", str, REQUIRED, "outcome column name"),
        Option("treatment", str, REQUIRED, "treatment column name (0/1)"),
        Option("covariates", _list_of(str), REQUIRED, "comma-separated covariate column names"),
        Option("na_policy", str, NA_POLICIES[0],
               "rows with missing cells: " + " | ".join(NA_POLICIES)),
        Option("emit_draws", _parse_bool, False, "also write per-subset replicate draws CSV"),
        *_BLB_OPTIONS,
    ),
    "simulate": (
        Option("n", int, REQUIRED, "rows per simulated dataset"),
        Option("replications", int, REQUIRED, "independent replications (at least 10)"),
        *_BLB_OPTIONS,
    ),
    "relerr": (
        Option("n", int, REQUIRED, "rows of the simulated dataset"),
        Option("gammas", _list_of(float), REQUIRED, "comma-separated gamma values"),
        _REPLICATES,
        Option("oracle_reps", int, 1000,
               "fresh datasets the oracle interval is taken over (at least 100)"),
        Option("data_reps", int, 10, "independent datasets averaged over"),
        _SEED,
        _OUTPUT,
    ),
    "benchmark": (
        Option("ns", _list_of(int), REQUIRED, "comma-separated dataset sizes"),
        Option("methods", _list_of(str), ("logistic", "cbps"), "comma-separated methods"),
        Option("subsets", _list_of(int), None, "comma-separated subset counts (default "
               f"{_show(BENCH_SUBSETS)}; {_show(GRID_SUBSETS)} with --grid)"),
        Option("p", _list_of(int), None, "comma-separated confounder counts (default "
               f"{_show(BENCH_PS)}; {_show(GRID_PS)} with --grid)"),
        Option("reps", int, 100, "timed runs per cell"),
        Option("grid", _parse_bool, False, "time only the propensity fits, without resampling"),
        _SEED,
        _OUTPUT,
    ),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_options(sub: argparse.ArgumentParser, table: tuple[Option, ...]) -> None:
    """One flag per table entry, holding its text; a boolean entry is a
    switch.  An absent flag is absent from the namespace."""
    for opt in table:
        text = opt.help
        if opt.default is REQUIRED:
            text += " (required)"
        elif opt.default is not None and opt.parse is not _parse_bool:
            text += f" (default {_show(opt.default)})"
        kind = {"action": "store_const", "const": "true"} if opt.parse is _parse_bool else {}
        sub.add_argument(_flag(opt.name), default=argparse.SUPPRESS,
                         help=text.replace("%", "%%"), **kind)  # help is %-formatted
    sub.add_argument("--config", default=None,
                     help="file of key=value lines; keys are the flag names above")


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


def _options(args: argparse.Namespace) -> argparse.Namespace:
    """The command's table resolved: flags, then the config file, then defaults."""
    table = OPTIONS[args.command]
    names = [opt.name for opt in table]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in config file {args.config}; "
                              f"{args.command} accepts {', '.join(names)}")
    flags = vars(args)
    values = {}
    for opt in table:
        if opt.name in flags:
            where, text = f"option {_flag(opt.name)}", flags[opt.name]
        elif opt.name in file_values:
            where, text = f"config file option {opt.name}", file_values[opt.name]
        elif opt.default is REQUIRED:
            raise ConfigError(f"{_flag(opt.name)} is required (or {opt.name}= in --config)")
        else:
            values[opt.name] = opt.default
            continue
        try:
            values[opt.name] = opt.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{where}={text}: {exc}") from exc
    return argparse.Namespace(**values)


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


def _subset_entry(est: SubsetEstimate) -> dict:
    """One subset of ``payload.subsets``."""
    return {
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
        "fit": dataclasses.asdict(est.fit),
        "balance": dataclasses.asdict(est.balance),
    }


def _estimate_payload(result: BlbEstimate, dropped_rows: int) -> dict:
    return {
        "tau_hat": result.tau_hat,
        "se": result.se,
        "hajek": result.hajek,
        "ci": dataclasses.asdict(result.ci),
        "ci_percentile": dataclasses.asdict(result.ci_percentile),
        "ci_asymptotic": dataclasses.asdict(result.ci_asymptotic),
        "n": result.n,
        "n0": result.n0,
        "n1": result.n1,
        "subset_size": result.b,
        "subsets": [_subset_entry(est) for est in result.subsets],
        "diagnostics": {**result.diagnostics, "dropped_rows": dropped_rows},
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


def _write_result(path: Path, command: str, started: str, payload: dict, config: dict,
                  seed: int, threads: int, timing: dict, input_digest: str | None = None) -> None:
    """Write a command's one result document: its deterministic ``payload``,
    a ``manifest`` of the run, and ``timing``, where every time goes."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": _json_safe(config),
        "seed": seed,
        "threads": threads,
        "input_digest": input_digest,
        "started_utc": started,
        "finished_utc": _utcnow(),
    }
    _write_json(path, {"payload": _json_safe(payload), "manifest": manifest, "timing": timing})


# ---------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------

def _split_method(method: str) -> tuple[str, str | None]:
    if method.startswith("external:"):
        path = method.split(":", 1)[1]
        if not path:
            raise ConfigError("external method requires a path: external:PATH")
        return "external", path
    if method == "external":
        raise ConfigError("external method requires a path: external:PATH")
    return method, None


def _build_config(opts: argparse.Namespace) -> BlbConfig:
    """Options named as a field pass through; gamma defaults if b is not given."""
    estimator, scores_path = _split_method(opts.method)
    same_name = {f.name: getattr(opts, f.name) for f in dataclasses.fields(BlbConfig)
                 if f.name in opts}
    if opts.gamma is None and opts.subset_size is None:
        same_name["gamma"] = _RUN.gamma
    return BlbConfig(**same_name, truncation=opts.truncate, ci_kind=opts.ci,
                     estimator=estimator, external_scores=scores_path)


def _settings(opts: argparse.Namespace) -> dict:
    """The resolved options a manifest records: all but the output directory."""
    return {key: value for key, value in vars(opts).items() if key != "output"}


def cmd_analyze(opts: argparse.Namespace, started: str) -> int:
    config = _build_config(opts)
    out_dir = Path(opts.output)

    t0 = time.perf_counter()
    table = load_csv(opts.input, opts.outcome, opts.treatment, opts.covariates,
                     na_policy=opts.na_policy)
    load_seconds = time.perf_counter() - t0
    result = run_blb(table, config)

    _write_result(out_dir / "result.json", "analyze", started,
                  _estimate_payload(result, table.dropped_rows),
                  dataclasses.asdict(config), config.seed, config.threads,
                  {"load_seconds": load_seconds, **result.timings},
                  input_digest=_digest(opts.input))
    if opts.emit_draws:
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


def cmd_simulate(opts: argparse.Namespace, started: str) -> int:
    config = _build_config(opts)
    n, R = opts.n, opts.replications
    out_dir = Path(opts.output)

    summary = run_replications(R, n, config)
    payload = {
        "replications": summary.replications,
        "n": n,
        "tau": TRUE_ATE,
        "mean_tau_hat": summary.bias + TRUE_ATE,
        "bias": summary.bias,
        "mcse_mean": summary.mcse_mean,
        "mean_se": summary.mean_se,
        "coverage": summary.coverage,
        "coverage_mcse": summary.coverage_mcse,
        "coverage_percentile": summary.coverage_percentile,
        "coverage_asymptotic": summary.coverage_asymptotic,
    }
    _write_result(out_dir / "summary.json", "simulate", started, payload,
                  {**dataclasses.asdict(config), "n": n, "replications": R},
                  config.seed, config.threads,
                  {"per_replication_quartiles": list(summary.timing_quartiles)})
    _write_csv(out_dir / "zipplot.csv", list(ZIP_COLUMNS), summary.zip_rows())
    print(
        f"bias={summary.bias:.6g} (mcse {summary.mcse_mean:.3g}) "
        f"coverage={summary.coverage:.3f} (mcse {summary.coverage_mcse:.3f})"
    )
    return EXIT_OK


def cmd_relerr(opts: argparse.Namespace, started: str) -> int:
    trajectories = run_relerr_harness(
        opts.n, opts.gammas, r=opts.replicates, oracle_reps=opts.oracle_reps,
        data_reps=opts.data_reps, seed=opts.seed,
    )
    rows = []
    for traj in trajectories:
        for s, secs, err in zip(traj.subset_counts, traj.cum_seconds, traj.err):
            rows.append([traj.gamma, s, secs, err])
    out_dir = Path(opts.output)
    _write_csv(out_dir / "relerr.csv", ["gamma", "subsets", "cum_seconds", "err"], rows)
    payload = {
        "oracle_ci": list(trajectories[0].oracle_ci) if trajectories else None,
        "n": opts.n,
        "gammas": opts.gammas,
        "terminal_err": {str(t.gamma): t.err[-1] for t in trajectories},
    }
    _write_result(out_dir / "relerr_summary.json", "relerr", started, payload,
                  _settings(opts), opts.seed, 1,
                  {"per_gamma_total_seconds": {str(t.gamma): t.cum_seconds[-1]
                                               for t in trajectories}})
    for t in trajectories:
        print(f"gamma={t.gamma}: terminal err={t.err[-1]:.4f}")
    return EXIT_OK


def cmd_benchmark(opts: argparse.Namespace, started: str) -> int:
    if opts.subsets is None:
        opts.subsets = list(GRID_SUBSETS if opts.grid else BENCH_SUBSETS)
    if opts.p is None:
        opts.p = list(GRID_PS if opts.grid else BENCH_PS)
    cells = benchmark_timing(
        opts.ns, opts.methods, opts.subsets, ps=opts.p, reps=opts.reps, seed=opts.seed,
        grid=opts.grid,
    )
    rows = [
        [cell.n, cell.p, cell.method, cell.s, rep, sec]
        for cell in cells
        for rep, sec in enumerate(cell.seconds)
    ]
    out_dir = Path(opts.output)
    _write_csv(out_dir / "timings.csv", ["n", "p", "method", "s", "rep", "seconds"], rows)
    med_rows = [
        [cell.n, cell.p, cell.method, cell.s, cell.median_seconds] for cell in cells
    ]
    _write_csv(out_dir / "medians.csv", ["n", "p", "method", "s", "median_seconds"], med_rows)
    _write_result(out_dir / "benchmark_summary.json", "benchmark", started,
                  {"cells": len(cells)}, _settings(opts), opts.seed, 1, {})
    for cell in cells:
        print(f"n={cell.n} p={cell.p} {cell.method} s={cell.s}: "
              f"median {cell.median_seconds:.4f}s")
    return EXIT_OK


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

_COMMANDS = {
    "analyze": (cmd_analyze, "estimate an effect from a CSV file"),
    "simulate": (cmd_simulate, "bias/coverage replication study"),
    "relerr": (cmd_relerr, "relative-error trajectories"),
    "benchmark": (cmd_benchmark, "timing benchmarks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalboot",
        description="Subset-bootstrap estimation of average treatment effects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        _add_options(sub, OPTIONS[name])
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = _utcnow()
    try:
        return args.func(_options(args), started)
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
