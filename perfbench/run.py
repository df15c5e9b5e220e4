"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a causalboot checkout; the package is imported from
its ``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics (median operation wall time, peak RSS, set-up time); with
``--trace 1`` it alternates untraced and traced operations and reports
per-layer figures and the tracing overhead.  Every operation's outputs
are checked; the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See perfbench/README.md for the workloads and the reasons for each setting.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import THREAD_VARS, checks, layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# One BLAS/OpenMP thread, set before numpy is first imported (here or in a
# set-up probe, which inherits the environment).
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

REQUIRED_FILES = ("src/causalboot/__init__.py", "docs/result_schema.json")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# Self times must account for an operation's wall time to within this
# share; the rest is the cost of opening and closing the root span.
SELF_TIME_TOLERANCE = 1e-3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    check_failed: bool = False
    first_payload: bytes | None = None


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_operation(workload, tally: Tally, tracer=None):
    """One operation, then its checks.

    Returns (wall seconds, process CPU seconds, trace or None), or None
    when the operation raised, exited non-zero or failed a check.
    """
    tally.attempted += 1
    trace = None
    if tracer is not None:
        layers.install(tracer)
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.begin(layers.ROOT_LAYER)
        try:
            workload.operation()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                trace = tracer.close()
    except Exception:
        tally.failed += 1
        _log("operation failed:\n" + traceback.format_exc())
        return None
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        payload = workload.check()
        if tally.first_payload is None:
            tally.first_payload = payload
        checks.check_same_payload(tally.first_payload, payload)
        if trace is not None:
            covered = sum(trace.self_seconds.values())
            if not abs(wall - covered) <= SELF_TIME_TOLERANCE * wall:
                raise checks.CheckError(f"self times sum to {covered!r} s of a {wall!r} s operation")
    except Exception:
        tally.failed += 1
        tally.check_failed = True
        _log("output check failed:\n" + traceback.format_exc())
        return None
    return wall, cpu, trace


def measure(workload, seconds: float, trace: bool, tally: Tally) -> dict:
    """Warm up, then run whole rounds until ``seconds`` have passed.

    A round is one untraced operation, followed with ``trace`` by one
    traced operation.  Returns the per-operation figures.
    """
    run_operation(workload, tally)  # warm-up: checked and counted, not timed
    tracer = Tracer() if trace else None
    walls, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        done = run_operation(workload, tally)
        if done is not None:
            walls.append(done[0])
        if tracer is not None:
            done = run_operation(workload, tally, tracer)
            if done is not None:
                traced.append(done)
        if time.perf_counter() >= deadline:
            break
    return {"trace": trace, "walls": walls, "traced": traced}


def setup_seconds(workload_name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import plus input build."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(figures: dict, setups: list[float]) -> dict | None:
    """Metrics by name from ``measure``'s figures, or None when no
    operation succeeded.  A traced run gives the per-layer metrics and
    the tracing overhead; an untraced one the end-to-end metrics."""
    walls, traced = figures["walls"], figures["traced"]
    if not walls or (figures["trace"] and not traced):
        return None
    if figures["trace"]:
        per_op = [layers.metrics(trace, cpu) for _, cpu, trace in traced]
        metrics = {
            name: _metric(statistics.median(op[name] for op in per_op), unit)
            for name, unit in layers.UNITS.items()
        }
        traced_wall = statistics.median(wall for wall, _, _ in traced)
        untraced_wall = statistics.median(walls)
        metrics["trace.op_wall_s"] = _metric(traced_wall, "s")
        metrics["trace.untraced_op_wall_s"] = _metric(untraced_wall, "s")
        metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
        return metrics
    return {
        "op_wall_s": _metric(statistics.median(walls), "s"),
        # ru_maxrss is in KiB on Linux; MB here means 2**20 bytes.
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        _log(f"{ROOT} is not a causalboot checkout: missing {', '.join(missing)}")
        return 2

    from perfbench.workloads import WORKLOADS

    import causalboot

    if Path(causalboot.__file__).resolve().parent != ROOT / "src" / "causalboot":
        _log(f"imported causalboot from {causalboot.__file__}, not from this checkout")
        return 2
    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2

    setups = [] if args.trace else setup_seconds(args.workload, args.seed)
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.build(args.seed)
        workload.prepare(work)
        tally = Tally()
        figures = measure(workload, args.seconds, bool(args.trace), tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = summarize(figures, setups)
    if metrics is None:
        _log("no operation succeeded; nothing to report")
        return 1
    _log(f"{args.workload}: {tally.failed} of {tally.attempted} operations failed; "
         f"untraced walls {[round(w, 4) for w in figures['walls']]}, "
         f"traced walls {[round(w, 4) for w, _, _ in figures['traced']]}")
    result = {
        "correct": not tally.check_failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
