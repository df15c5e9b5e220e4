"""Time one set-up of a workload in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Set-up is what a user pays before the first operation: importing numpy and
causalboot and building the workload's input with the package's own
functions.  The clock starts after the benchmark's own modules are
imported and stops when the input is built.  ``run.py`` calls this script
several times per run and reports the median.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import THREAD_VARS, checks  # noqa: E402,F401  (benchmark code, outside the clock)

os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    WORKLOADS[args.workload]().build(args.seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
