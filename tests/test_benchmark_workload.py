"""The benchmark's ``simulate_cbps`` workload at its benchmarked size.

perfbench's own tests run its workloads at tiny sizes; this one runs
``causalboot simulate`` at the size the benchmark times, through
``perfbench.run.measure``, so that its output checks (the summary
recomputed from ``zipplot.csv``, |bias| within 6 MCSE over 50
replications, the same payload from every operation) hold on the
traced and the untraced operation alike.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.workloads import SimulateCbps  # noqa: E402


def test_simulate_cbps_passes_its_checks_traced_and_untraced(tmp_path):
    workload = SimulateCbps()
    workload.build(11)
    workload.prepare(tmp_path)
    tally = run.Tally()
    run.measure(workload, 0.0, True, tally)
    assert tally.attempted == 3  # warm-up, then one untraced and one traced operation
    assert tally.failed == 0 and not tally.check_failed
