"""Benchmark for causalboot: three workloads, output checks and a traced run.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""

# Environment variables that size the BLAS and OpenMP thread pools.  They
# are read once, when numpy loads its BLAS, so they must be set before the
# first numpy import of a process.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
