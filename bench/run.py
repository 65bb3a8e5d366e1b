"""Benchmark entry point: ``python3 bench/run.py --workload NAME``.

Options: ``--seed N`` (default 7), ``--seconds S`` (timed loop length),
``--trace 0|1``. ``--workload all`` runs every workload untraced and
traced, each in a fresh process, and prints every metric with its unit
and sample count. See ``bench/README.md``.
"""

import os
import sys

#: BLAS threads used for every run, capped by the CPUs this process may use.
BLAS_THREADS = 2


def pin_threads() -> int:
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


if __name__ == "__main__":
    threads = pin_threads()
    import harness

    sys.exit(harness.main(sys.argv[1:], threads))
