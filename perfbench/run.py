"""Run one privlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audit|certify|distill --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
environment included, goes to ``perfbench/results/``.
"""

import os
import sys

# BLAS runs on one thread so that the numbers measure privlab's own work,
# not OpenBLAS threads spin-waiting between the many small calls; privlab's
# own worker count (PRIVLAB_THREADS) stays at its default.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS to one thread; call before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PRIVLAB_THREADS", None)


if __name__ == "__main__":
    pin_threads()
    from harness import main   # imports numpy, so only after the pinning

    sys.exit(main(sys.argv[1:]))
