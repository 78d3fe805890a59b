"""Benchmark of subspace-lrr on generated inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 55 --trace 0

Workloads: paper-grid, wide-n, subspaces, no-solve (see workloads.py);
BENCHMARK.json lists the ones measured on every change.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Records of each run go to perfbench/out/.
"""

import os
import sys

# One BLAS thread: on a shared two-core machine two threads measured up to
# 20% apart from run to run, one thread within 3%. Set before numpy loads.
BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    from harness import main

    sys.exit(main())
