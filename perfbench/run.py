"""Benchmark of the tripod-stirap toolkit: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload master-grid --seed 0 --seconds 20 --trace 0

One caller in one process runs the workload's fixed job list round after
round (closed loop: the next job starts when the previous one returns) for
about `--seconds`, checks every output, and prints the end-to-end metrics
(`--trace 0`) or the per-layer metrics of one extra traced round
(`--trace 1`).  The last line of standard output is the JSON result.  See
perfbench/README.md.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # before NumPy is imported: one BLAS thread here and in the set-up probes,
    # and the package's own thread pools off
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TRIPOD_THREADS", None)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "tripod_stirap" / "__init__.py").is_file():
        print(f"benchmark error: package source not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main())
