"""Set-up probe: a fresh process imports the package and makes the workload's first call.

Run by `run.py`, which times this whole process from spawn to exit:

    python3 perfbench/probe.py <workload> <output-dir>

Exits 1 if the first call's output fails its check; the parent reports that.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports every module of the package)

if __name__ == "__main__":
    job = workloads.warmup_job(sys.argv[1])
    out_dir = Path(sys.argv[2])
    out = workloads.check(job, workloads.call(job, out_dir), out_dir)
    sys.exit(1 if out.failed else 0)
