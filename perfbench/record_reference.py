"""Record the default seed's outputs as the reference later runs are compared with.

    python3 perfbench/record_reference.py

Run once per deliberate change of the reference (normally never: the
reference stands for the commit at which the benchmark was defined).  Writes
perfbench/reference.json; refuses if any job fails its own output check.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in workloads.WORKLOADS:
            reference[workload] = {}
            for job in workloads.make_jobs(workload, workloads.DEFAULT_SEED):
                out = workloads.check(job, workloads.call(job, Path(tmp)), Path(tmp))
                if out.failed or out.problems:
                    print(f"{workload}/{job.name}: {out.problems}", file=sys.stderr)
                    return 1
                reference[workload][job.name] = {
                    "digest": out.digest, "values": workloads.reference_sample(out.values)}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
