"""Measurement, checks and report of one benchmark run; `run.py` is the entry point."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import tracing
import workloads
from clock import CALIBRATION_REFERENCE_S, Clock, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    # only this tree's own repository counts, not one that happens to enclose it
    if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def fingerprint(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "tripod_threads": os.environ.get("TRIPOD_THREADS", "unset"),
    }


class Ledger:
    """Every checked job: attempted and failed points, problems, first-seen digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.first: dict = {}  # job name -> JobOutput of its first run, values kept

    def record(self, job, out) -> None:
        seen = self.digests.setdefault(job.name, out.digest)
        if out.digest != seen:
            # repeated runs of one seed must give byte-identical results
            out.fail_all(f"output digest changed between rounds ({seen[:12]} -> {out.digest[:12]})")
        if job.name not in self.first:
            self.first[job.name] = out
        else:
            out.values = ()
        self.attempted += out.bad.size
        self.failed += out.failed
        self.problems += [f"{job.name}: {p}" for p in out.problems]

    def compare_reference(self, reference: dict) -> int:
        """Mark first-round points that moved away from the recorded reference."""
        matched = 0
        for name, ref in reference.items():
            out = self.first.get(name)
            if out is None:
                self.problems.append(f"{name}: no output to compare with the reference")
                continue
            misses = [i for i in workloads.reference_misses(ref["values"], out.values)
                      if i < out.bad.size and not out.bad[i]]
            out.bad[misses] = True
            self.failed += len(misses)
            if misses:
                self.problems.append(f"{name}: {len(misses)} point(s) differ from the reference")
            matched += out.digest == ref["digest"]
        return matched


def measure_setup(workload: str, out_dir: Path, ledger: Ledger) -> list[tuple[float, float]]:
    """(raw, reference) seconds of fresh processes that import the package and make
    the workload's first call, timed from spawn to exit."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(out_dir)]
    times = []
    for _ in range(SETUP_PROBES):
        clock = Clock(sample=False)  # the parent only waits; the child is timed whole
        proc = clock.timed(subprocess.run, argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            ledger.problems.append(f"set-up probe exited with {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
        times.append((clock.raw_s, clock.reference_s))
    return times


def run_round(jobs, out_dir: Path, ledger: Ledger, tracer=None) -> dict:
    """One pass over the job list, timing only the calls into the package."""
    # no calibration samples inside traced calls: they would land in the spans
    clock = Clock(sample=tracer is None)
    for job_id, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = job_id
        raw = clock.timed(workloads.call, job, out_dir)
        out = workloads.check(job, raw, out_dir)
        if tracer is not None and job.sweep is None:
            tracer.counts["cli.output_bytes"] += out.output_bytes
            tracer.counts["cli.output_rows"] += out.output_rows
        ledger.record(job, out)
    return {"points": sum(job.points for job in jobs),
            "raw_s": clock.raw_s, "reference_s": clock.reference_s, "calls": clock.calls}


def bench(args) -> int:
    units = tracing.metric_units() if args.trace else {
        "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    declared = _declared_metrics(args.trace)
    if units != declared:
        raise BenchError(f"metrics {sorted(units.items())} do not match BENCHMARK.json "
                         f"{sorted(declared.items())}")
    jobs = workloads.make_jobs(args.workload, args.seed, tiny=args.tiny)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        calibrate()  # the kernel's own first call pays NumPy's one-time costs
        ledger = Ledger()
        setup = [] if args.trace else measure_setup(args.workload, out_dir, ledger)
        warm = workloads.warmup_job(args.workload)
        ledger.record(warm, workloads.check(warm, workloads.call(warm, out_dir), out_dir))

        rounds = []
        t_start = perf_counter()
        while True:
            rounds.append(run_round(jobs, out_dir, ledger))
            elapsed = perf_counter() - t_start
            # stop when another round would overrun the budget by more than half
            if elapsed + 0.5 * statistics.median(r["raw_s"] for r in rounds) >= args.seconds:
                break

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_round(jobs, out_dir, ledger, tracer)
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics()
            values["trace.overhead_ratio"] = (
                traced["reference_s"] / statistics.median(r["reference_s"] for r in rounds))
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                         [job.name for job in jobs])
        else:
            values = {
                "points_per_s": statistics.median(r["points"] / r["reference_s"] for r in rounds),
                "setup_s": statistics.median(ref for _, ref in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

        reference_note = "not compared (reference is recorded for the default seed only)"
        if args.seed == workloads.DEFAULT_SEED and not args.tiny:
            reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
            ref = reference[args.workload]
            matched = ledger.compare_reference(ref)
            reference_note = (f"{len(ref)} job(s) compared at atol {workloads.REFERENCE_ATOL:g}; "
                              f"{matched} byte-identical to the recorded outputs")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    correct = ledger.failed == 0 and not ledger.problems
    failed_ratio = ledger.failed / ledger.attempted
    report = {
        "fingerprint": fingerprint(args.workload, args.seed, args.trace),
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "rounds": rounds,
        "setup_s": [{"raw_s": raw, "reference_s": ref} for raw, ref in setup],
        "failed_ratio": failed_ratio,
        "problems": ledger.problems,
        "reference": reference_note,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    raw_s = sum(r["raw_s"] for r in rounds)
    print(f"rounds {len(rounds)}: {sum(r['points'] for r in rounds)} points in {raw_s:.3f} s "
          f"inside the package ({sum(r['reference_s'] for r in rounds):.3f} reference s)")
    for metric, entry in metrics.items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_ratio':40s} {failed_ratio:.6g} ratio ({ledger.failed}/{ledger.attempted})")
    print(f"reference: {reference_note}")
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}")
    print(f"output check: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Benchmark of the tripod-stirap toolkit.")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.trace = bool(args.trace)
    return args


def run_all(args) -> int:
    """Every workload in its own process, one after another, then a summary table."""
    rows, status = [], 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(f"== {workload}\n{proc.stdout}", end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = [f"{v['value']:.6g} {v['unit']}" for v in result["metrics"].values()]
        rows.append((workload, result["failed"] / result["attempted"],
                     "PASS" if result["correct"] else "FAIL", cells))
    print("== summary")
    for workload, failed_ratio, verdict, cells in rows:
        print(f"{workload:18s} " + "  ".join(cells)
              + f"  failed_ratio {failed_ratio:.3g}  output check {verdict}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return bench(args)
    except (BenchError, LookupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
