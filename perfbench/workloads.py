"""Seeded workloads of the benchmark: their inputs, their calls and their output checks.

Every workload is a fixed list of jobs drawn from one seed.  A job is one call
into a public entry point of the package: `cli.main` (the `tripod` command
line) or `analysis.sweep`.  The package only ever receives the generated
values.  `call` is the timed part; `check` runs afterwards, untimed, and
gives a verdict for every point.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tripod_stirap import analysis, cli
from tripod_stirap.errors import TripodError
from tripod_stirap.pulses import DephasingMatrix, Ordering, PulseConfig

WORKLOADS = ("master-grid", "dense-trajectory", "effective-sweep", "analytic-sweep")
DEFAULT_SEED = 0

# F2 is a squared overlap; the master engine's rtol lets it leave [0, 1] by ~1e-9
F2_SLACK = 1e-6
# agreement with the values recorded when the benchmark was defined; a changed
# numerical path may move F2 at the 1e-11 level, not by more than this
REFERENCE_ATOL = 1e-7

SIMULATE_HEADER = ("t", "rho11", "rho22", "rho33", "rho44",
                   "rho_a11", "rho_a22", "rho_a33", "rho_a44",
                   "re_rho_a12", "im_rho_a12", "F2")


@dataclass(frozen=True)
class Sweep:
    """Arguments of one `analysis.sweep` call; gamma is the equal dephasing rate."""

    ordering: str
    omega0: float
    tau: float
    gamma: float
    axis: str
    values: tuple
    engine: str
    samples: int


@dataclass(frozen=True)
class Job:
    """One call into the package: a `tripod` command line or a sweep."""

    name: str
    points: int
    argv: tuple = ()     # command line without its output flag
    sweep: Sweep | None = None
    header: tuple = ()   # expected CSV header of a command line
    rows: int = 0        # expected CSV row count of a command line
    echo: tuple = ()     # expected first CSV column (the gamma grid of a figure)


@dataclass
class JobOutput:
    """What the check of one job found."""

    bad: np.ndarray  # one flag per point: True where the point failed
    digest: str
    output_bytes: int = 0
    output_rows: int = 0
    problems: list = field(default_factory=list)
    values: tuple = ()  # per point, the F2 values that were checked

    @property
    def failed(self) -> int:
        return int(self.bad.sum())

    def fail_all(self, problem: str) -> None:
        self.bad[:] = True
        self.problems.append(problem)


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> tuple:
    """One uniform draw in each of n equal strata: sorted, distinct, evenly spread."""
    edges = np.linspace(lo, hi, n + 1)
    return tuple(float(v) for v in edges[:-1] + rng.random(n) * np.diff(edges))


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The fixed job list of one round; the same seed always gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    if workload == "master-grid":
        # an antithetic pair (g, 2.5 - g): master nfev falls almost linearly
        # with gamma on [0.5, 2], so the pair costs the same for every seed
        g = 0.5 + 0.75 * float(rng.random())
        gammas = (g,) if tiny else (g, 2.5 - g)
        samples = "50" if tiny else "200"
        return [
            Job(fig, len(gammas) * len(taus),
                argv=("figures", fig, "--gamma-grid", ",".join(map(repr, gammas)),
                      "--samples", samples),
                header=("gamma",) + tuple(f"f2_tau_{t}" for t in taus),
                rows=len(gammas), echo=gammas)
            for fig, taus in (("fig6", ("1", "1.5", "2")), ("fig8", ("0.5", "1", "1.5")))
        ]

    if workload == "dense-trajectory":
        samples = 500 if tiny else 10000
        jobs = []
        for engine, basis in (("master", "bare"), ("master", "adiabatic"), ("effective", "bare")):
            gamma, tau = float(rng.random()), 1.0 + float(rng.random())
            argv = ("simulate", "--ordering", "overlap", "--omega0", "50",
                    "--gamma", repr(gamma), "--tau", repr(tau), "--samples", str(samples),
                    "--engine", engine, "--basis", basis)
            jobs.append(Job(f"simulate-{engine}-{basis}", 1, argv=argv,
                            header=SIMULATE_HEADER, rows=samples))
        return jobs

    if workload == "effective-sweep":
        n, samples = (2, 500) if tiny else (8, 2000)
        jobs = []
        for ordering in ("overlap", "scp", "csp"):
            taus = _stratified(rng, 0.5, 2.5, n)
            jobs.append(Job(f"sweep-tau-{ordering}", n, sweep=Sweep(
                ordering, 50.0, taus[0], 0.0, "tau", taus, "effective", samples)))
        return jobs

    # analytic-sweep
    n = 20 if tiny else 2000
    tau0 = 1.0 + float(rng.random())
    gammas = _stratified(rng, 0.0, 2.0, n)
    gamma0 = 0.25 + 0.75 * float(rng.random())
    taus = _stratified(rng, 0.5, 3.0, n)
    return [
        Job("sweep-gamma", n, sweep=Sweep("overlap", 50.0, tau0, 0.0, "gamma", gammas,
                                          "analytic", 2000)),
        Job("sweep-tau", n, sweep=Sweep("overlap", 50.0, taus[0], gamma0, "tau", taus,
                                        "analytic", 2000)),
    ]


def warmup_job(workload: str) -> Job:
    """The workload's first, untimed call: its entry point at the smallest size.

    It pays for SciPy's lazy imports and, on the analytic path, fills the
    `dk._decay_constants` cache.
    """
    if workload in ("master-grid", "dense-trajectory"):
        argv = ("simulate", "--ordering", "overlap", "--omega0", "20", "--samples", "200")
        return Job("warmup", 1, argv=argv, header=SIMULATE_HEADER, rows=200)
    engine = "effective" if workload == "effective-sweep" else "analytic"
    return Job("warmup", 1, sweep=Sweep("overlap", 50.0, 1.5, 0.5, "tau", (1.5,), engine, 200))


def call(job: Job, out_dir: Path):
    """Run the job through the package's public entry point; this is what is timed."""
    if job.sweep is None:
        if job.argv[0] == "figures":
            return cli.main([*job.argv, "--out-dir", str(out_dir)])
        return cli.main([*job.argv, "--out", str(out_dir / f"{job.name}.csv")])
    s = job.sweep
    cfg = PulseConfig(ordering=Ordering(s.ordering), omega0=s.omega0, tau=s.tau,
                      gamma=DephasingMatrix.equal(s.gamma))
    try:
        return analysis.sweep(cfg, s.axis, np.asarray(s.values), analysis.Engine(s.engine),
                              samples=s.samples)
    except TripodError as exc:
        return exc


def _f2_ok(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values))
                and np.all(values >= -F2_SLACK) and np.all(values <= 1.0 + F2_SLACK))


def _failed_job(job: Job, problem: str) -> JobOutput:
    return JobOutput(np.ones(job.points, dtype=bool), "", problems=[problem])


def _read_cli_output(job: Job, out_dir: Path):
    """(manifest entry, CSV bytes) of the job's single CSV file."""
    if job.argv[0] == "figures":
        manifest = out_dir / f"{job.argv[1]}.manifest.json"
    else:
        manifest = out_dir / f"{job.name}.csv.manifest.json"
    outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    if len(outputs) != 1:
        raise ValueError(f"expected one CSV output, manifest lists {len(outputs)}")
    return outputs[0], (out_dir / outputs[0]["path"]).read_bytes()


def _check_cli(job: Job, raw, out_dir: Path) -> JobOutput:
    if raw != 0:
        return _failed_job(job, f"exit code {raw}")
    try:
        entry, blob = _read_cli_output(job, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return _failed_job(job, f"unreadable output: {exc}")
    lines = blob.decode("utf-8").splitlines()
    header = tuple(lines[1].split(",")) if len(lines) > 1 else ()
    rows = lines[2:]
    out = JobOutput(np.zeros(job.points, dtype=bool), entry["sha256"], len(blob), len(rows))
    if hashlib.sha256(blob).hexdigest() != entry["sha256"] or len(blob) != entry["bytes"]:
        out.fail_all("manifest checksum does not match the CSV")
    if not lines or not lines[0].startswith("# "):
        out.fail_all("missing configuration comment line")
    if header != job.header:
        out.fail_all(f"header {header} != {job.header}")
    if len(rows) != job.rows:
        out.fail_all(f"{len(rows)} rows, expected {job.rows}")
    if out.problems:
        return out
    table = np.array([[float(x) for x in row.split(",")] for row in rows])

    if job.echo:
        # a figure: one point per grid cell, and the first column echoes the grid
        out.values = tuple(np.array([v]) for v in table[:, 1:].ravel())
        out.bad[:] = [not _f2_ok(v) for v in out.values]
        if not np.allclose(table[:, 0], job.echo, rtol=1e-11, atol=0.0):
            out.fail_all("gamma column does not echo the requested grid")
    else:
        # a trajectory: one point, every column finite, the F2 column in [0, 1]
        out.values = (table[:, -1],)
        out.bad[0] = not (np.all(np.isfinite(table)) and _f2_ok(table[:, -1]))
    if out.failed and not out.problems:
        out.problems.append(f"{out.failed} point(s) with F2 non-finite or outside [0, 1]")
    return out


def _check_sweep(job: Job, raw) -> JobOutput:
    if isinstance(raw, TripodError):
        return _failed_job(job, f"{type(raw).__name__}: {raw}")
    if not np.array_equal(raw.values, job.sweep.values) or len(raw.points) != job.points:
        return _failed_job(job, "sweep rows do not match the grid")
    bad, values, digest = [], [], hashlib.sha256()
    for p in raw.points:
        f2 = np.array([p.F2_final, p.F2_tmax])
        # a NoCrossing row is a physics outcome when F2 itself is fine
        physics = p.error is None or p.error.startswith("NoCrossing")
        bad.append(not (physics and _f2_ok(f2)))
        values.append(f2)
        digest.update(repr((p.value, p.F2_final, p.F2_tmax, p.T_tr, p.theta_g, p.error)).encode())
    out = JobOutput(np.array(bad), digest.hexdigest(), output_rows=len(raw.points),
                    values=tuple(values))
    if out.failed:
        out.problems.append(f"{out.failed} point(s) failed")
    return out


def check(job: Job, raw, out_dir: Path) -> JobOutput:
    """Validate every point of one job's result (untimed)."""
    if job.sweep is None:
        return _check_cli(job, raw, out_dir)
    return _check_sweep(job, raw)


# ------------------------------------------------------------ reference values

REF_MAX_POINTS = 64
REF_MAX_VALUES = 101


def reference_sample(values: tuple) -> dict:
    """A bounded, evenly spaced subset of a job's checked values, keyed by point index."""
    n = len(values)
    picks = np.unique(np.linspace(0, n - 1, min(n, REF_MAX_POINTS)).round().astype(int))
    out = {}
    for i in picks:
        v = np.asarray(values[i])
        idx = np.unique(np.linspace(0, v.size - 1, min(v.size, REF_MAX_VALUES)).round().astype(int))
        out[str(int(i))] = [[int(k), float(v[k])] for k in idx]
    return out


def reference_misses(sample: dict, values: tuple) -> list[int]:
    """Indices of points whose values differ from the recorded sample by more than REFERENCE_ATOL."""
    misses = []
    for i, pairs in sample.items():
        i = int(i)
        v = np.asarray(values[i]) if i < len(values) else np.empty(0)
        if any(k >= v.size or not math.isclose(v[k], ref, rel_tol=0.0, abs_tol=REFERENCE_ATOL)
               for k, ref in pairs):
            misses.append(i)
    return misses
