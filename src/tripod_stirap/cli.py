"""Command-line front end: simulate | sweep | figures | constants.

Every run emits plot-ready CSV (12 significant digits, '#' comment line with
the resolved configuration) plus a JSON manifest with checksums.  Identical
invocations produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, dk, effective, liouville
from .errors import NoCrossing, StepBudgetExceeded, TripodError, WrongOrdering, ZeroDelay
from .pulses import DephasingMatrix, Ordering, PulseConfig
from .tripod import geometric_phase

C_S_REF, C_U_REF, C_TOL = 2.42, 0.68, 0.01


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % x


def _parse_grid(text: str) -> np.ndarray:
    """Accept 'a:b:n' (inclusive linspace) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be a:b:n, got {text!r}")
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError("range must request at least one point")
        return np.linspace(a, b, n)
    values = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    if values.size == 0:
        raise ValueError("empty value list")
    return values


def _load_config_file(path: str) -> dict:
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line must be key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            data[key.strip().lower().replace("-", "_")] = value.strip()
    return data


class _Settings:
    """Precedence: command-line flag, then config-file key, then default.

    A command reads the file keys named like its own flags, so any other key in the file, a
    misspelt one too, exits 2 before anything runs.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _load_config_file(args.config) if getattr(args, "config", None) else {}
        # a file key stands for a flag of the command; these entries come from the command line
        read = set(vars(args)) - {"command", "func", "config", "out", "out_dir", "name"}
        for key in sorted(set(self.file) - read):
            raise ValueError(f"config key {key!r} in {args.config} is not read by {args.command}")

    def get(self, key: str, default, cast):
        flag = getattr(self.args, key, None)
        if flag is not None:
            # numeric flags are already cast by argparse; string flags are not
            return cast(flag) if isinstance(flag, str) and cast is not str else flag
        if key in self.file:
            return cast(self.file[key])
        return default

    def either(self, *keys: str) -> tuple | None:
        """(key, value) of the exclusive key set, or None; flags first, two in one source raise."""
        for source in (vars(self.args), self.file):
            found = [(key, source[key]) for key in keys if source.get(key) is not None]
            if len(found) > 1:
                raise ValueError("specify either {}, not both".format(
                    " or ".join("--" + key.replace("_", "-") for key in keys)))
            if found:
                return found[0]
        return None


def _resolve_gamma(s: _Settings):
    """DephasingMatrix plus the (key, value) pair recorded in the config line."""
    key, value = s.either("gamma", "gamma_file") or ("gamma", 0.0)
    if key == "gamma_file":
        return DephasingMatrix.from_file(value), (key, value)
    return DephasingMatrix.equal(float(value)), (key, float(value))


def _build_config(s: _Settings):
    ordering = s.get("ordering", None, Ordering.parse)
    if ordering is None:
        raise ValueError("an ordering is required (flag --ordering or config key ordering)")
    gamma, gamma_entry = _resolve_gamma(s)
    cfg = PulseConfig(
        ordering=ordering,
        omega0=s.get("omega0", 50.0, float),
        tau=s.get("tau", 1.5, float),
        gamma=gamma,
        width=s.get("width", 1.0, float),
        t_start=s.get("t_start", None, float),
        t_end=s.get("t_end", None, float),
    )
    entries = {
        "ordering": cfg.ordering.value,
        "omega0": cfg.omega0,
        "tau": cfg.tau,
        "width": cfg.width,
        gamma_entry[0]: gamma_entry[1],
        "t_start": cfg.start,
        "t_end": cfg.end,
    }
    return cfg, entries


def _config_line(entries: dict) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in entries.items())


def _marker(error: str | None) -> str:
    """A row's error text as one CSV field: commas become semicolons."""
    return (error or "").replace(",", ";")


def _sweep_report(result: analysis.SweepResult) -> dict:
    """A sweep's solves and warnings for the manifest; none of it goes into the CSV.

    Each batch is listed once with its derivative calls and the rows it
    solved; each row that warned is listed with its warning texts.
    """
    return {
        "batches": [{"nfev": int(nfev), "rows": np.flatnonzero(result.batch == k).tolist()}
                    for k, nfev in enumerate(result.nfev)],
        "warnings": [{"row": i, result.axis: value, "warnings": list(texts)}
                     for i, (value, texts) in enumerate(zip(result.values.tolist(),
                                                            result.warnings)) if texts],
    }


# rows formatted, written and hashed at a time by _write_csv
_CSV_ROWS = 2048


def _write_csv(path: Path, entries: dict, header: list[str], table: np.ndarray,
               markers=None) -> dict:
    """Write the comment line, the header and the rows of a 2-D float table; with `markers`,
    each row ends in its string marker.  Blocks of _CSV_ROWS rows are formatted in one
    %-format over their flattened values, then written and hashed, so a long table never
    exists as one string.  A table with no rows leaves one empty line."""
    row = ",".join(["%.12g"] * table.shape[1])
    markers = None if markers is None else iter(markers)
    digest = hashlib.sha256()
    with path.open("wb") as f:
        for first in range(0, max(len(table), 1), _CSV_ROWS):
            block = table[first:first + _CSV_ROWS]
            body = "\n".join([row] * len(block)) % tuple(block.ravel().tolist())
            if markers is not None:
                body = "\n".join(f"{cells},{marker}"
                                 for cells, marker in zip(body.split("\n"), markers))
            if first == 0:
                body = f"# {_config_line(entries)}\n{','.join(header)}\n{body}"
            blob = (body + "\n").encode("utf-8")
            f.write(blob)
            digest.update(blob)
        return {"path": path.name, "sha256": digest.hexdigest(), "bytes": f.tell()}


def _write_manifest(path: Path, command: str, entries: dict, outputs: list[dict],
                    elapsed: float, **sections) -> None:
    """The run's manifest; each keyword that is not None, such as a sweep's report or a
    trajectory's stats, adds its own entry."""
    manifest = {
        "command": command,
        "config": {k: (v if isinstance(v, str) else float(v)) for k, v in entries.items()},
        "outputs": outputs,
        "version": __version__,
        "wall_clock_s": round(elapsed, 6),
        **{name: value for name, value in sections.items() if value is not None},
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    s = _Settings(args)
    cfg, entries = _build_config(s)
    engine = s.get("engine", "master", str).lower()
    basis = s.get("basis", "bare", str).lower()
    samples = s.get("samples", 2000, int)
    if engine not in ("master", "effective"):
        raise ValueError(f"simulate engine must be master or effective, got {engine!r}")
    if basis not in ("bare", "adiabatic"):
        raise ValueError(f"basis must be bare or adiabatic, got {basis!r}")
    if engine == "effective" and basis == "adiabatic":
        raise ValueError("basis selection applies to the master engine")
    entries = {"command": "simulate", "engine": engine, "basis": basis,
               "samples": samples, **entries}

    if engine == "master":
        traj = liouville.integrate(cfg, basis=liouville.Basis(basis), samples=samples)
    else:
        traj = effective.integrate_suv(cfg, samples=samples)

    header = ["t", "rho11", "rho22", "rho33", "rho44",
              "rho_a11", "rho_a22", "rho_a33", "rho_a44",
              "re_rho_a12", "im_rho_a12", "F2"]
    coh = traj.rho_a[:, 0, 1]
    table = np.column_stack([traj.t, traj.populations, traj.adiabatic_populations,
                             coh.real, coh.imag, traj.fidelity])

    out = Path(args.out)
    outputs = [_write_csv(out, entries, header, table)]
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", entries,
                    outputs, time.perf_counter() - t0, stats=traj.stats)
    return 0


# ------------------------------------------------------------------- sweep

def cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    s = _Settings(args)
    cfg, entries = _build_config(s)
    engine_name = s.get("engine", "master", str).lower()
    try:
        engine = analysis.Engine(engine_name)
    except ValueError:
        raise ValueError("engine must be master, effective or analytic, "
                         f"got {engine_name!r}") from None
    samples = s.get("samples", 2000, int)
    eps = s.get("epsilon", 0.1, float)
    t_max_eval = s.get("t_max_eval", None, float)
    axis = s.get("axis", None, str)
    if axis is None:
        raise ValueError("an axis is required (flag --axis or config key axis)")

    grid = s.either("values", "range")
    if grid is None:
        raise ValueError("sweep needs --values or --range")
    values = _parse_grid(grid[1])

    result = analysis.sweep(cfg, axis, values, engine, samples=samples, eps=eps,
                            t_max_eval=t_max_eval)
    entries = {"command": "sweep", "engine": engine.value, "axis": axis,
               "values": ",".join(_fmt(v) for v in values),
               "samples": samples, "epsilon": eps,
               "t_max_eval": t_max_eval if t_max_eval is not None else 5.0 * cfg.width,
               **entries}

    header = [axis, "F2_final", "F2_tmax", "T_tr", "theta_g", "error_marker"]
    table = np.column_stack([result.values, result.F2_final, result.F2_tmax, result.T_tr,
                             result.theta_g])

    out = Path(args.out)
    outputs = [_write_csv(out, entries, header, table, map(_marker, result.errors))]
    _write_manifest(out.with_name(out.name + ".manifest.json"), "sweep", entries,
                    outputs, time.perf_counter() - t0, sweep=_sweep_report(result))
    # a NoCrossing row keeps its F2 and theta_g: the sweep fails only with no usable row
    if not any(e is None or e.startswith(NoCrossing.__name__) for e in result.errors):
        print("error: every sweep point failed", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------- figures

@dataclass(frozen=True)
class Figure:
    """One figure dataset: a master-equation grid and the columns built from it.

    The batch runs over the product of the axes, first axis major.  The
    `rows` axis gives the CSV rows and a second axis gives one column per
    value; a trajectory figure has no rows axis and writes the time samples
    of each axis value in turn.  A cell holds the final F2, the final
    populations (written next to their closed forms as a second CSV), the
    whole trajectory or the transition time T_tr.  The two final-state cells
    are solved with no output grid; only the trajectory and T_tr cells are
    sampled at `--samples` points.
    """

    ordering: Ordering
    fixed: dict     # PulseConfig parameters held constant, in comment-line order
    axes: dict      # axis -> default grid, in batch order
    rows: str | None
    cell: str       # "f2" | "populations" | "trajectory" | "T_tr"
    closed_form: tuple = ()   # Demkov-Kunike F2 columns along the rows axis
    extras: dict = field(default_factory=dict)  # further comment-line entries


_GAMMAS = np.linspace(0.0, 2.0, 9)
_OMEGAS = np.array([20.0, 50.0, 100.0, 200.0])
# flag (or config key) -> the axis or extra entry it sets, and its parser
_FIGURE_FLAGS = {"gamma_grid": ("gamma", _parse_grid), "tau_grid": ("tau", _parse_grid),
                 "omega0_list": ("omega0", _parse_grid), "t_max_eval": ("t_max_eval", float)}
_COLUMN_LABELS = {"omega0": "omega"}  # header prefix of a column axis, if not its name

FIGURES = {
    "fig3": Figure(Ordering.OVERLAP, {"omega0": 50.0, "tau": 1.5}, {"gamma": _GAMMAS},
                   "gamma", "populations"),
    "fig4": Figure(Ordering.OVERLAP, {"omega0": 50.0, "tau": 1.5}, {"gamma": _GAMMAS},
                   "gamma", "f2", closed_form=("f2_analytic_tmax", "f2_analytic_final"),
                   extras={"t_max_eval": 5.0}),
    "fig5a": Figure(Ordering.OVERLAP, {"gamma": 0.0},
                    {"omega0": _OMEGAS, "tau": np.linspace(0.25, 2.5, 10)}, "tau", "f2"),
    "fig5b": Figure(Ordering.OVERLAP, {"gamma": 1.0},
                    {"omega0": _OMEGAS, "tau": np.linspace(0.25, 2.5, 10)}, "tau", "f2",
                    closed_form=("f2_analytic_final",)),
    "fig6": Figure(Ordering.SCP, {"omega0": 200.0},
                   {"gamma": _GAMMAS, "tau": np.array([1.0, 1.5, 2.0])}, "gamma", "f2"),
    "fig7": Figure(Ordering.SCP, {"omega0": 200.0, "gamma": 0.0},
                   {"tau": np.linspace(0.5, 2.5, 9)}, "tau", "T_tr", extras={"epsilon": 0.1}),
    "fig8": Figure(Ordering.FRACTIONAL, {"omega0": 200.0},
                   {"gamma": _GAMMAS, "tau": np.array([0.5, 1.0, 1.5])}, "gamma", "f2"),
    "fig9a": Figure(Ordering.FRACTIONAL, {"omega0": 200.0, "gamma": 0.0},
                    {"tau": np.array([0.5, 1.0, 1.5])}, None, "trajectory"),
    # The lower threshold (1 + eps) * cos^2(theta_g) must stay below both 1
    # and 1 - eps, which for eps = 0.1 needs theta_g > 0.44, i.e. tau > ~0.7.
    "fig9b": Figure(Ordering.FRACTIONAL, {"omega0": 200.0, "gamma": 0.0},
                    {"tau": np.linspace(0.75, 1.5, 4)}, "tau", "T_tr", extras={"epsilon": 0.1}),
}


def _figure_config(fig: Figure, point: dict) -> PulseConfig:
    params = {**fig.fixed, **point}
    gamma = params.pop("gamma")
    return PulseConfig(ordering=fig.ordering, gamma=DephasingMatrix.equal(gamma), **params)


def _solve_report(stats) -> dict:
    """A master batch for the manifest: its derivative calls, once, and the worst
    invariant errors over the members' `stats`."""
    return {"nfev": stats[0]["nfev"],
            "trace_error": max(member["trace_error"] for member in stats),
            "hermiticity_error": max(member["hermiticity_error"] for member in stats),
            "min_eigenvalue": min(member["min_eigenvalue"] for member in stats)}


def _figure_tables(name: str, fig: Figure, s: _Settings, samples: int) -> tuple:
    """(filename, comment entries, header, table[, markers]) of every CSV the figure writes,
    and the figure's manifest sections: the sweep report of a T_tr figure, the solve report
    of a final-state or trajectory figure, and the rows whose closed-form cells are NaN, with
    the row errors of the analytic sweep that gives those cells."""
    settings = {**fig.axes, **fig.extras}
    for key, (target, parse) in _FIGURE_FLAGS.items():
        value = s.get(key, None, parse)
        if value is not None:
            if target not in settings:
                raise ValueError(f"--{key.replace('_', '-')} does not apply to {name} "
                                 f"(axes of {name}: {', '.join(fig.axes)})")
            if target == fig.rows and (fig.cell == "T_tr" or fig.closed_form):  # a sweep's grid
                analysis.check_values(value, f"--{key.replace('_', '-')} of {name}: values")
            settings[target] = value
    analysis.check_evaluation(settings.get("epsilon", 0.1), settings.get("t_max_eval", 0.0))
    axes = list(fig.axes)
    grids = {axis: settings[axis] for axis in axes}
    entries = {"ordering": fig.ordering.value, **fig.fixed,
               **{f"{axis}_list": ",".join(_fmt(v) for v in grids[axis])
                  for axis in axes if axis != fig.rows},
               **{key: settings[key] for key in fig.extras}, "samples": samples}
    cfgs = [_figure_config(fig, dict(zip(axes, point)))
            for point in itertools.product(*grids.values())]

    if fig.cell == "T_tr":
        result = analysis.sweep(cfgs[0], fig.rows, grids[fig.rows], analysis.Engine.MASTER,
                                samples=samples, eps=settings["epsilon"])
        header = [fig.rows, "T_tr", "error_marker"]
        return [(f"{name}.csv", entries, header, np.column_stack([result.values, result.T_tr]),
                 map(_marker, result.errors))], {"sweep": _sweep_report(result)}

    if fig.closed_form:
        # the closed-form columns along the rows axis: one analytic sweep, which marks a
        # failing row and leaves its cells NaN; without --t-max-eval, F2_tmax is F2_final
        closed = analysis.sweep(cfgs[0], fig.rows, grids[fig.rows], analysis.Engine.ANALYTIC,
                                t_max_eval=settings.get("t_max_eval", math.inf))

    # a trajectory is sampled; the other cells read each member's final state, solved with
    # no output grid
    trajs = [*liouville.integrate_many(cfgs, samples=samples if fig.cell == "trajectory" else None)]
    sections = {"solve": _solve_report([traj.stats for traj in trajs])}
    if fig.cell == "trajectory":
        rows = np.concatenate([np.column_stack([np.full(len(traj.t), v), traj.t, traj.fidelity])
                               for v, traj in zip(grids[axes[0]], trajs)])
        return [(f"{name}.csv", entries, [*axes, "t", "f2"], rows)], sections

    finals = [traj.populations[-1] if fig.cell == "populations" else traj.fidelity[-1]
              for traj in trajs]
    grid = grids[fig.rows]
    at = {**fig.fixed, fig.rows: grid}  # the closed forms' gamma and tau
    if fig.cell == "populations":
        header = [fig.rows, "rho11", "rho22", "rho33", "rho44"]
        rows = np.column_stack([grid, finals])
        p = dk.analytic_dark_observables(at["gamma"], cfgs[0], 0.0, tau=at["tau"])[0]
        q = 0.5 - p
        return [(f"{name}_numeric.csv", {**entries, "engine": "master"}, header, rows),
                (f"{name}_analytic.csv", {**entries, "engine": "analytic"}, header,
                 np.column_stack([grid, q, q, p, p]))], sections

    f2 = np.reshape(finals, [len(g) for g in grids.values()])
    columns = [f"f2_{_COLUMN_LABELS.get(axis, axis)}_{_fmt(v)}" for axis in axes if axis != fig.rows
               for v in grids[axis]] or ["f2_master"]
    table = [grid, f2 if axes[0] == fig.rows else f2.T]
    if fig.closed_form:
        table += [closed.F2_tmax if column == "f2_analytic_tmax" else closed.F2_final
                  for column in fig.closed_form]
        sections["closed_form"] = [{"row": i, fig.rows: float(grid[i]), "error": error}
                                   for i, error in enumerate(closed.errors) if error] or None
    return [(f"{name}.csv", entries, [fig.rows, *columns, *fig.closed_form],
             np.column_stack(table))], sections


def cmd_figures(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    s = _Settings(args)
    name = args.name.lower()
    if name not in FIGURES:
        raise ValueError(f"unknown figure {args.name!r} (expected one of: {', '.join(FIGURES)})")
    samples = s.get("samples", 2000, int)
    # written to the comment line of every figure, so checked even where nothing is sampled
    liouville.check_samples(samples)
    tables, sections = _figure_tables(name, FIGURES[name], s, samples)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    entries_all = {"command": "figures", "figure": name}
    for filename, entries, header, *table in tables:
        outputs.append(_write_csv(out_dir / filename, {**entries_all, **entries}, header, *table))
    _write_manifest(out_dir / f"{name}.manifest.json", "figures", entries_all,
                    outputs, time.perf_counter() - t0, **sections)
    return 0


# --------------------------------------------------------------- constants

def cmd_constants(args: argparse.Namespace) -> int:
    epsabs = args.epsabs if args.epsabs is not None else 1e-10
    if not (math.isfinite(epsabs) and epsabs > 0.0):
        raise ValueError("--epsabs must be finite and positive")
    cfg = PulseConfig(ordering=Ordering.OVERLAP, omega0=50.0, tau=1.5)
    ai = dk.adiabatic_integrals(1.0, cfg, epsabs=epsabs)
    ok_s = abs(ai.c_s - C_S_REF) <= C_TOL
    ok_u = abs(ai.c_u - C_U_REF) <= C_TOL
    print(f"c_s = {ai.c_s:.9f} (reference {C_S_REF} +- {C_TOL}) "
          f"[{'ok' if ok_s else 'FAIL'}]")
    print(f"c_u = {ai.c_u:.9f} (reference {C_U_REF} +- {C_TOL}) "
          f"[{'ok' if ok_u else 'FAIL'}]")
    print("geometric angle samples:")
    for ordering, taus in ((Ordering.SCP, (1.0, 1.5, 2.0)),
                           (Ordering.FRACTIONAL, (0.5, 1.0, 1.5))):
        for tau in taus:
            thg = geometric_phase(PulseConfig(ordering=ordering, omega0=200.0, tau=tau))
            print(f"  {ordering.value:10s} tau = {tau:.1f}T: theta_g = {thg:+.6f}")
    return 0 if (ok_s and ok_u) else 1


# ------------------------------------------------------------------ parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ordering", help="overlap | scp | csp | fractional")
    parser.add_argument("--omega0", type=float, help="peak Rabi frequency in 1/T (default 50)")
    parser.add_argument("--tau", type=float, help="pulse delay in T (default 1.5)")
    parser.add_argument("--width", type=float, help="pulse width T (default 1)")
    parser.add_argument("--gamma", type=float, help="equal dephasing rate in 1/T")
    parser.add_argument("--gamma-file", help="path to a 4x4 dephasing-rate matrix")
    parser.add_argument("--t-start", type=float, help="window start (default -(6 width + tau))")
    parser.add_argument("--t-end", type=float, help="window end (default 6 width + tau)")
    parser.add_argument("--samples", type=int, help="output samples per window (default 2000)")
    parser.add_argument("--config", help="key=value config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripod",
                                     description="Dephasing STIRAP toolkit for tripod systems")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one trajectory and dump it as CSV")
    _add_common(p_sim)
    p_sim.add_argument("--engine", help="master | effective (default master)")
    p_sim.add_argument("--basis", help="bare | adiabatic (master engine only)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="scan gamma or tau and tabulate scalar outputs")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", help="gamma | tau")
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--range", help="a:b:n inclusive linspace")
    p_sweep.add_argument("--engine", help="master | effective | analytic (default master)")
    p_sweep.add_argument("--epsilon", type=float, help="transition-time threshold (default 0.1)")
    p_sweep.add_argument("--t-max-eval", type=float,
                         help="finite evaluation time for F2_tmax (default 5 width)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="reproduce a figure dataset")
    p_fig.add_argument("name", help="one of: " + ", ".join(FIGURES))
    p_fig.add_argument("--out-dir", default=".", help="output directory (default .)")
    p_fig.add_argument("--samples", type=int, help="samples per trajectory (default 2000)")
    p_fig.add_argument("--gamma-grid", help="override gamma grid (a:b:n or comma list)")
    p_fig.add_argument("--tau-grid", help="override tau grid (a:b:n or comma list)")
    p_fig.add_argument("--omega0-list", help="override peak Rabi list (fig5 only)")
    p_fig.add_argument("--t-max-eval", type=float, help="finite evaluation time (fig4)")
    p_fig.add_argument("--config", help="key=value config file")
    p_fig.set_defaults(func=cmd_figures)

    p_const = sub.add_parser("constants", help="recompute decay constants and angle samples")
    p_const.add_argument("--epsabs", type=float, help="quadrature tolerance (default 1e-10)")
    p_const.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, WrongOrdering, ZeroDelay, StepBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TripodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
