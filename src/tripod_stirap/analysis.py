"""Transition-time extraction and parameter sweeps.

A sweep returns its rows as columns (SweepResult): float arrays for
F2_final, F2_tmax, T_tr and theta_g, and per row the error text, the
warning texts and the batch it was solved in, with each batch's derivative
calls counted once.  SweepResult.points gives the same rows as SweepPoints,
built from the columns on first read.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from . import dk, effective, liouville
from .errors import AmbiguousCrossing, NoCrossing, TripodError, WrongOrdering
from .pulses import DephasingMatrix, Ordering, PulseConfig
from .tripod import geometric_phase


class Engine(enum.Enum):
    MASTER = "master"
    EFFECTIVE = "effective"
    ANALYTIC = "analytic"


def _first_upward_crossing(times: np.ndarray, fid: np.ndarray, threshold: float,
                           interp: PchipInterpolator, notes: list | None) -> float:
    d = fid - threshold
    hits = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
    if hits.size == 0:
        raise NoCrossing(f"fidelity never rises through {threshold:.6g}")
    if hits.size > 1:
        warnings.warn(f"multiple upward crossings of {threshold:.6g}; using the first",
                      AmbiguousCrossing)
        if notes is not None:
            notes.append(f"{AmbiguousCrossing.__name__}: multiple upward crossings of "
                         f"{threshold:.6g}; using the first")
    i = int(hits[0])
    if d[i + 1] == 0.0:
        return float(times[i + 1])
    return float(brentq(lambda t: interp(t) - threshold, times[i], times[i + 1]))


def check_evaluation(eps: float = 0.1, t_max_eval: float = 0.0) -> None:
    """Refuse eps outside (0, 1/2) and a NaN t_max_eval; inf asks for the long-time F2."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be inside (0, 1/2)")
    if math.isnan(t_max_eval):
        raise ValueError("t_max_eval must be a number or inf, got nan")


def transition_time(times: np.ndarray, fid: np.ndarray, eps: float,
                    ordering: Ordering, interp: PchipInterpolator | None = None, *,
                    notes: list | None = None) -> float:
    """Time for the fidelity to rise between its two threshold values.

    The lower threshold is eps, except for the fractional ordering, which
    starts at a finite fidelity and uses (1 + eps) times the initial value.
    Crossings are located on a monotone cubic interpolant of the samples;
    a caller that holds PchipInterpolator(times, fid) already can pass it.
    A threshold crossed upward more than once warns AmbiguousCrossing and
    uses the first crossing; the warning's text, prefixed by its class name,
    is also appended to `notes` when given.
    """
    check_evaluation(eps)
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times.shape != fid.shape:
        raise ValueError("need matching 1-d time and fidelity series with at least 2 samples")
    if interp is None:
        interp = PchipInterpolator(times, fid)
    if ordering is Ordering.FRACTIONAL:
        low = (1.0 + eps) * fid[0]
    else:
        low = eps
    t_low = _first_upward_crossing(times, fid, low, interp, notes)
    t_high = _first_upward_crossing(times, fid, 1.0 - eps, interp, notes)
    return t_high - t_low


@dataclass(frozen=True)
class SweepPoint:
    """One row of a sweep, as SweepResult.points builds it from the columns.

    `stats` is empty for an analytic row and for a row whose solve failed.
    For a solved row it holds `nfev`, the derivative calls of the whole
    batch the row was solved in (every row of that batch carries the same
    count; SweepResult.nfev counts each batch once), and the invariant
    errors of the row's trajectory.
    """

    value: float
    F2_final: float
    F2_tmax: float
    T_tr: float
    theta_g: float
    error: str | None = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Columns:
    """The rows of a sweep, or of a slice of its grid, one array or tuple per field."""

    F2_final: np.ndarray
    F2_tmax: np.ndarray
    T_tr: np.ndarray
    theta_g: np.ndarray
    errors: tuple      # per row: None, or the error text of a failed row
    warnings: tuple    # per row: a tuple of warning texts, such as an AmbiguousCrossing
    batch: np.ndarray  # per row: its batch's index into nfev, -1 if the row ran no solve
    nfev: tuple        # per batch: its derivative calls, counted once
    stats: dict        # invariant name -> one value per row, NaN where batch is -1


@dataclass(frozen=True)
class SweepResult(_Columns):
    """A sweep's rows as columns: `values` and one entry per row in each of the others.

    F2_final, F2_tmax, T_tr and theta_g are float arrays (NaN where the row
    failed or, for T_tr, where no threshold was crossed); `errors` holds each
    row's error text or None; `warnings` each row's warning texts.  A row
    solved by an ODE engine has a `batch` index into `nfev`, the derivative
    calls of each batch counted once, and its trajectory's invariant errors
    in `stats` (name -> float array).  `points` is the same table row by row.
    """

    axis: str
    values: np.ndarray
    engine: Engine

    @cached_property
    def points(self) -> list[SweepPoint]:
        """The rows as SweepPoints with Python floats, built from the columns on first read."""
        names = list(self.stats)
        invariants = (np.column_stack(list(self.stats.values())).tolist() if names
                      else itertools.repeat(()))
        return [SweepPoint(value, f2_final, f2_tmax, t_tr, theta_g, error,
                           {"nfev": self.nfev[k], **dict(zip(names, row))} if k >= 0 else {})
                for value, f2_final, f2_tmax, t_tr, theta_g, error, k, row
                in zip(self.values.tolist(), self.F2_final.tolist(), self.F2_tmax.tolist(),
                       self.T_tr.tolist(), self.theta_g.tolist(), self.errors,
                       self.batch.tolist(), invariants)]

    def succeeded(self) -> int:
        return self.errors.count(None)


def _point_config(cfg: PulseConfig, axis: str, value: float) -> PulseConfig:
    if axis == "gamma":
        return cfg.with_updates(gamma=DephasingMatrix.equal(value))
    return cfg.with_updates(tau=float(value))


def _error_text(exc: TripodError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _series_row(traj, eps: float, t_max_eval: float, notes: list | None = None) -> tuple:
    """(F2_final, F2_tmax, T_tr, theta_g, error) of one sampled trajectory."""
    interp = PchipInterpolator(traj.t, traj.fidelity)
    t_eval = min(max(t_max_eval, traj.t[0]), traj.t[-1])
    error = None
    try:
        t_tr = transition_time(traj.t, traj.fidelity, eps, traj.cfg.ordering, interp, notes=notes)
    except NoCrossing as exc:
        t_tr, error = math.nan, _error_text(exc)
    return float(traj.fidelity[-1]), float(interp(t_eval)), t_tr, traj.target.theta_g, error


def _series_columns(trajs, n: int, eps: float, t_max_eval: float) -> _Columns:
    """The n rows of one batch, filled member by member as `trajs` yields them."""
    table = np.empty((4, n))  # F2_final, F2_tmax, T_tr, theta_g
    errors, notes, nfev, stats = [None] * n, [()] * n, (), {}
    for i, traj in enumerate(trajs):
        row_notes = []
        *cells, errors[i] = _series_row(traj, eps, t_max_eval, row_notes)
        table[:, i] = cells
        notes[i] = tuple(row_notes)
        for name, value in traj.stats.items():
            if name == "nfev":
                nfev = (value,)
            else:
                stats.setdefault(name, np.full(n, math.nan))[i] = value
    return _Columns(*table, errors=tuple(errors), warnings=tuple(notes),
                    batch=np.zeros(n, dtype=int), nfev=nfev, stats=stats)


def _failed_row(exc: TripodError) -> _Columns:
    return _Columns(*np.full((4, 1), math.nan), errors=(_error_text(exc),), warnings=((),),
                    batch=np.full(1, -1), nfev=(), stats={})


def _join(parts: list[_Columns]) -> _Columns:
    """Consecutive slices of a grid as one: each slice's batches follow those before it."""
    shifts = itertools.accumulate([len(part.nfev) for part in parts[:-1]], initial=0)
    names = dict.fromkeys(name for part in parts for name in part.stats)
    return _Columns(
        *(np.concatenate([getattr(part, column) for part in parts])
          for column in ("F2_final", "F2_tmax", "T_tr", "theta_g")),
        errors=tuple(itertools.chain.from_iterable(part.errors for part in parts)),
        warnings=tuple(itertools.chain.from_iterable(part.warnings for part in parts)),
        batch=np.concatenate([np.where(part.batch < 0, -1, part.batch + shift)
                              for part, shift in zip(parts, shifts)]),
        nfev=tuple(itertools.chain.from_iterable(part.nfev for part in parts)),
        stats={name: np.concatenate([part.stats.get(name, np.full(len(part.errors), math.nan))
                                     for part in parts]) for name in names})


def _grid_or_rows(evaluate, n: int) -> _Columns:
    """evaluate(rows) for the whole grid of n rows at once; if that raises, for each row alone.

    evaluate takes a slice of the grid and returns the _Columns of the rows
    in it.  In the row-by-row pass only the rows that fail on their own
    become failed rows carrying the error; the others keep their results.
    A one-row grid is not evaluated twice.
    """
    try:
        return evaluate(slice(None))
    except TripodError as exc:
        if n == 1:
            return _failed_row(exc)
    return _join([_grid_or_rows(lambda rows, i=i: evaluate(slice(i, i + 1)), 1)
                  for i in range(n)])


def _analytic_columns(cfg: PulseConfig, gamma: np.ndarray, tau: np.ndarray, eps: float,
                      t_max_eval: float, theta_g: float) -> _Columns:
    """Closed-form rows for equal-length gamma and tau arrays.

    F2_final and F2_tmax come from one call on the same observables; T_tr is
    the lossless law T^2/(2 tau) * log((1-eps)/eps).
    """
    f2_final, f2_tmax = dk.analytic_fidelity(gamma, cfg, np.array([[math.inf], [t_max_eval]]),
                                             tau=tau)
    t_tr = cfg.width ** 2 / (2.0 * tau) * math.log((1.0 - eps) / eps)
    n = len(tau)
    return _Columns(f2_final, f2_tmax, t_tr, np.full(n, theta_g), errors=(None,) * n,
                    warnings=((),) * n, batch=np.full(n, -1), nfev=(), stats={})


def _analytic_sweep(cfg: PulseConfig, axis: str, values: np.ndarray, eps: float,
                    t_max_eval: float) -> _Columns:
    """The whole grid as one array pass through the closed forms.

    If a row is rejected (tau = 0, a gamma-function pole), the pass raises
    and each row is evaluated alone, so that only the rows that fail on
    their own carry the error; the others get the same values.
    """
    # the smallest axis value goes through the config checks every engine applies
    cfg = _point_config(cfg, axis, values[0])
    if axis == "gamma":
        gamma, tau = values, np.full_like(values, cfg.tau)
    else:
        gamma, tau = np.full_like(values, cfg.gamma.equal_rate()), values
    # phi is constant for the overlap ordering, so theta_g = 0 at every delay
    theta_g = geometric_phase(cfg)
    return _grid_or_rows(lambda rows: _analytic_columns(cfg, gamma[rows], tau[rows], eps,
                                                        t_max_eval, theta_g), len(values))


def sweep(cfg: PulseConfig, axis: str, values, engine: Engine,
          samples: int = 2000, eps: float = 0.1,
          t_max_eval: float | None = None) -> SweepResult:
    """Evaluate one scalar axis (gamma or tau) over a 1-d grid of points.

    The master and effective engines integrate the whole grid as one batch
    (see liouville.integrate_many and effective.integrate_many) and fill the
    result's columns member by member as the trajectories are built; the
    analytic engine fills them from one array pass through the closed forms.
    If the grid fails, each row is evaluated alone, so engine failures are
    recorded per row instead of aborting the sweep; rows stay ordered by
    axis value, and each row solved alone is a batch of its own.
    """
    if axis not in ("gamma", "tau"):
        raise ValueError(f"axis must be 'gamma' or 'tau', got {axis!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be non-empty and one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if values.size > 1 and np.any(np.diff(values) <= 0.0):
        raise ValueError("values must be strictly increasing")
    if t_max_eval is None:
        t_max_eval = 5.0 * cfg.width
    check_evaluation(eps, t_max_eval)
    if engine is Engine.ANALYTIC:
        if cfg.ordering is not Ordering.OVERLAP:
            raise WrongOrdering("analytic engine requires overlap ordering")
        if axis != "gamma" and cfg.gamma.equal_rate() is None:
            raise WrongOrdering("analytic engine requires equal dephasing rates")
        columns = _analytic_sweep(cfg, axis, values, eps, t_max_eval)
    else:
        cfgs = [_point_config(cfg, axis, value) for value in values]
        engine_mod = liouville if engine is Engine.MASTER else effective
        columns = _grid_or_rows(
            lambda rows: _series_columns(engine_mod.integrate_many(cfgs[rows], samples=samples),
                                         len(cfgs[rows]), eps, t_max_eval), len(values))
    return SweepResult(axis=axis, values=values, engine=engine, **vars(columns))
