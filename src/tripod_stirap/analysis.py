"""Transition-time extraction and parameter sweeps."""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

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
                           interp: PchipInterpolator) -> float:
    d = fid - threshold
    hits = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
    if hits.size == 0:
        raise NoCrossing(f"fidelity never rises through {threshold:.6g}")
    if hits.size > 1:
        warnings.warn(f"multiple upward crossings of {threshold:.6g}; using the first",
                      AmbiguousCrossing)
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
                    ordering: Ordering, interp: PchipInterpolator | None = None) -> float:
    """Time for the fidelity to rise between its two threshold values.

    The lower threshold is eps, except for the fractional ordering, which
    starts at a finite fidelity and uses (1 + eps) times the initial value.
    Crossings are located on a monotone cubic interpolant of the samples;
    a caller that holds PchipInterpolator(times, fid) already can pass it.
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
    t_low = _first_upward_crossing(times, fid, low, interp)
    t_high = _first_upward_crossing(times, fid, 1.0 - eps, interp)
    return t_high - t_low


@dataclass(frozen=True)
class SweepPoint:
    value: float
    F2_final: float
    F2_tmax: float
    T_tr: float
    theta_g: float
    error: str | None = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    axis: str
    values: np.ndarray
    points: list[SweepPoint]
    engine: Engine

    def succeeded(self) -> int:
        return sum(1 for p in self.points if p.error is None)


def _point_config(cfg: PulseConfig, axis: str, value: float) -> PulseConfig:
    if axis == "gamma":
        return cfg.with_updates(gamma=DephasingMatrix.equal(value))
    return cfg.with_updates(tau=float(value))


def _series_point(traj, value: float, eps: float, t_max_eval: float) -> SweepPoint:
    interp = PchipInterpolator(traj.t, traj.fidelity)
    t_eval = min(max(t_max_eval, traj.t[0]), traj.t[-1])
    f2_tmax = float(interp(t_eval))
    error = None
    try:
        t_tr = transition_time(traj.t, traj.fidelity, eps, traj.cfg.ordering, interp)
    except NoCrossing as exc:
        t_tr, error = math.nan, f"{type(exc).__name__}: {exc}"
    return SweepPoint(value=float(value), F2_final=float(traj.fidelity[-1]),
                      F2_tmax=f2_tmax, T_tr=t_tr, theta_g=traj.target.theta_g,
                      error=error, stats=dict(traj.stats))


def _grid_or_rows(evaluate, values: np.ndarray) -> list[SweepPoint]:
    """evaluate(rows) for the whole grid at once; if that raises, for each row alone.

    evaluate takes a slice of the grid and returns one SweepPoint per row in it.
    In the row-by-row pass only the rows that fail on their own become
    failed points carrying the error; the others keep their results.  A
    one-row grid is not evaluated twice.
    """
    try:
        return evaluate(slice(None))
    except TripodError as exc:
        if len(values) == 1:
            return [SweepPoint(value=float(values[0]), F2_final=math.nan, F2_tmax=math.nan,
                               T_tr=math.nan, theta_g=math.nan,
                               error=f"{type(exc).__name__}: {exc}")]
    return [point for i in range(len(values))
            for point in _grid_or_rows(lambda rows, i=i: evaluate(slice(i, i + 1)),
                                       values[i:i + 1])]


def _analytic_points(cfg: PulseConfig, gamma: np.ndarray, tau: np.ndarray,
                     values: np.ndarray, eps: float, t_max_eval: float,
                     theta_g: float) -> list[SweepPoint]:
    """Closed-form rows for equal-length gamma, tau and axis-value arrays.

    F2_final and F2_tmax come from one call on the same observables; T_tr is
    the lossless law T^2/(2 tau) * log((1-eps)/eps).
    """
    f2_final, f2_tmax = dk.analytic_fidelity(gamma, cfg, np.array([[math.inf], [t_max_eval]]),
                                             tau=tau)
    t_tr = cfg.width ** 2 / (2.0 * tau) * math.log((1.0 - eps) / eps)
    return [SweepPoint(value=v, F2_final=a, F2_tmax=b, T_tr=c, theta_g=theta_g)
            for v, a, b, c in zip(values.tolist(), f2_final.tolist(), f2_tmax.tolist(),
                                  t_tr.tolist())]


def _analytic_sweep(cfg: PulseConfig, axis: str, values: np.ndarray, eps: float,
                    t_max_eval: float) -> list[SweepPoint]:
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
    return _grid_or_rows(lambda rows: _analytic_points(cfg, gamma[rows], tau[rows], values[rows],
                                                       eps, t_max_eval, theta_g), values)


def sweep(cfg: PulseConfig, axis: str, values, engine: Engine,
          samples: int = 2000, eps: float = 0.1,
          t_max_eval: float | None = None) -> SweepResult:
    """Evaluate one scalar axis (gamma or tau) over a 1-d grid of points.

    The master and effective engines integrate the whole grid as one batch
    (see liouville.integrate_many and effective.integrate_many) and the
    analytic engine evaluates it as one array pass through the closed forms.
    If the grid fails, each row is evaluated alone, so engine failures are
    recorded per row instead of aborting the sweep; rows stay ordered by
    axis value.
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
        points = _analytic_sweep(cfg, axis, values, eps, t_max_eval)
    else:
        cfgs = [_point_config(cfg, axis, value) for value in values]
        engine_mod = liouville if engine is Engine.MASTER else effective

        def evaluate(rows):
            # map drops each trajectory before the next one is built
            return list(map(lambda traj, value: _series_point(traj, value, eps, t_max_eval),
                            engine_mod.integrate_many(cfgs[rows], samples=samples), values[rows]))

        points = _grid_or_rows(evaluate, values)
    return SweepResult(axis=axis, values=values, points=points, engine=engine)
