"""Transition-time extraction and parameter sweeps.

A sweep returns its rows as columns (SweepResult): float arrays for
F2_final, F2_tmax, T_tr and theta_g, and per row the error text, the
warning texts and the batch it was solved in, with each batch's derivative
calls counted once, and the invariant errors of each solved row.  sweep
allocates the columns once and fills them in place; a grid that fails fills
nothing, and its rows are then solved alone.  SweepResult.points gives the
rows as six-field SweepPoints (value, the four floats and the error text),
built from the columns on first read; a row's stats stay in the columns.

An ODE row reads F2_tmax and T_tr off the PCHIP interpolant of its
sampled fidelity.  That interpolant is SciPy's PchipInterpolator mirrored
operation for operation on Python floats, as the DOP853 step loop mirrors
its solver, so the sweep path loads no SciPy module; the tests pin the
mirror's coefficients and values to SciPy's class bit for bit.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dk, effective, liouville
from .errors import AmbiguousCrossing, GammaPole, NoCrossing, TripodError, WrongOrdering
from .pulses import DephasingMatrix, Ordering, PulseConfig
from .tripod import geometric_phase


class Engine(enum.Enum):
    MASTER = "master"
    EFFECTIVE = "effective"
    ANALYTIC = "analytic"


def _sign(x: float) -> float:
    """np.sign of a float: -1, 0 or 1, and NaN for NaN."""
    return (x > 0) - (x < 0) if x == x else math.nan


def _edge(h0, h1, m0, m1):
    """PchipInterpolator._edge_case: the three-point end slope, kept to the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    return 3.0 * m0 if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0) else d


def _inner(h0, h1, m0, m1):
    """The Fritsch-Carlson slope between two intervals: zero at an extremum or a plateau, else
    the reciprocal of the weighted harmonic mean, inf where NumPy divides by a zero mean."""
    if _sign(m0) != _sign(m1) or m0 == 0 or m1 == 0:
        return 0.0
    w1, w2 = 2 * h1 + h0, h1 + 2 * h0
    mean = (w1 / m0 + w2 / m1) / (w1 + w2)
    return 1.0 / mean if mean else math.copysign(math.inf, mean)


def _pchip(times: np.ndarray, fid: np.ndarray) -> np.ndarray:
    """The (4, n - 1) coefficients c of SciPy's PchipInterpolator(times, fid).

    Operation for operation as SciPy builds them, on Python floats: the slopes of
    _find_derivatives (_inner, _edge at the ends, the straight line for two samples), then
    CubicHermiteSpline's c.  The samples must be finite at strictly increasing times, as
    SciPy requires; transition_time checks them.
    """
    t, f = times.tolist(), fid.tolist()
    h = [b - a for a, b in zip(t, t[1:])]
    m = [(b - a) / step for a, b, step in zip(f, f[1:], h)]
    d = [*m, m[-1]] if len(m) == 1 else [_edge(h[0], h[1], m[0], m[1]), *map(
        _inner, h, h[1:], m, m[1:]), _edge(h[-1], h[-2], m[-1], m[-2])]
    c = [(a + b - 2 * slope) / step for a, b, slope, step in zip(d, d[1:], m, h)]
    return np.array([[x / step for x, step in zip(c, h)],
                     [(slope - a) / step - x for slope, a, step, x in zip(m, d, h, c)], d[:-1],
                     f[:-1]])


def _cubic(c0: float, c1: float, c2: float, c3: float, s: float) -> float:
    """One interval's cubic at offset s, summed as PPoly sums it: c3 + c2 s + c1 s^2 + c0 s^3."""
    return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def _interval(times: np.ndarray, fid: np.ndarray, i: int) -> list:
    """The coefficients of the interpolant's interval i, as floats.

    Interval i's coefficients read only the samples i - 1 to i + 2, so _pchip runs on those
    alone, with the bits of the whole table's column i.
    """
    first = max(i - 1, 0)
    return _pchip(times[first:i + 3], fid[first:i + 3])[:, i - first].tolist()


def _pchip_at(times: np.ndarray, fid: np.ndarray, t: float) -> float:
    """The interpolant at t in [times[0], times[-1]], on the interval i PPoly picks."""
    i = min(int(np.searchsorted(times, t, side="right")) - 1, times.size - 2)
    return _cubic(*_interval(times, fid, i), t - times[i])


def _first_upward_crossing(times: np.ndarray, fid: np.ndarray, threshold: float,
                           notes: list | None) -> float:
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
    # the cubic is monotone on its bracket: bisect until the bracket is two adjacent floats
    lo = start = float(times[i])
    hi, coef = float(times[i + 1]), _interval(times, fid, i)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _cubic(*coef, mid - start) < threshold else (lo, mid)
    return hi


def check_evaluation(eps: float = 0.1, t_max_eval: float = 0.0) -> None:
    """Refuse eps outside (0, 1/2) and a NaN t_max_eval; inf asks for the long-time F2."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be inside (0, 1/2)")
    if math.isnan(t_max_eval):
        raise ValueError("t_max_eval must be a number or inf, got nan")


def transition_time(times: np.ndarray, fid: np.ndarray, eps: float, ordering: Ordering, *,
                    notes: list | None = None) -> float:
    """Time for the fidelity to rise between its two threshold values.

    The lower threshold is eps, except for the fractional ordering, which
    starts at a finite fidelity and uses (1 + eps) times the initial value.
    Crossings are located on the PCHIP interpolant of the samples, the
    mirror of SciPy's PchipInterpolator (_pchip, pinned to SciPy's
    coefficients bit for bit by the tests): the first sample interval that
    rises through a threshold is bisected on its cubic, which is monotone
    there, down to two adjacent floats, within 1e-12 of brentq on SciPy's
    interpolant.  Only the two crossing intervals' coefficients are built,
    each from its four nearest samples (_interval).  Samples that are not
    finite, or times that do not strictly increase, raise ValueError as
    SciPy does, whichever interval they are in.  A threshold crossed
    upward more than once warns AmbiguousCrossing and uses the first
    crossing; the warning's text, prefixed by its class name, is also
    appended to `notes` when given.
    """
    check_evaluation(eps)
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times.shape != fid.shape:
        raise ValueError("need matching 1-d time and fidelity series with at least 2 samples")
    if not (np.isfinite(times).all() and np.isfinite(fid).all() and (np.diff(times) > 0).all()):
        raise ValueError("need finite samples at strictly increasing times")
    if ordering is Ordering.FRACTIONAL:
        low = (1.0 + eps) * fid[0]
    else:
        low = eps
    t_low = _first_upward_crossing(times, fid, low, notes)
    t_high = _first_upward_crossing(times, fid, 1.0 - eps, notes)
    return t_high - t_low


class SweepPoint(NamedTuple):
    """One row of a sweep, as SweepResult.points reads it from the columns.

    A row's derivative calls and invariant errors stay in the columns:
    SweepResult.batch, nfev and stats.
    """

    value: float
    F2_final: float
    F2_tmax: float
    T_tr: float
    theta_g: float
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    """A sweep's rows as columns: `values` and one entry per row in each of the others.

    F2_final, F2_tmax, T_tr and theta_g are float arrays (NaN where the row
    failed or, for T_tr, where no threshold was crossed); `errors` holds each
    row's error text or None; `warnings` each row's warning texts.  A row
    solved by an ODE engine has a `batch` index into `nfev`, the derivative
    calls of each batch counted once, and its trajectory's invariant errors
    in `stats` (name -> float array).  `points` is the same table row by row.
    """

    F2_final: np.ndarray
    F2_tmax: np.ndarray
    T_tr: np.ndarray
    theta_g: np.ndarray
    errors: tuple      # per row: None, or the error text of a failed row
    warnings: tuple    # per row: a tuple of warning texts, such as an AmbiguousCrossing
    batch: np.ndarray  # per row: its batch's index into nfev, -1 if the row ran no solve
    nfev: tuple        # per batch: its derivative calls, counted once
    stats: dict        # invariant name -> one value per row, NaN where batch is -1
    axis: str
    values: np.ndarray
    engine: Engine

    @cached_property
    def points(self) -> list[SweepPoint]:
        """The rows as SweepPoints with Python floats, built from the columns on first read."""
        return list(map(SweepPoint, self.values.tolist(), self.F2_final.tolist(),
                        self.F2_tmax.tolist(), self.T_tr.tolist(), self.theta_g.tolist(),
                        self.errors))


def _point_config(cfg: PulseConfig, axis: str, value: float) -> PulseConfig:
    if axis == "gamma":
        return cfg.with_updates(gamma=DephasingMatrix.equal(value))
    return cfg.with_updates(tau=float(value))


# the GammaPole texts of closed-form rows whose gamma-function ratios overflow, and of rows
# whose F2 leaves [0, 1] by more than rounding, such as next to a pole or before the pulses;
# no comma, so the CSV marker reads as the manifest does
GAMMA_OVERFLOW = "the gamma-function ratios overflow (gamma T^2 / tau too large)"
F2_OUTSIDE = "the closed-form F2 is below 0 or above 1 (parameters outside model validity)"


def _error_text(exc: TripodError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _series_row(traj, eps: float, t_max_eval: float, notes: list | None = None) -> tuple:
    """(F2_final, F2_tmax, T_tr, theta_g, error) of one sampled trajectory."""
    f2_tmax = _pchip_at(traj.t, traj.fidelity, min(max(t_max_eval, traj.t[0]), traj.t[-1]))
    error = None
    try:
        t_tr = transition_time(traj.t, traj.fidelity, eps, traj.cfg.ordering, notes=notes)
    except NoCrossing as exc:
        t_tr, error = math.nan, _error_text(exc)
    return float(traj.fidelity[-1]), f2_tmax, t_tr, traj.target.theta_g, error


def check_values(values, label: str = "values") -> np.ndarray:
    """A sweep's axis values as a float array; refuse a grid that is empty, not 1-d, not
    finite or not strictly increasing, naming it by `label`."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{label} must be non-empty and one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} must be finite")
    if values.size > 1 and np.any(np.diff(values) <= 0.0):
        raise ValueError(f"{label} must be strictly increasing")
    return values


def sweep(cfg: PulseConfig, axis: str, values, engine: Engine,
          samples: int = 2000, eps: float = 0.1,
          t_max_eval: float | None = None) -> SweepResult:
    """Evaluate one scalar axis (gamma or tau) over a 1-d grid of points.

    The result's columns are allocated once, every row NaN and unsolved, and
    filled in place.  The master and effective engines integrate the whole
    grid as one batch (see liouville.integrate_many and
    effective.integrate_many) and fill its rows member by member as the
    trajectories are built; the analytic engine fills them from one array
    pass through the closed forms.  A grid that fails keeps nothing from
    its pass, and each of its rows is then evaluated alone, so engine
    failures are recorded per row instead of aborting the sweep; rows stay
    ordered by axis value, and each row solved alone is a batch of its own.
    A one-row grid is evaluated once.  An analytic row whose gamma-function
    ratios overflow (gamma T^2 / tau past about 2e3), or whose F2_final or
    F2_tmax leaves [0, 1] by more than rounding, fails as GammaPole, as one
    on a pole does: the closed forms do not hold there.
    """
    if axis not in ("gamma", "tau"):
        raise ValueError(f"axis must be 'gamma' or 'tau', got {axis!r}")
    values = check_values(values)
    if t_max_eval is None:
        t_max_eval = 5.0 * cfg.width
    check_evaluation(eps, t_max_eval)
    n = values.size
    table = np.full((4, n), math.nan)  # F2_final, F2_tmax, T_tr, theta_g
    # errors and notes map a written row to its error text and warning texts, so a grid
    # that writes neither (an analytic grid that did not fail) builds its row tuples at once
    errors, notes, batch, nfev, stats = {}, {}, np.full(n, -1), [], {}
    if engine is Engine.ANALYTIC:
        if cfg.ordering is not Ordering.OVERLAP:
            raise WrongOrdering("analytic engine requires overlap ordering")
        if axis != "gamma" and cfg.gamma.equal_rate() is None:
            raise WrongOrdering("analytic engine requires equal dephasing rates")
        # the config checks every engine applies, on the smallest and the largest axis value:
        # each of their bounds is monotone in the value
        _point_config(cfg, axis, values[-1])
        cfg = _point_config(cfg, axis, values[0])
        gamma = values if axis == "gamma" else np.full_like(values, cfg.gamma.equal_rate())
        tau = values if axis == "tau" else np.full_like(values, cfg.tau)
        times = np.array([[math.inf], [t_max_eval]])

        def evaluate(rows: slice) -> None:
            # F2_final and F2_tmax from one call; where the gamma-function ratios overflow
            # they are NaN, and where the closed forms do not hold they leave [0, 1], so the
            # grid fails and those rows are marked alone.  T_tr is the lossless law
            # T^2/(2 tau) * log((1-eps)/eps); phi is constant for the overlap ordering, so
            # theta_g = 0 at every delay
            with np.errstate(all="ignore"):
                f2 = dk.analytic_fidelity(gamma[rows], cfg, times, tau=tau[rows])
            if not np.isfinite(f2).all():
                raise GammaPole(GAMMA_OVERFLOW)
            if f2.min() < -1e-12 or f2.max() > 1.0 + 1e-12:
                raise GammaPole(F2_OUTSIDE)
            table[:2, rows] = f2
            table[2, rows] = cfg.width ** 2 / (2.0 * tau[rows]) * math.log((1.0 - eps) / eps)
            table[3, rows] = geometric_phase(cfg)
    else:
        cfgs = [_point_config(cfg, axis, value) for value in values]
        integrate_many = (liouville if engine is Engine.MASTER else effective).integrate_many

        def evaluate(rows: slice) -> None:
            k = len(nfev)
            for i, traj in enumerate(integrate_many(cfgs[rows], samples=samples), rows.start):
                row_notes = []
                *table[:, i], errors[i] = _series_row(traj, eps, t_max_eval, row_notes)
                notes[i], batch[i], row_stats = tuple(row_notes), k, dict(traj.stats)
                nfev[k:] = [row_stats.pop("nfev")]
                for name, value in row_stats.items():
                    stats.setdefault(name, np.full(n, math.nan))[i] = value

    def attempt(rows: slice) -> bool:
        """evaluate(rows); if that raises, False, with the error text on the first of the rows."""
        try:
            evaluate(rows)
        except TripodError as exc:
            errors[rows.start] = _error_text(exc)
            return False
        return True

    if not attempt(slice(0, n)) and n > 1:
        # the failed grid keeps nothing from its pass, and each row is then evaluated alone
        table[:], batch[:] = math.nan, -1
        for part in (errors, notes, nfev, stats):
            part.clear()
        for i in range(n):
            attempt(slice(i, i + 1))
    return SweepResult(*table, errors=tuple(map(errors.get, range(n))) if errors else (None,) * n,
                       warnings=tuple(notes.get(i, ()) for i in range(n)) if notes else ((),) * n,
                       batch=batch, nfev=tuple(nfev), stats=stats, axis=axis, values=values,
                       engine=engine)
