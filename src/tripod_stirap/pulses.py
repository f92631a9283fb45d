"""Pulse sequences, dephasing-rate matrices and run configuration.

All four pulse orderings use Gaussian envelopes

    Omega_k(t) = Omega0 * exp(-(t - c_k)^2 / (w_k * T^2))

with centers c_k and width multipliers w_k fixed by the ordering.  The
mixing angles derived from the envelopes,

    tan(phi)   = Omega_c / Omega_s
    tan(theta) = Omega_p / sqrt(Omega_s^2 + Omega_c^2),

are evaluated from differences of the Gaussian exponents so that they stay
finite and smooth even where every envelope has underflowed to zero: as
angles through arctan (_angles) and as cosines and sines with none (_frame_angles).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

# exp() underflows/overflows in float64 near +-745; stay well inside
_EXP_CLAMP = 700.0

T_SCALE = 1.0  # characteristic pulse width, all times are in units of T


class Ordering(str, enum.Enum):
    """Temporal arrangement of the pump, Stokes and control pulses."""

    OVERLAP = "overlap"
    SCP = "scp"
    CSP = "csp"
    FRACTIONAL = "fractional"

    @classmethod
    def parse(cls, name: str) -> "Ordering":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "stokes_control_pump": cls.SCP,
            "control_stokes_pump": cls.CSP,
            "fractional_stirap": cls.FRACTIONAL,
        }
        if key in aliases:
            return aliases[key]
        try:
            return cls(key)
        except ValueError:
            valid = ", ".join(o.value for o in cls)
            raise ValueError(f"unknown ordering {name!r} (expected one of: {valid})") from None


# (center multiplier of tau, width multiplier of T^2) for (pump, stokes, control)
_SHAPES = {
    Ordering.OVERLAP: ((+0.5, 1.0), (-0.5, 1.0), (-0.5, 1.0)),
    Ordering.SCP: ((+0.5, 1.0), (-0.5, 1.0), (0.0, 1.0)),
    Ordering.CSP: ((+0.5, 1.0), (0.0, 1.0), (-0.5, 1.0)),
    Ordering.FRACTIONAL: ((-0.5, 1.0), (-0.5, 2.0), (+0.5, 2.0)),
}


class DephasingMatrix:
    """Symmetric matrix of pairwise dephasing rates gamma_mn >= 0.

    The diagonal is identically zero; only relative phases between distinct
    levels decay.  Instances are immutable.
    """

    def __init__(self, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (4, 4):
            raise ValueError(f"dephasing matrix must be 4x4, got shape {rates.shape}")
        if not np.all(np.isfinite(rates)):
            raise ValueError("dephasing rates must be finite")
        if not np.allclose(rates, rates.T, rtol=0.0, atol=1e-12):
            raise ValueError("dephasing matrix must be symmetric")
        if np.any(np.abs(np.diag(rates)) > 1e-12):
            raise ValueError("dephasing matrix must have a zero diagonal")
        if np.any(rates < -1e-12):
            raise ValueError("dephasing rates must be non-negative")
        rates = 0.5 * (rates + rates.T)
        np.fill_diagonal(rates, 0.0)
        rates.flags.writeable = False
        self._rates = rates

    @property
    def rates(self) -> np.ndarray:
        return self._rates

    def __getitem__(self, idx) -> float:
        return float(self._rates[idx])

    def __eq__(self, other) -> bool:
        return isinstance(other, DephasingMatrix) and np.array_equal(self._rates, other._rates)

    def __hash__(self) -> int:
        # hashing the floats, not the bytes, keeps -0.0 and 0.0 equal as in __eq__
        return hash(tuple(self._rates.ravel().tolist()))

    def __repr__(self) -> str:
        return f"DephasingMatrix({self._rates.tolist()!r})"

    @classmethod
    def zeros(cls) -> "DephasingMatrix":
        return cls(np.zeros((4, 4)))

    @classmethod
    def equal(cls, rate: float) -> "DephasingMatrix":
        """All six pairwise rates set to the same value."""
        rates = np.full((4, 4), float(rate))
        np.fill_diagonal(rates, 0.0)
        return cls(rates)

    @classmethod
    def from_file(cls, path: str) -> "DephasingMatrix":
        """Read a 4x4 whitespace-separated matrix; '#' starts a comment."""
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    rows.append([float(tok) for tok in line.split()])
        values = np.array(rows, dtype=float)
        if values.size != 16:
            raise ValueError(f"dephasing matrix file must contain 16 numbers, got {values.size}")
        return cls(values.reshape(4, 4))

    def equal_rate(self) -> float | None:
        """The common off-diagonal rate, or None if the rates differ."""
        off = self._rates[~np.eye(4, dtype=bool)]
        if np.allclose(off, off[0], rtol=0.0, atol=1e-12 * max(1.0, abs(off[0]))):
            return float(off[0])
        return None


@dataclass(frozen=True)
class PulseConfig:
    """A single run: ordering, peak Rabi frequency, delay and dephasing.

    Times are in units of T, rates in units of 1/T.  `t_start`/`t_end`
    default to a window wide enough that every envelope is below
    ~1e-15 * omega0 at both edges.
    """

    ordering: Ordering
    omega0: float
    tau: float
    gamma: DephasingMatrix = field(default_factory=DephasingMatrix.zeros)
    width: float = T_SCALE
    t_start: float | None = None
    t_end: float | None = None

    def __post_init__(self):
        if isinstance(self.ordering, str):
            object.__setattr__(self, "ordering", Ordering.parse(self.ordering))
        for name in ("omega0", "tau", "width", "t_start", "t_end"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.start >= self.end:
            raise ValueError("t_start must be earlier than t_end")

    @property
    def reach(self) -> float:
        """Half-length of the default window, which is centred on t = 0."""
        return 6.0 * self.width + self.tau

    @property
    def start(self) -> float:
        if self.t_start is not None:
            return self.t_start
        return -self.reach

    @property
    def end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        return self.reach

    def with_updates(self, **changes) -> "PulseConfig":
        return replace(self, **changes)

    def shapes(self) -> tuple[tuple[float, float], ...]:
        """(center, width multiplier) for the pump, Stokes and control pulse."""
        return tuple((m * self.tau, w) for m, w in _SHAPES[self.ordering])


@dataclass(frozen=True)
class MixingAngles:
    """theta, phi and their time derivatives at one instant."""

    theta: float
    phi: float
    theta_dot: float
    phi_dot: float


@dataclass(frozen=True, eq=False)
class Batch:
    """B run configurations laid out as arrays for the batched derivatives."""

    cfgs: tuple[PulseConfig, ...]
    start: np.ndarray    # (B,) window starts
    span: np.ndarray     # (B,) window lengths
    omega0: np.ndarray   # (B, 1) peak Rabi frequencies
    centers: np.ndarray  # (B, 3) pump, Stokes and control centres
    widths: np.ndarray   # (B, 3) Gaussian denominators w_k T^2
    rates: np.ndarray    # (B, 16) vec(gamma) of each member

    @classmethod
    def of(cls, cfgs) -> "Batch":
        cfgs = tuple(cfgs)
        if not cfgs:
            raise ValueError("a batch needs at least one configuration")
        shapes = np.array([cfg.shapes() for cfg in cfgs])
        t2 = np.array([[cfg.width * cfg.width] for cfg in cfgs])
        return cls(cfgs=cfgs,
                   start=np.array([cfg.start for cfg in cfgs]),
                   span=np.array([cfg.end - cfg.start for cfg in cfgs]),
                   omega0=np.array([[float(cfg.omega0)] for cfg in cfgs]),
                   centers=shapes[:, :, 0], widths=shapes[:, :, 1] * t2,
                   rates=np.array([cfg.gamma.rates.ravel() for cfg in cfgs]))

    def __len__(self) -> int:
        return len(self.cfgs)


def _exponents(t, cfg: PulseConfig | Batch):
    """Gaussian exponents a_k = (t - c_k)^2 / (w_k T^2) and their rates a_k'.

    A Batch takes one time per member, shape (B,), or n of them, shape
    (n, B), and gives rows of that shape.
    """
    if isinstance(cfg, Batch):
        centers, widths = cfg.centers.T, cfg.widths.T
        if np.ndim(t) == 2:
            centers, widths = centers[:, None], widths[:, None]
        dt = t - centers
        return dt * dt / widths, 2.0 * dt / widths
    t = np.asarray(t, dtype=float)
    terms = [(t - center, wmul * (cfg.width * cfg.width)) for center, wmul in cfg.shapes()]
    return [dt * dt / w for dt, w in terms], [2.0 * dt / w for dt, w in terms]


def pulse_envelopes(t, cfg: PulseConfig):
    """Instantaneous (Omega_p, Omega_s, Omega_c); accepts scalars or arrays."""
    a, _ = _exponents(t, cfg)
    return tuple(cfg.omega0 * np.exp(-np.minimum(ak, _EXP_CLAMP)) for ak in a)


def rms_rabi(t, cfg: PulseConfig):
    """Root-mean-square Rabi frequency sqrt(Omega_p^2 + Omega_s^2 + Omega_c^2)."""
    op, os_, oc = pulse_envelopes(t, cfg)
    return np.sqrt(op * op + os_ * os_ + oc * oc)


def mixing_angles(t, cfg: PulseConfig | Batch) -> MixingAngles:
    """Mixing angles and derivatives, stable against envelope underflow.

    Takes one run at any times, or a Batch at times of shape (B,) or (n, B),
    the last axis running over the members.  phi
    depends only on the Stokes/control exponent difference; theta is
    evaluated with the smallest exponent factored out, so ratios of
    underflowed envelopes never appear.
    """
    return _angles(*_exponents(t, cfg))


def _angles(a, adot) -> MixingAngles:
    """mixing_angles of exponents a_k and rates a_k'; rates per unit s give angle rates per s.

    Called by mixing_angles alone.  F2 is pinned to these arctan bits: _frame_angles' cos and
    sin in their place fail a 4-ulp F2 test (CHANGES.md FOUND (c)).
    """
    (ap, as_, ac), (dp, ds, dc) = a, adot

    # np.minimum(np.maximum(.)) is np.clip without its per-call overhead
    da = np.minimum(np.maximum(as_ - ac, -_EXP_CLAMP), _EXP_CLAMP)
    phi = np.arctan(np.exp(da))
    phi_dot = (ds - dc) / (2.0 * np.cosh(da))

    m = np.minimum(as_, ac)
    es, ec = np.exp(-2.0 * (as_ - m)), np.exp(-2.0 * (ac - m))
    q2 = es + ec
    # r is half-clamped: only exp(-2r) is ever formed
    r = np.minimum(np.maximum(ap - m, -0.5 * _EXP_CLAMP), 0.5 * _EXP_CLAMP)
    er = np.exp(-r)
    q = np.sqrt(q2)
    theta = np.arctan2(er, q)

    lever = -dp + es / q2 * ds + ec / q2 * dc
    sin_cos = q * er / (q2 + np.exp(-2.0 * r))
    theta_dot = sin_cos * lever

    return MixingAngles(*(x if x.ndim else float(x) for x in (theta, phi, theta_dot, phi_dot)))


def _frame_angles(neg_a: np.ndarray, rates: np.ndarray) -> tuple:
    """cos and sin of (theta, phi), (2, B) each, and theta', phi' from (B, 3) -a_k and a_k'.

    The mixing angles of _angles with no arctan: x_k is Omega_k over the larger of
    Omega_s and Omega_c, so tan(phi) = x_c / x_s with x_s, x_c in [0, 1], one of them 1,
    and tan(theta) = x_p / |(x_s, x_c)|, x_p capped at exp(_EXP_CLAMP / 2) as _angles caps
    exp(-r).  Then theta' = sin cos(theta) (cos^2(phi) a_s' + sin^2(phi) a_c' - a_p') and
    phi' = sin cos(phi) (a_s' - a_c'), in the rates' unit of time.  Called by the derivatives
    liouville.rhs_adiabatic and effective._suv_rhs, which form the exponents in s themselves;
    _angles in its place would cost dense-trajectory about 7% (CHANGES.md FOUND (d)).
    """
    x_p, x_s, x_c = x = np.exp(np.minimum(
        neg_a - np.maximum(neg_a[:, 1], neg_a[:, 2])[:, None], 0.5 * _EXP_CLAMP)).T
    adjacent, opposite = np.array([np.hypot(x_s, x_c), x_s]), x[::2]
    norm = np.hypot(adjacent, opposite)
    cos, sin = adjacent / norm, opposite / norm
    sin_cos = sin * cos
    rate_p, rate_s, rate_c = rates.T
    theta_dot = sin_cos[0] * (cos[1] * cos[1] * rate_s + sin[1] * sin[1] * rate_c - rate_p)
    return cos, sin, theta_dot, sin_cos[1] * (rate_s - rate_c)
