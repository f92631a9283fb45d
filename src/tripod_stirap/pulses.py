"""Pulse sequences, dephasing-rate matrices and run configuration.

All four pulse orderings use Gaussian envelopes

    Omega_k(t) = Omega0 * exp(-(t - c_k)^2 / (w_k * T^2))

with centers c_k and width multipliers w_k fixed by the ordering.  The
mixing angles derived from the envelopes,

    tan(phi)   = Omega_c / Omega_s
    tan(theta) = Omega_p / sqrt(Omega_s^2 + Omega_c^2),

are evaluated from differences of the Gaussian exponents so that they stay
finite and smooth even where every envelope has underflowed to zero.  They are
formed as cosines and sines, with no arctan (_frame_angles): every consumer
reads those, never the angles themselves.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

# exp() underflows/overflows in float64 near +-745; stay well inside
_EXP_CLAMP = 700.0

T_SCALE = 1.0  # characteristic pulse width, all times are in units of T
MAX_WINDOW_WIDTHS = 1e6  # longest window, in pulse widths


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
        if np.abs(rates - rates.T).max() > 1e-12:
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
        values = np.loadtxt(path, comments="#", encoding="utf-8")
        if values.size != 16:
            raise ValueError(f"dephasing matrix file must contain 16 numbers, got {values.size}")
        return cls(values.reshape(4, 4))

    def equal_rate(self) -> float | None:
        """The common off-diagonal rate, or None if the rates differ."""
        off = self._rates[~np.eye(4, dtype=bool)]
        if np.abs(off - off[0]).max() <= 1e-12 * max(1.0, abs(off[0])):
            return float(off[0])
        return None


@dataclass(frozen=True)
class PulseConfig:
    """A single run: ordering, peak Rabi frequency, delay and dephasing.

    Times are in units of T, rates in units of 1/T.  `t_start`/`t_end`
    default to a window wide enough that every envelope is below
    ~1e-15 * omega0 at both edges.  The window may be at most
    MAX_WINDOW_WIDTHS pulse widths long, and the width's square must be a
    normal float.
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
        if not sys.float_info.min <= self.width * self.width < math.inf:
            raise ValueError(f"width squared must be a normal float, got width {self.width!r}")
        if self.start >= self.end:
            raise ValueError("t_start must be earlier than t_end")
        # the geometric phase takes one quadrature panel per pulse width of the window
        if self.end - self.start > MAX_WINDOW_WIDTHS * self.width:
            raise ValueError(f"the window must be at most {MAX_WINDOW_WIDTHS:g} pulse widths long, "
                             f"got {(self.end - self.start) / self.width:.6g}")

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
    """cos and sin of theta and phi, and the angles' time derivatives, at one instant or at
    every sample of a stack."""

    cos_theta: float
    sin_theta: float
    cos_phi: float
    sin_phi: float
    theta_dot: float
    phi_dot: float

    @classmethod
    def at(cls, theta, phi, theta_dot=0.0, phi_dot=0.0) -> "MixingAngles":
        """The mixing angles of given theta and phi, scalars or arrays."""
        return cls(np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi), theta_dot, phi_dot)


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
    """Gaussian exponents -a_k = -(t - c_k)^2 / (w_k T^2) and their rates a_k', pulse axis first.

    One run takes times of any shape S and gives (3,) + S; a Batch takes one time per
    member, shape (B,), or n of them, shape (n, B), and gives (3, B) or (3, n, B).
    """
    if isinstance(cfg, Batch):
        centers, widths, lead = cfg.centers.T, cfg.widths.T, np.ndim(t) - 1
    else:
        centers, widths = np.array(cfg.shapes()).T
        widths, lead = widths * (cfg.width * cfg.width), np.ndim(t)
    expand = (slice(None),) + (None,) * lead
    dt = t - centers[expand]
    return dt * -dt / widths[expand], 2.0 * dt / widths[expand]


def pulse_envelopes(t, cfg: PulseConfig):
    """Instantaneous (Omega_p, Omega_s, Omega_c); accepts scalars or arrays."""
    return tuple(cfg.omega0 * np.exp(np.maximum(_exponents(t, cfg)[0], -_EXP_CLAMP)))


def rms_rabi(t, cfg: PulseConfig):
    """Root-mean-square Rabi frequency sqrt(Omega_p^2 + Omega_s^2 + Omega_c^2)."""
    op, os_, oc = pulse_envelopes(t, cfg)
    return np.sqrt(op * op + os_ * os_ + oc * oc)


def mixing_angles(t, cfg: PulseConfig | Batch) -> MixingAngles:
    """Mixing angles and derivatives, stable against envelope underflow.

    Takes one run at any times, or a Batch at times of shape (B,) or (n, B),
    the last axis running over the members; scalar times give floats.
    """
    neg_a, rates = _exponents(t, cfg)
    cos, sin, phi_dot = _frame_angles(neg_a, rates)
    values = (cos[0], sin[0], cos[1], sin[1], _theta_dot(cos, sin, rates), phi_dot)
    return MixingAngles(*(x if x.ndim else float(x) for x in values))


def _frame_angles(neg_a: np.ndarray, rates: np.ndarray) -> tuple:
    """cos and sin of (theta, phi), (2,) + S each, and phi' from -a_k and a_k' of shape (3,) + S.

    x_k is Omega_k over the larger of Omega_s and Omega_c, so tan(phi) = x_c / x_s with x_s,
    x_c in [0, 1], one of them 1, and tan(theta) = x_p / |(x_s, x_c)|, with x_p capped at
    exp(_EXP_CLAMP / 2): no envelope ratio is formed, and the squares below neither overflow
    nor lose the larger side.  Then phi' = sin cos(phi) (a_s' - a_c'), in the rates' unit of
    time.  Called by mixing_angles, by the effective generators effective._suv_weights and by
    liouville._slow_functions, the closed forms of the eigenframe derivative's weights; the
    last two take the exponents in the normalised time from liouville._exponents_in_s.
    """
    x_p, x_s, x_c = np.exp(np.minimum(neg_a - np.maximum(neg_a[1], neg_a[2]), 0.5 * _EXP_CLAMP))
    q = np.sqrt(x_s * x_s + x_c * x_c)
    # q * q, not the sum it rounds: with the sum, effective F2 lay 3.3e-16 from the
    # per-sample loop of test_reconstruction_matches_the_per_sample_loop, against 2.2e-16
    norm = np.array([np.sqrt(q * q + x_p * x_p), q])
    cos, sin = np.array([q, x_s]) / norm, np.array([x_p, x_c]) / norm
    return cos, sin, sin[1] * cos[1] * (rates[1] - rates[2])


def _theta_dot(cos: np.ndarray, sin: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """theta' = sin cos(theta) (cos^2(phi) a_s' + sin^2(phi) a_c' - a_p') from _frame_angles'
    cos and sin and the rates a_k', pulse axis first."""
    return sin[0] * cos[0] * (cos[1] * cos[1] * rates[1] + sin[1] * sin[1] * rates[2] - rates[0])
