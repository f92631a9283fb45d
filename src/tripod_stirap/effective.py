"""Effective two-level dynamics inside the dark-state doublet.

With the excited state adiabatically eliminated and the bright populations
slaved to the dark ones, the state is captured by three real variables

    s = population parameter,  u = sqrt(2) Re rho^a_12,  v = sqrt(2) Im rho^a_12,

with initial values (-1/2, 1/sqrt(2), 0).  Populations map back through
rho^a_11 = rho^a_22 = 1/4 - s/2.  The dephasing enters through six
closed-form rates/couplings; the dissipator tensor behind them can also be
extracted numerically, which is how the closed forms are verified.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .pulses import Batch, DephasingMatrix, MixingAngles, PulseConfig, mixing_angles
from .tripod import frame_matrix, geometric_phases
from .liouville import Basis, Trajectory, _frame_dephasing, _solve_batch, _trajectory

_SQRT2 = np.sqrt(2.0)
# the (s, u, v) solves take a few hundred steps, most of them holding output
# samples: DOP853's three extra calls per such step for its dense output outweigh
# its longer steps (1674 against 1548 calls on three 8-point tau sweeps at 2000
# samples), so this engine stays on RK45
METHOD = "RK45"


class Mode(enum.Enum):
    FULL = "full"
    WEAK_DEPHASING = "weak_dephasing"


@dataclass(frozen=True)
class EffectiveRates:
    """Decay rates and couplings of the (s, u, v) system, all in 1/T."""

    Gamma_s: float
    Gamma_u: float
    Gamma_v: float
    Omega_su: float
    Omega_sv: float
    Omega_uv: float


def effective_rates(angles: MixingAngles, gamma: DephasingMatrix | np.ndarray) -> EffectiveRates:
    """Closed-form rates; only gamma_13, gamma_14 and gamma_34 enter.

    Elementwise: a DephasingMatrix and scalar angles give floats; a
    (4, 4, B) array of member rates and (B,) angles give (B,) arrays.
    The phi-weights of Gamma_v are the complement of those in Gamma_s and
    Gamma_u: at theta = 0, phi = 0 the dark doublet spans psi_1 and psi_4,
    so its coherence must decay at gamma_14, not gamma_13.
    """
    g13, g14, g34 = gamma[0, 2], gamma[0, 3], gamma[2, 3]
    phi2 = 2.0 * angles.phi
    st, ct, s2p, c2p = np.sin(angles.theta), np.cos(angles.theta), np.sin(phi2), np.cos(phi2)
    st2, ct2, gdiff = st * st, ct * ct, g14 - g13
    # g1 = cos^2(phi) g13 + sin^2(phi) g14; g1bar swaps the weights
    gmean, tilt = 0.5 * (g13 + g14), 0.5 * c2p * gdiff
    g1, g1bar = gmean - tilt, gmean + tilt
    quarter = st2 * ct2 * g1  # sin^2(2 theta) g1 / 4
    lift, half = 1.0 + st2, 0.5 * st * s2p
    a34, c34 = s2p * s2p * g34, c2p * g34

    gamma_s = 2.0 * quarter + 0.5 * ct2 * ct2 * a34
    gamma_u = quarter + 0.25 * lift * lift * a34
    gamma_v = ct2 * g1bar + st2 * c2p * c34
    omega_su = quarter - 0.25 * ct2 * lift * a34
    omega_sv = half * ct2 * (gdiff - c34)
    # (sin(3 theta) - 7 sin(theta)) / 16 * sin(4 phi) g34, with sin(3 theta) - 7 sin(theta)
    # = -4 sin(theta) (1 + sin^2 theta); its sign is fixed by dissipator_tensor
    omega_uv = -half * (lift * c34 + ct2 * gdiff)

    return EffectiveRates(Gamma_s=gamma_s, Gamma_u=gamma_u, Gamma_v=gamma_v,
                          Omega_su=omega_su, Omega_sv=omega_sv, Omega_uv=omega_uv)


def _suv_rhs(x, y: np.ndarray, batch: Batch, mode: Mode) -> np.ndarray:
    """d(s, u, v)/dx of every member, on states of shape (3, B), at t = start + x * span."""
    t = batch.start + x * batch.span
    s, u, v = y
    ang = mixing_angles(t, batch)
    r = effective_rates(ang, batch.rates.T.reshape(4, 4, -1))
    geo = 2.0 * ang.phi_dot * np.sin(ang.theta)
    su, sv, uv = _SQRT2 * r.Omega_su, _SQRT2 * r.Omega_sv, r.Omega_uv
    if mode is Mode.WEAK_DEPHASING:  # the decay rates alone
        su = sv = uv = 0.0
    return np.array([
        su * u + sv * v - r.Gamma_s * s,
        (geo + uv) * v + su * s - r.Gamma_u * u,
        (uv - geo) * u + sv * s - r.Gamma_v * v,
    ]) * batch.span


def _dark_block(s, u, v):
    """Dark populations p, bright populations q and dark coherence of (s, u, v)."""
    p = 0.25 - 0.5 * s
    return p, 0.5 * (1.0 - 2.0 * p), (u + 1j * v) / _SQRT2


def dark_density(s, u, v) -> np.ndarray:
    """4x4 adiabatic-basis state implied by (s, u, v).

    The dark block follows the (s, u, v) parametrization; the bright levels
    share the leftover population equally with no cross coherences.  Scalar
    s, u, v give one (4, 4) state; arrays of shape S give a stack S + (4, 4).
    """
    p, q, coh = _dark_block(s, u, v)
    rho_a = np.zeros(np.shape(p) + (4, 4), dtype=complex)
    rho_a[..., 0, 0] = rho_a[..., 1, 1] = p
    rho_a[..., 2, 2] = rho_a[..., 3, 3] = q
    rho_a[..., 0, 1] = coh
    rho_a[..., 1, 0] = np.conj(coh)
    return rho_a


def dark_invariants(s, u, v) -> dict:
    """Invariant errors of dark_density(s, u, v) over the samples, in closed form.

    The state is Hermitian by construction and its spectrum is {p +- |c|, q, q}.
    """
    p, q, coh = _dark_block(s, u, v)
    return {
        "trace_error": float(np.max(np.abs(2.0 * (p + q) - 1.0))),
        "hermiticity_error": 0.0,
        "min_eigenvalue": float(min(np.min(p - np.abs(coh)), np.min(q))),
    }


@dataclass(kw_only=True)
class EffectiveTrajectory(Trajectory):
    """A Trajectory reconstructed from the sampled (s, u, v) solution."""

    mode: Mode
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray


def integrate_many(cfgs, mode: Mode = Mode.FULL,
                   samples: int = 2000) -> Iterator[EffectiveTrajectory]:
    """Propagate (s, u, v) from (-1/2, 1/sqrt(2), 0) for every configuration at once.

    One shared RK45 solve of _suv_rhs, looked up by name at every call, on the
    scaffold of liouville.integrate_many (_solve_batch: window, samples, budget);
    each member keeps dark_density(s, u, v) in the adiabatic basis, with its
    invariant errors in closed form (dark_invariants) and theta_g from
    tripod.geometric_phases.
    """
    batch = Batch.of(cfgs)
    sol = _solve_batch(lambda s, y: _suv_rhs(s, y.reshape(3, -1), batch, mode).ravel(),
                       np.repeat([-0.5, 1.0 / _SQRT2, 0.0], len(batch)), batch, samples, METHOD,
                       "the effective solve stopped at its budget of {} derivative calls "
                       "(about 30 per unit of gamma)")
    s, u, v = sol.y.reshape(3, -1, samples)
    return (EffectiveTrajectory(**vars(_trajectory(cfg, Basis.ADIABATIC,
                                                   dark_density(s[b], u[b], v[b]), int(sol.nfev),
                                                   theta_g, dark_invariants(s[b], u[b], v[b]))),
                                mode=mode, s=s[b], u=u[b], v=v[b])
            for b, (cfg, theta_g) in enumerate(zip(batch.cfgs, geometric_phases(batch.cfgs))))


def integrate_suv(cfg: PulseConfig, mode: Mode = Mode.FULL,
                  samples: int = 2000) -> EffectiveTrajectory:
    """Propagate (s, u, v) across the window of one run: a batch of one."""
    return next(integrate_many([cfg], mode=mode, samples=samples))


@dataclass(frozen=True)
class TensorComponents:
    """Dark-block dissipator tensor: rho^a_kl' (dephasing part) = -D[i,j,k,l] rho^a_ij - D0[k,l]."""

    D: np.ndarray   # (2, 2, 2, 2) complex
    D0: np.ndarray  # (2, 2) complex


def dissipator_tensor(t: float, cfg: PulseConfig) -> TensorComponents:
    """Extract D and D0 numerically by applying the dark-block map to basis matrices.

    The map fills the dark block of rho^a, gives each bright level half the
    leftover population and keeps the dark block of liouville's frame
    dephasing; the zero block and the four unit blocks take one array pass.
    """
    rho_a = np.zeros((5, 4, 4), dtype=complex)
    rho_a[1:, :2, :2] = np.eye(4).reshape(4, 2, 2)
    rho_a[:, 2, 2] = rho_a[:, 3, 3] = 0.5 * (1.0 - np.trace(rho_a, axis1=1, axis2=2))
    act = _frame_dephasing(rho_a, frame_matrix(mixing_angles(t, cfg)), cfg.gamma.rates)[:, :2, :2]
    return TensorComponents(D=(act[0] - act[1:]).reshape(2, 2, 2, 2), D0=-act[0])


def tensor_rates(tc: TensorComponents) -> EffectiveRates:
    """Rate combinations implied by the extracted tensor (for cross-checks)."""
    d = tc.D
    return EffectiveRates(
        Gamma_s=float(np.real(d[0, 0, 0, 0] + d[1, 1, 0, 0])),
        Gamma_u=float(np.real(d[0, 1, 0, 1] + np.real(d[0, 1, 1, 0]))),
        Gamma_v=float(np.real(d[0, 1, 0, 1] - np.real(d[0, 1, 1, 0]))),
        Omega_su=float(np.real(d[0, 0, 0, 1])),
        Omega_sv=float(np.imag(d[0, 0, 0, 1])),
        Omega_uv=float(np.imag(d[0, 1, 1, 0])),
    )
