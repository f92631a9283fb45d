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
from dataclasses import dataclass, field

import numpy as np

from .pulses import DephasingMatrix, MixingAngles, PulseConfig, mixing_angles
from .tripod import TargetState, frame_matrix, target_state
from .liouville import _solve, dissipator, from_adiabatic

_SQRT2 = np.sqrt(2.0)


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


def effective_rates(angles: MixingAngles, gamma: DephasingMatrix) -> EffectiveRates:
    """Closed-form rates; only gamma_13, gamma_14 and gamma_34 enter.

    The phi-weights of Gamma_v are the complement of those in Gamma_s and
    Gamma_u: at theta = 0, phi = 0 the dark doublet spans psi_1 and psi_4,
    so its coherence must decay at gamma_14, not gamma_13.
    """
    g13, g14, g34 = gamma[0, 2], gamma[0, 3], gamma[2, 3]
    st, ct = np.sin(angles.theta), np.cos(angles.theta)
    sp, cp = np.sin(angles.phi), np.cos(angles.phi)
    s2t = 2.0 * st * ct
    s2p, c2p = 2.0 * sp * cp, cp * cp - sp * sp
    s4p = 2.0 * s2p * c2p
    g1 = cp * cp * g13 + sp * sp * g14
    g1bar = sp * sp * g13 + cp * cp * g14

    gamma_s = 0.5 * s2t * s2t * g1 + 0.5 * ct**4 * s2p * s2p * g34
    gamma_u = 0.25 * s2t * s2t * g1 + 0.25 * (1.0 + st * st) ** 2 * s2p * s2p * g34
    gamma_v = ct * ct * g1bar + st * st * c2p * c2p * g34
    omega_su = 0.25 * s2t * s2t * g1 - 0.25 * ct * ct * (1.0 + st * st) * s2p * s2p * g34
    omega_sv = (-0.25 * ct * ct * st * s4p * g34
                + 0.5 * ct * ct * st * s2p * (g14 - g13))
    # sin(3 theta) - 7 sin(theta) with a positive prefactor; the sign is fixed
    # by the numerically extracted tensor (see dissipator_tensor)
    omega_uv = ((np.sin(3.0 * angles.theta) - 7.0 * st) / 16.0 * s4p * g34
                - 0.5 * ct * ct * st * s2p * (g14 - g13))

    return EffectiveRates(Gamma_s=float(gamma_s), Gamma_u=float(gamma_u),
                          Gamma_v=float(gamma_v), Omega_su=float(omega_su),
                          Omega_sv=float(omega_sv), Omega_uv=float(omega_uv))


def _suv_rhs(t: float, y: np.ndarray, cfg: PulseConfig, mode: Mode) -> np.ndarray:
    s, u, v = y
    ang = mixing_angles(t, cfg)
    r = effective_rates(ang, cfg.gamma)
    geo = 2.0 * ang.phi_dot * np.sin(ang.theta)
    if mode is Mode.WEAK_DEPHASING:
        return np.array([
            -r.Gamma_s * s,
            -r.Gamma_u * u + geo * v,
            -r.Gamma_v * v - geo * u,
        ])
    return np.array([
        -r.Gamma_s * s + _SQRT2 * r.Omega_su * u + _SQRT2 * r.Omega_sv * v,
        -r.Gamma_u * u + (geo + r.Omega_uv) * v + _SQRT2 * r.Omega_su * s,
        -r.Gamma_v * v + (-geo + r.Omega_uv) * u + _SQRT2 * r.Omega_sv * s,
    ])


def dark_density(s, u, v) -> np.ndarray:
    """4x4 adiabatic-basis state implied by (s, u, v).

    The dark block follows the (s, u, v) parametrization; the bright levels
    share the leftover population equally with no cross coherences.  Scalar
    s, u, v give one (4, 4) state; arrays of shape S give a stack S + (4, 4).
    """
    p = 0.25 - 0.5 * s
    coh = (u + 1j * v) / _SQRT2
    q = 0.5 * (1.0 - 2.0 * p)
    rho_a = np.zeros(np.shape(p) + (4, 4), dtype=complex)
    rho_a[..., 0, 0] = rho_a[..., 1, 1] = p
    rho_a[..., 2, 2] = rho_a[..., 3, 3] = q
    rho_a[..., 0, 1] = coh
    rho_a[..., 1, 0] = np.conj(coh)
    return rho_a


@dataclass
class EffectiveTrajectory:
    """Sampled (s, u, v) solution plus reconstructed density matrices."""

    cfg: PulseConfig
    mode: Mode
    t: np.ndarray
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray        # (n, 4, 4) reconstructed bare states
    rho_a: np.ndarray      # (n, 4, 4) reconstructed adiabatic states
    fidelity: np.ndarray
    target: TargetState
    stats: dict = field(default_factory=dict)


def integrate_suv(cfg: PulseConfig, mode: Mode = Mode.FULL,
                  samples: int = 2000) -> EffectiveTrajectory:
    """Propagate (s, u, v) from (-1/2, 1/sqrt(2), 0) across the window."""
    if samples < 2:
        raise ValueError("samples must be at least 2")
    t_eval = np.linspace(cfg.start, cfg.end, samples)
    y0 = np.array([-0.5, 1.0 / _SQRT2, 0.0])
    sol = _solve(lambda t, y: _suv_rhs(t, y, cfg, mode), (cfg.start, cfg.end), y0, t_eval)
    s, u, v = sol.y

    rho_a = dark_density(s, u, v)
    rho = from_adiabatic(rho_a, t_eval, cfg)

    tgt = target_state(cfg)
    fid = tgt.expectation(rho)
    stats = {"nfev": int(sol.nfev)}
    return EffectiveTrajectory(cfg=cfg, mode=mode, t=t_eval, s=s, u=u, v=v,
                               rho=rho, rho_a=rho_a, fidelity=fid, target=tgt, stats=stats)


@dataclass(frozen=True)
class TensorComponents:
    """Dark-block dissipator tensor: rho^a_kl' (dephasing part) = -D[i,j,k,l] rho^a_ij - D0[k,l]."""

    D: np.ndarray   # (2, 2, 2, 2) complex
    D0: np.ndarray  # (2, 2) complex


def _dark_action(rho_d: np.ndarray, r: np.ndarray, gamma: DephasingMatrix) -> np.ndarray:
    """Dark block of the transformed dephasing term, bright populations slaved."""
    q = 0.5 * (1.0 - np.trace(rho_d))
    rho_a = np.zeros((4, 4), dtype=complex)
    rho_a[:2, :2] = rho_d
    rho_a[2, 2] = rho_a[3, 3] = q
    rho = r @ rho_a @ r.conj().T
    full = -1j * (r.conj().T @ dissipator(rho, gamma) @ r)
    return full[:2, :2]


def dissipator_tensor(t: float, cfg: PulseConfig) -> TensorComponents:
    """Extract D and D0 numerically by applying the dark-block map to basis matrices."""
    r = frame_matrix(mixing_angles(t, cfg))
    y0 = _dark_action(np.zeros((2, 2), dtype=complex), r, cfg.gamma)
    d = np.empty((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            d[i, j] = -(_dark_action(basis, r, cfg.gamma) - y0)
    return TensorComponents(D=d, D0=-y0)


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
