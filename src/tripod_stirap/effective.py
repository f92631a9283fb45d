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
from dataclasses import dataclass, fields
from functools import lru_cache, partial

import numpy as np

from .pulses import (Batch, DephasingMatrix, MixingAngles, PulseConfig, _frame_angles,
                     mixing_angles)
from .tripod import frame_matrix, geometric_phases
from .liouville import Basis, Trajectory, _exponents_in_s, _solve_batch, _trajectory

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


def effective_rates(angles: MixingAngles, gamma: DephasingMatrix | np.ndarray) -> EffectiveRates:
    """Closed-form rates; only gamma_13, gamma_14 and gamma_34 enter.

    Elementwise: a DephasingMatrix and scalar angles give floats; a
    (4, 4, B) array of member rates and (B,) angles give (B,) arrays.
    The phi-weights of Gamma_v are the complement of those in Gamma_s and
    Gamma_u: at theta = 0, phi = 0 the dark doublet spans psi_1 and psi_4,
    so its coherence must decay at gamma_14, not gamma_13.
    """
    g13, g14, g34 = gamma[0, 2], gamma[0, 3], gamma[2, 3]
    st, ct, sp, cp = angles.sin_theta, angles.cos_theta, angles.sin_phi, angles.cos_phi
    s2p, c2p = 2.0 * sp * cp, cp * cp - sp * sp
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


def _monomials(cos: np.ndarray, sin: np.ndarray, phi_dot: np.ndarray) -> np.ndarray:
    """S + (30,) angle monomials: the products of a theta and a phi factor.

    cos and sin hold those of (theta, phi), (2,) + S each, and phi_dot has shape S.  Every
    (B, 30) block over the last axis of S steps by B along the monomials, as one time's
    block always did: NumPy's matmul with the table of _suv_constants takes another path, with
    other bits, where a lone member's monomials are not adjacent.  With x = sin^2(theta),
    r = sin(theta), c = cos(2 phi) and s = sin(phi) cos(phi), the theta factors are
    (1 - x)^2, x (1 - x), x, r (1 - x) and r x, and the phi factors c^2, s^2, c, s, s c and
    phi'.  Every rate of effective_rates is a sum of these monomials, with coefficients
    linear in (g13 + g14)/2, g14 - g13 and g34, and so is the geometric rate phi' sin(theta).
    The theta factors are nonnegative and none is formed as 1 - x, which would lose digits
    near theta = pi/2; c is exactly 0 where phi = pi/4, as are the couplings that vanish there.
    """
    (ct2, cp2), (st2, sp2) = cos * cos, sin * sin
    c, s = cp2 - sp2, sin[1] * cos[1]
    theta_terms = np.stack([ct2 * ct2, st2 * ct2, st2, sin[0] * ct2, sin[0] * st2], -2)
    phi_terms = np.stack([c * c, s * s, c, s, s * c, phi_dot], -2)
    return (theta_terms[..., None, :] * phi_terms[..., None, :, :]).reshape(
        c.shape[:-1] + (30, -1)).swapaxes(-1, -2)


# monomial 6 i + j is theta factor i times phi factor j: r (1 - x) phi' and r x phi' sum to
# the geometric rate phi' sin(theta)
_GEOMETRIC = [6 * 3 + 5, 6 * 4 + 5]
# the row-major (s, u, v) generator in the rates (Gamma_s, Gamma_u, Gamma_v, Omega_su,
# Omega_sv, Omega_uv) of effective_rates, with the geometric rate g = 2 phi' sin(theta):
#   [[-Gamma_s, sqrt2 Omega_su, sqrt2 Omega_sv], [sqrt2 Omega_su, -Gamma_u, Omega_uv + g],
#    [sqrt2 Omega_sv, Omega_uv - g, -Gamma_v]]
_TO_GEN = np.zeros((6, 9))
_TO_GEN[[0, 1, 2], [0, 4, 8]] = -1.0
_TO_GEN[[3, 3, 4, 4], [1, 3, 2, 6]] = _SQRT2
_TO_GEN[5, [5, 7]] = 1.0
# the couplings, which Mode.WEAK_DEPHASING drops, are the off-diagonal entries
_COUPLINGS = ~np.eye(3, dtype=bool).ravel()


@lru_cache(maxsize=4)
def _suv_constants(batch: Batch, mode: Mode) -> tuple:
    """The per-batch constant of _suv_weights: a (B, 30, 9) table taking _monomials to the
    row-major (s, u, v) generator, per unit s.

    The rates are linear in (g13 + g14)/2, g14 - g13 and g34, so effective_rates at unit
    values of each, on a grid of angles, fixes their coefficients in the monomials.  These
    are multiples of 1/2, and rounding to eighths removes the rounding of the fit, so a
    coupling that vanishes in closed form is exactly 0.  Each member weighs them by its own
    rates and window span; the geometric rate +-2 phi' sin(theta) is per unit s already.
    """
    theta, phi = np.meshgrid(np.linspace(0.1, 1.4, 6), np.linspace(0.1, 1.5, 6))
    grid = MixingAngles.at(theta.reshape(-1, 1), phi.reshape(-1, 1))
    unit = np.zeros((4, 4, 3))  # (g13 + g14)/2, g14 - g13 and g34 at 1, one at a time
    unit[0, 2], unit[0, 3], unit[2, 3] = [1.0, -0.5, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]
    rates = effective_rates(grid, unit)
    values = np.stack([getattr(rates, f.name) for f in fields(EffectiveRates)], -1)
    monomials = _monomials(np.hstack([grid.cos_theta, grid.cos_phi]).T,
                           np.hstack([grid.sin_theta, grid.sin_phi]).T, np.zeros(theta.size))
    fit = np.linalg.lstsq(monomials, values.reshape(len(monomials), -1), rcond=None)[0]
    terms = (np.round(8.0 * fit) / 8.0).reshape(-1, 3, 6) @ _TO_GEN
    if mode is Mode.WEAK_DEPHASING:  # the decay rates alone
        terms[..., _COUPLINGS] = 0.0
    gamma = batch.rates.T.reshape(4, 4, -1)
    g13, g14, g34 = gamma[0, 2], gamma[0, 3], gamma[2, 3]
    weights = np.array([0.5 * (g13 + g14), g14 - g13, g34]).T
    table = np.einsum("bk,fkg->bfg", weights * batch.span[:, None], terms)
    table[:, _GEOMETRIC, 5], table[:, _GEOMETRIC, 7] = 2.0, -2.0  # +g at (u, v), -g at (v, u)
    return table


def _suv_weights(x: np.ndarray, batch: Batch, mode: Mode) -> np.ndarray:
    """The (n, B, 3, 3) (s, u, v) generators of every member at n stage times x.

    The angles and phi' come from the Gaussian exponents in x (liouville._exponents_in_s,
    through pulses._frame_angles), so phi' is per unit x like the table of _suv_constants;
    the generator is one contraction of the monomials with that table.
    """
    monomials = _monomials(*_frame_angles(*_exponents_in_s(x, batch)))
    return (monomials[:, :, None] @ _suv_constants(batch, mode)).reshape(len(x), -1, 3, 3)


def _suv_rhs(x, y: np.ndarray, batch: Batch, mode: Mode, w=None) -> np.ndarray:
    """d(s, u, v)/dx of every member at the normalised time x on the solver's flat
    member-major state, (s, u, v) of each member in turn: one batched matvec, as the master
    engine's derivatives take it.

    w, when given, is the (B, 3, 3) _suv_weights at x, from the step loop's one pass over
    the stage times of a step attempt; without it the generators are computed here.
    """
    w = _suv_weights(np.array([x]), batch, mode)[0] if w is None else w
    return (w @ y.reshape(-1, 3, 1)).ravel()


def _dark_block(s, u, v):
    """Dark populations p, bright populations q and dark coherence of (s, u, v)."""
    p = 0.25 - 0.5 * s
    return p, 0.5 * (1.0 - 2.0 * p), (u + 1j * v) / _SQRT2


# samples per long-double pass of _dark_fidelity: its temporaries stay at 32 KB each, so a
# long trajectory does not raise the peak memory (a 10^4-sample effective simulate did by
# about 0.6 MB in a single pass)
_F2_PASS = 2048


def _dark_fidelity(amplitudes: np.ndarray, angles: MixingAngles, s, u, v) -> np.ndarray:
    """<R^dag psi| dark_density(s, u, v) |R^dag psi> at every sample, with no 4x4 frame.

    psi is real and columns 0 and 1 of R = tripod.frame_matrix are conjugate, so a = R^dag psi
    has a_1 = conj(a_0), and with the dark block [[p, c], [c*, p]] and q on each bright level

        F2 = 2 p |a_0|^2 + q (a_2^2 + a_3^2) + 2 Re(c conj(a_0)^2).

    a is formed from frame_matrix's own float64 entries (its complex division by sqrt(2)
    multiplies by fl(1/sqrt(2))), and a and F2 are summed in np.longdouble, so F2 carries
    little rounding beyond that of its operands.
    """
    inv = 1.0 / _SQRT2
    trig = np.array([angles.sin_theta, angles.cos_theta, angles.sin_phi, angles.cos_phi])
    psi = amplitudes.real.astype(np.longdouble)

    def entry(x):
        return (x * inv).astype(np.longdouble)

    f2 = np.empty(np.shape(s))
    for first in range(0, len(f2), _F2_PASS):
        rows = slice(first, first + _F2_PASS)
        st, ct, sp, cp = trig[:, rows]
        p, q, coh = _dark_block(s[rows], u[rows], v[rows])
        re = psi[0] * entry(ct) - psi[2] * entry(st * cp) - psi[3] * entry(st * sp)
        im = psi[2] * entry(sp) - psi[3] * entry(cp)
        bright = psi[0] * entry(st) + psi[2] * entry(ct * cp) + psi[3] * entry(ct * sp)
        a2, a3 = bright + psi[1] * inv, bright - psi[1] * inv
        re2, im2 = re * re, im * im
        f2[rows] = (2.0 * p * (re2 + im2) + q * (a2 * a2 + a3 * a3)
                    + 2.0 * (coh.real * (re2 - im2) + 2.0 * coh.imag * (re * im)))
    return f2


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
    min_eigenvalue follows the master engine's fold (liouville._Invariants) in closed form:
    the final sample's least eigenvalue, or the least over the samples if one of them lies
    at or below -1e-12.
    """
    p, q, coh = _dark_block(s, u, v)
    least = np.minimum(p - np.abs(coh), q)
    return {
        "trace_error": float(np.max(np.abs(2.0 * (p + q) - 1.0))),
        "hermiticity_error": 0.0,
        "min_eigenvalue": float(least[-1] if np.all(least > -1e-12) else least.min()),
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

    One shared DOP853 solve of _suv_rhs, with only `mode` bound, on the
    stage-batched step loop of liouville.integrate_many (_solve_batch:
    window, samples, budget), on the member-major (B, 3) state, with one
    _suv_weights pass for the generators at all stage times of a step
    attempt and one _suv_rhs call per stage.  The error
    norm spans the batch: on a mixed batch of orderings, Omega0, delays and
    rates, every member's final F2 lies within 4e-11, and its whole (s, u,
    v) and F2 trajectories within 1.2e-9, of its solve alone; on overlap,
    scp and csp batches at Omega0 50, (s, u, v) lies within 3.5e-10
    (gamma 0) and 1.6e-9 (gamma 0.7) of a lone solve at rtol 1e-13.  Each
    member keeps dark_density(s, u, v) in the adiabatic basis, with its
    invariant errors in closed form (dark_invariants) and theta_g from
    tripod.geometric_phases.
    """
    batch = Batch.of(cfgs)
    y, nfev = _solve_batch(partial(_suv_rhs, mode=mode), partial(_suv_weights, mode=mode),
                           np.tile([-0.5, 1.0 / _SQRT2, 0.0], len(batch)), batch, samples,
                           "the effective solve stopped at its budget of {} derivative calls "
                           "(about 30 per unit of gamma)")

    def member(cfg: PulseConfig, dark: np.ndarray, theta_g: float) -> EffectiveTrajectory:
        traj = _trajectory(cfg, Basis.ADIABATIC, samples, dark_density(*dark),
                           nfev, theta_g, dark_invariants(*dark),
                           lambda target, t: _dark_fidelity(target.amplitudes,
                                                            mixing_angles(t, cfg), *dark))
        return EffectiveTrajectory(**vars(traj), mode=mode, s=dark[0], u=dark[1], v=dark[2])

    return (member(*args) for args in zip(batch.cfgs, y.reshape(-1, 3, samples),
                                           geometric_phases(batch.cfgs)))


def integrate_suv(cfg: PulseConfig, mode: Mode = Mode.FULL,
                  samples: int = 2000) -> EffectiveTrajectory:
    """Propagate (s, u, v) across the window of one run: a batch of one.

    Its one caller is simulate; it stays because perfbench's trace names it as a span.
    """
    return next(integrate_many([cfg], mode=mode, samples=samples))


@dataclass(frozen=True)
class TensorComponents:
    """Dark-block dissipator tensor: rho^a_kl' (dephasing part) = -D[i,j,k,l] rho^a_ij - D0[k,l]."""

    D: np.ndarray   # (2, 2, 2, 2) complex
    D0: np.ndarray  # (2, 2) complex


def dissipator_tensor(t: float, cfg: PulseConfig) -> TensorComponents:
    """Extract D and D0 numerically by applying the dark-block map to basis matrices.

    The map fills the dark block of rho^a, gives each bright level half the
    leftover population and keeps the dark block of the frame dephasing
    -R^dag (gamma (.) (R rho^a R^dag)) R; the zero block and the four unit
    blocks take one array pass.
    """
    rho_a = np.zeros((5, 4, 4), dtype=complex)
    rho_a[1:, :2, :2] = np.eye(4).reshape(4, 2, 2)
    rho_a[:, 2, 2] = rho_a[:, 3, 3] = 0.5 * (1.0 - np.trace(rho_a, axis1=1, axis2=2))
    r = frame_matrix(mixing_angles(t, cfg))
    act = -(r.conj().T @ (cfg.gamma.rates * (r @ rho_a @ r.conj().T)) @ r)[:, :2, :2]
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
