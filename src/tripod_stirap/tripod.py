"""Tripod Hamiltonian, adiabatic frame and geometric phase.

Four levels: three ground states (indices 0, 2, 3) coupled to one excited
state (index 1) by the pump, Stokes and control fields.  On resonance the
instantaneous eigenbasis contains two degenerate dark states |Phi_1>,
|Phi_2> with zero eigenvalue and two bright states |Phi_3>, |Phi_4> at
+-Omega/2.  The dark doublet is degenerate throughout, so transport inside
it is purely geometric: the accumulated angle is

    theta_g = integral  phi'(t) sin(theta(t)) dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .pulses import MixingAngles, Ordering, PulseConfig, mixing_angles, pulse_envelopes, rms_rabi

_SQRT2 = np.sqrt(2.0)


def hamiltonian(t: float, cfg: PulseConfig) -> np.ndarray:
    """4x4 rotating-frame Hamiltonian at time t (hbar = 1)."""
    op, os_, oc = pulse_envelopes(t, cfg)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = 0.5 * op
    h[1, 2] = h[2, 1] = 0.5 * os_
    h[1, 3] = h[3, 1] = 0.5 * oc
    return h


def frame_matrix(angles: MixingAngles) -> np.ndarray:
    """Unitary whose columns are |Phi_1>, |Phi_2>, |Phi_3>, |Phi_4>.

    Scalar angles give one (4, 4) matrix; array angles of shape S give the
    stack of shape S + (4, 4), one frame per sample.
    """
    st, ct = np.sin(angles.theta), np.cos(angles.theta)
    sp, cp = np.sin(angles.phi), np.cos(angles.phi)
    columns = (
        (ct, 0.0, -(st * cp + 1j * sp), -(st * sp - 1j * cp)),
        (ct, 0.0, -(st * cp - 1j * sp), -(st * sp + 1j * cp)),
        (st, 1.0, ct * cp, ct * sp),
        (st, -1.0, ct * cp, ct * sp),
    )
    r = np.empty(np.shape(st) + (4, 4), dtype=complex)
    for j, column in enumerate(columns):
        for i, entry in enumerate(column):
            r[..., i, j] = entry
    return r / _SQRT2


def frame_generator(angles: MixingAngles) -> np.ndarray:
    """Non-adiabatic generator W = R^dag dR/dt at one instant, in closed form.

    With a = theta', p = phi' sin(theta), q = phi' cos(theta), m = (a - i q)/2
    and n = (a + i q)/2, W = [[i p, 0, m, m], [0, -i p, n, n], [-n, -m, 0, 0],
    [-n, -m, 0, 0]]: anti-Hermitian, with the geometric rate +-p on the dark doublet.
    """
    a = angles.theta_dot
    p = angles.phi_dot * np.sin(angles.theta)
    q = angles.phi_dot * np.cos(angles.theta)
    m, n = 0.5 * (a - 1j * q), 0.5 * (a + 1j * q)
    return np.array([[1j * p, 0.0, m, m], [0.0, -1j * p, n, n],
                     [-n, -m, 0.0, 0.0], [-n, -m, 0.0, 0.0]])


@dataclass(frozen=True)
class AdiabaticFrame:
    """Instantaneous eigenframe: R, eigenvalues and the generator R^dag dR/dt."""

    t: float
    R: np.ndarray
    energies: np.ndarray
    generator: np.ndarray
    angles: MixingAngles


def adiabatic_frame(t: float, cfg: PulseConfig) -> AdiabaticFrame:
    angles = mixing_angles(t, cfg)
    r = frame_matrix(angles)
    omega = float(rms_rabi(t, cfg))
    energies = np.array([0.0, 0.0, 0.5 * omega, -0.5 * omega])
    return AdiabaticFrame(t=float(t), R=r, energies=energies, generator=frame_generator(angles),
                          angles=angles)


def geometric_phase(cfg: PulseConfig) -> float:
    """Signed angle swept inside the dark doublet over the full window.

    When the Stokes and control pulses have the same shape, phi stays at
    pi/4, phi' vanishes identically and the angle is exactly 0.
    """
    _, stokes, control = cfg.shapes()
    if stokes == control:
        return 0.0

    def rate(t: float) -> float:
        ang = mixing_angles(t, cfg)
        return ang.phi_dot * np.sin(ang.theta)

    value, _ = quad(rate, cfg.start, cfg.end, epsabs=1e-10, epsrel=1e-10, limit=400)
    return value


@dataclass(frozen=True)
class TargetState:
    """Ideal lossless final state |Psi(t_end)> and the angle that built it."""

    amplitudes: np.ndarray
    theta_g: float

    def expectation(self, rho: np.ndarray):
        """<Psi| rho |Psi>, the squared overlap with a density matrix.

        One 4x4 matrix gives a float; an (n, 4, 4) stack gives an (n,) array.
        """
        value = np.real(self.amplitudes.conj() @ rho @ self.amplitudes)
        return value if np.ndim(value) else float(value)


def target_state(cfg: PulseConfig, theta_g: float | None = None) -> TargetState:
    """Bare-basis end state reached by ideal adiabatic dark-state transport.

    Starting from the first ground state, the final superposition is fixed
    by the ordering and the geometric angle alone.
    """
    if theta_g is None:
        theta_g = geometric_phase(cfg)
    c, s = np.cos(theta_g), np.sin(theta_g)
    if cfg.ordering is Ordering.OVERLAP:
        amps = np.array([0.0, 0.0, -1.0, -1.0]) / _SQRT2
    elif cfg.ordering is Ordering.SCP:
        amps = np.array([0.0, 0.0, -s, -c])
    elif cfg.ordering is Ordering.CSP:
        amps = np.array([0.0, 0.0, -c, s])
    else:  # fractional: the pump turns back off, part of the population returns
        amps = np.array([c, 0.0, -s, 0.0])
    return TargetState(amplitudes=amps.astype(complex), theta_g=float(theta_g))
