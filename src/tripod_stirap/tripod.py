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

from .pulses import (Batch, MixingAngles, Ordering, PulseConfig, mixing_angles, pulse_envelopes,
                     rms_rabi)

_SQRT2 = np.sqrt(2.0)
# Gauss-Legendre nodes on [-1, 1] and their weights: one panel of the theta_g rule
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# node values per array pass of the theta_g rule: bounds the temporaries of a long window
_PASS_NODES = 1 << 15


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
    st, ct, sp, cp = angles.sin_theta, angles.cos_theta, angles.sin_phi, angles.cos_phi
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
    p = angles.phi_dot * angles.sin_theta
    q = angles.phi_dot * angles.cos_theta
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


def geometric_phases(cfgs) -> np.ndarray:
    """Signed angle swept inside the dark doublet by every configuration.

    A composite Gauss-Legendre rule: each member's window is cut into the
    fewest equal panels no longer than its pulse width, with 20 nodes each.
    phi' sin(theta) is evaluated at the nodes of all members in array passes
    of at most _PASS_NODES values and summed node by node in order, so a
    member's angle depends on its own nodes alone and is the same in any
    batch.  Members that share a pulse shape and window are evaluated once.
    When the Stokes and control pulses have the same shape, phi stays at
    pi/4, phi' vanishes identically and the angle is exactly 0, with nothing
    evaluated.
    """
    cfgs = tuple(cfgs)
    theta_g = np.zeros(len(cfgs))
    shared = {}  # (shape, window) -> indices of the members that have it
    for i, cfg in enumerate(cfgs):
        _, stokes, control = cfg.shapes()
        if stokes != control:
            shared.setdefault((cfg.ordering, cfg.tau, cfg.width, cfg.start, cfg.end), []).append(i)
    if not shared:
        return theta_g
    batch = Batch.of(cfgs[rows[0]] for rows in shared.values())
    panels = np.ceil(batch.span / [cfg.width for cfg in batch.cfgs]).astype(int)
    length = batch.span / panels
    per_pass = max(1, _PASS_NODES // (_GL_NODES.size * len(batch)))
    total = np.zeros(len(batch))
    for first in range(0, panels.max(), per_pass):
        k = np.arange(first, min(first + per_pass, panels.max()))
        # node offsets from the window start, in panel lengths
        offsets = (k[:, None] + 0.5 * (_GL_NODES + 1.0)).reshape(-1, 1)
        ang = mixing_angles(batch.start + length * offsets, batch)
        # members with fewer panels add exact zeros past their window end
        rate = np.where(np.repeat(k, _GL_NODES.size)[:, None] < panels,
                        np.tile(_GL_WEIGHTS, k.size)[:, None] * ang.phi_dot * ang.sin_theta,
                        0.0)
        # a running sum down the nodes: the order does not depend on the pass size
        total = np.cumsum(np.vstack([total, rate]), axis=0)[-1]
    for value, rows in zip(0.5 * length * total, shared.values()):
        theta_g[rows] = value
    return theta_g


def geometric_phase(cfg: PulseConfig) -> float:
    """theta_g of one run: geometric_phases of a batch of one."""
    return float(geometric_phases([cfg])[0])


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
