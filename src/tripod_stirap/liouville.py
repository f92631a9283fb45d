"""Master equation for the dephasing tripod and its adiabatic-frame form.

The bare-basis equation of motion is

    i rho' = [H, rho] + D(rho),      D(rho) = -i * gamma (.) rho,

where (.) is the elementwise (Hadamard) product, so coherences decay as
rho_mn' = -gamma_mn rho_mn while populations are untouched.  On the
row-major 16-vector vec(rho) it is linear with three time-dependent weights,

    vec(rho)' = (Omega_p L_p + Omega_s L_s + Omega_c L_c + L_gamma) vec(rho),

with constant coupling superoperators L_k = -i [H_k, .] and the diagonal
L_gamma = -diag(vec(gamma)) (Liouville-space form, T. F. Havel, J. Math.
Phys. 44, 534 (2003)).  Runs are integrated as a batch: every member is
mapped onto the normalised time s in [0, 1] and all of them advance
through one shared RK45 solve.  The same dynamics can be propagated in the
instantaneous eigenframe, where the non-adiabatic generator R^dag dR/dt
appears explicitly; the two routes must agree and are cross-checked in
the tests.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepSizeUnderflow, ToleranceNotMet
from .pulses import _EXP_CLAMP, Batch, DephasingMatrix, PulseConfig, mixing_angles
from .tripod import TargetState, adiabatic_frame, frame_matrix, target_state

RTOL = 1e-9
ATOL = 1e-12


def _commutator_superop(m: np.ndarray) -> np.ndarray:
    """-i [M, .] on row-major vec(rho), using vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(4)
    return -1j * (np.kron(m, eye) - np.kron(eye, m.T))


def _coupling(i: int, j: int) -> np.ndarray:
    """Hamiltonian per unit Rabi frequency of a field driving levels i and j."""
    h = np.zeros((4, 4))
    h[i, j] = h[j, i] = 0.5
    return h


# pump, Stokes and control superoperators, in the order of pulse_envelopes
L_PUMP = _commutator_superop(_coupling(0, 1))
L_STOKES = _commutator_superop(_coupling(1, 2))
L_CONTROL = _commutator_superop(_coupling(1, 3))
# vec @ _DRIVE holds L_p vec, L_s vec and L_c vec side by side
_DRIVE = np.concatenate([L_PUMP.T, L_STOKES.T, L_CONTROL.T], axis=1)


class Basis(enum.Enum):
    BARE = "bare"
    ADIABATIC = "adiabatic"


def dissipator(rho: np.ndarray, gamma: DephasingMatrix) -> np.ndarray:
    """Dephasing matrix D with D_mn = -i * gamma_mn * rho_mn, zero diagonal."""
    return -1j * gamma.rates * rho


def rhs_bare(t, rho: np.ndarray, cfg: PulseConfig | Batch) -> np.ndarray:
    """Bare-basis rho' = (sum_k Omega_k(t) L_k + L_gamma) rho.

    Takes one run (a PulseConfig, a scalar t and a 4x4 rho) or a Batch (the
    members' times, shape (B,), and their states, shape (B, 4, 4) or
    (B, 16)); the result has the shape of rho.  The envelopes are the
    Gaussians of pulses.pulse_envelopes, evaluated for all members at once.
    """
    batch = cfg if isinstance(cfg, Batch) else Batch.of([cfg])
    vec = rho.reshape(len(batch), 16)
    dt = np.reshape(t, (-1, 1)) - batch.centers
    omega = batch.omega0 * np.exp(-np.minimum(dt * dt / batch.widths, _EXP_CLAMP))
    out = np.einsum("bk,bkj->bj", omega, (vec @ _DRIVE).reshape(-1, 3, 16))
    out -= batch.rates * vec
    return out.reshape(rho.shape)


def to_adiabatic(rho: np.ndarray, t, cfg: PulseConfig | Batch) -> np.ndarray:
    """rho^a = R^dag rho R in the instantaneous eigenframe at time t.

    Takes one 4x4 state at a scalar t, a stack of shape (n, 4, 4) with its
    n sample times, or a Batch with one time per member.
    """
    r = frame_matrix(mixing_angles(t, cfg))
    return np.conj(np.swapaxes(r, -1, -2)) @ rho @ r


def from_adiabatic(rho_a: np.ndarray, t, cfg: PulseConfig) -> np.ndarray:
    """rho = R rho^a R^dag; the inverse of to_adiabatic, on the same shapes."""
    r = frame_matrix(mixing_angles(t, cfg))
    return r @ rho_a @ np.conj(np.swapaxes(r, -1, -2))


def rhs_adiabatic(t: float, rho_a: np.ndarray, cfg: PulseConfig) -> np.ndarray:
    """Eigenframe equation rho^a' = -[W + i H_a, rho^a] - i R^dag D(R rho^a R^dag) R.

    H_a = diag(energies) and the frame generator W come from tripod.adiabatic_frame.
    """
    frame = adiabatic_frame(t, cfg)
    r, r_h = frame.R, frame.R.conj().T
    k = frame.generator + 1j * np.diag(frame.energies)
    return -(k @ rho_a - rho_a @ k) - 1j * (r_h @ dissipator(r @ rho_a @ r_h, cfg.gamma) @ r)


@dataclass
class Trajectory:
    """Sampled solution of one run, in both bases, with derived observables."""

    cfg: PulseConfig
    basis: Basis
    t: np.ndarray
    rho: np.ndarray        # (n, 4, 4) bare basis
    rho_a: np.ndarray      # (n, 4, 4) adiabatic basis
    fidelity: np.ndarray   # (n,) squared overlap with the ideal end state
    target: TargetState
    stats: dict = field(default_factory=dict)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho))

    @property
    def adiabatic_populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho_a))


def _solve(fun, t_span, y0, t_eval=None, rtol: float = RTOL, atol: float = ATOL):
    """RK45 solve; a failure raises a typed error.

    A non-finite derivative at the start would make RK45's first step size
    NaN, and its step loop would then never end, so it is refused up front.
    Without events, a failed RK45 solve (status -1) is a step-size underflow.
    """
    if not np.all(np.isfinite(fun(t_span[0], y0))):
        raise ToleranceNotMet("non-finite derivative at the start of the window")
    sol = solve_ivp(fun, t_span, y0, method="RK45", t_eval=t_eval, rtol=rtol, atol=atol)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    return sol


def _trajectory(cfg: PulseConfig, basis: Basis, states: np.ndarray, nfev: int) -> Trajectory:
    """Both bases, fidelity and invariant errors of one member's sampled states."""
    t_eval = np.linspace(cfg.start, cfg.end, len(states))
    if basis is Basis.BARE:
        rho, rho_a = states, to_adiabatic(states, t_eval, cfg)
    else:
        rho, rho_a = from_adiabatic(states, t_eval, cfg), states

    tgt = target_state(cfg)
    fid = tgt.expectation(rho)

    rho_h = np.conj(np.transpose(rho, (0, 2, 1)))
    trace_err = float(np.max(np.abs(np.einsum("nii->n", rho) - 1.0)))
    herm_err = float(np.max(np.abs(rho - rho_h)))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho_h))[:, 0]))
    if min_eig < -1e-6:
        warnings.warn(f"density matrix lost positivity: min eigenvalue {min_eig:.3e}")

    stats = {
        "nfev": nfev,
        "trace_error": trace_err,
        "hermiticity_error": herm_err,
        "min_eigenvalue": min_eig,
    }
    return Trajectory(cfg=cfg, basis=basis, t=t_eval, rho=rho, rho_a=rho_a,
                      fidelity=fid, target=tgt, stats=stats)


def integrate_many(cfgs, basis: Basis = Basis.BARE,
                   samples: int = 2000) -> Iterator[Trajectory]:
    """Propagate |psi_1><psi_1| for every configuration in one shared solve.

    Member b runs on t = start_b + s * (end_b - start_b) with s in [0, 1], so
    members with different windows share every RK45 step.  The step size
    follows the hardest member and the error norm spans the whole batch, so
    a member's values depend on the batch composition at the level of the
    solver's own error (typically below 1e-9 in F2); the same batch always
    gives the same values.  Each trajectory is sampled at np.linspace(start,
    end, samples), and its `nfev` counts evaluations of the batch derivative.
    A failed solve raises for the whole batch at the call; the trajectories
    are then built one at a time as the caller iterates.

    The bare basis is the default; the adiabatic basis exercises the frame
    generator and is kept as a verification mode, evaluated member by member:
    its one caller, `simulate --basis adiabatic`, runs a batch of one.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    batch = Batch.of(cfgs)
    n = len(batch)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    span = batch.span[:, None]

    if basis is Basis.BARE:
        y0 = np.tile(rho0.ravel(), n)

        def fun(s, y):
            out = rhs_bare(batch.times(s), y.view(complex).reshape(n, 16), batch)
            out *= span
            return out.ravel().view(float)
    else:
        y0 = to_adiabatic(rho0, batch.start, batch).ravel()

        def fun(s, y):
            t, rho_a = batch.times(s), y.view(complex).reshape(n, 4, 4)
            return np.concatenate([batch.span[b] * rhs_adiabatic(t[b], rho_a[b], cfg).ravel()
                                   for b, cfg in enumerate(batch.cfgs)]).view(float)

    # the solver sees real and imaginary parts as separate real components:
    # with a complex state, RK45's error estimate becomes a complex
    # matrix-vector product that threaded BLAS slows down on a busy machine
    sol = _solve(fun, (0.0, 1.0), y0.view(float), np.linspace(0.0, 1.0, samples))
    states = np.ascontiguousarray(sol.y.T).view(complex).reshape(samples, n, 4, 4)
    return (_trajectory(cfg, basis, np.ascontiguousarray(states[:, b]), int(sol.nfev))
            for b, cfg in enumerate(batch.cfgs))


def integrate(cfg: PulseConfig, basis: Basis = Basis.BARE, samples: int = 2000) -> Trajectory:
    """Propagate |psi_1><psi_1| from t_start to t_end: a batch of one."""
    return next(integrate_many([cfg], basis=basis, samples=samples))
