"""Master equation for the dephasing tripod and its adiabatic-frame form.

The bare-basis equation of motion is

    i rho' = [H, rho] + D(rho),      D(rho) = -i * gamma (.) rho,

where (.) is the elementwise (Hadamard) product, so coherences decay as
rho_mn' = -gamma_mn rho_mn while populations are untouched.  A Hermitian
rho has 16 real coordinates c: the populations rho_ii, then Re rho_ij and
Im rho_ij for i < j (the coherence vector, T. F. Havel, J. Math. Phys. 44,
534 (2003)); two constant 16x16 maps take c to the row-major vec(rho) and
back.  In these coordinates the equation is real and linear with three
time-dependent weights,

    c' = (Omega_p L_p + Omega_s L_s + Omega_c L_c + L_gamma) c,

with constant real 16x16 matrices L_k, the coordinate form of -i [H_k, .],
and the diagonal L_gamma, which damps Re rho_ij and Im rho_ij at gamma_ij.
Runs are integrated as a batch: every member is mapped onto the
normalised time s in [0, 1] and all of them advance through one shared
eighth-order Dormand-Prince (DOP853) solve on (B, 16) real states.  The
derivatives take s itself and return dc/ds from constants built once per
batch (_constants), each member's window span folded in.  In the
instantaneous eigenframe the equation has four constant terms of the same
kind plus the dephasing rotated into the frame by a real 16x16 map
(frame_map, rhs_adiabatic); both bases share the batched solve, and the two
routes are cross-checked in the tests.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepBudgetExceeded, StepSizeUnderflow, ToleranceNotMet
from .pulses import (_EXP_CLAMP, Batch, DephasingMatrix, MixingAngles, PulseConfig,
                     _frame_angles, mixing_angles)
from .tripod import TargetState, frame_generator, frame_matrix, geometric_phases, target_state

RTOL = 1e-9
ATOL = 1e-12
# the step of the master engine's solves, in both bases
METHOD = "DOP853"
# derivative calls one master solve may make, about 7x those of scp at Omega0 = 3200
MAX_NFEV = 10**6

_I, _J = np.triu_indices(4, 1)
_DIAG = 5 * np.arange(4)
# vec(rho) position of each coordinate: rho_ii, then rho_ij for Re and again for Im, i < j
_POS = np.concatenate([_DIAG, 4 * _I + _J, 4 * _I + _J])
# vec(rho) = _TO_VEC @ c: coordinate k adds _UNIT[k] at rho_ij and its conjugate at rho_ji
_UNIT = np.repeat([1.0, 1.0, 1j], [4, 6, 6])
_TO_VEC = np.zeros((16, 16), dtype=complex)
_TO_VEC[_POS, np.arange(16)] = _UNIT
_TO_VEC[np.concatenate([_DIAG, 4 * _J + _I, 4 * _J + _I]), np.arange(16)] = _UNIT.conj()
# squared Frobenius norms N of the coordinate basis matrices: tr(rho sigma) = c_rho @ (N c_sigma)
_NORM2 = np.repeat([1.0, 2.0], [4, 12])
# the columns are orthogonal: the inverse is the adjoint over the squared column norms
_FROM_VEC = _TO_VEC.conj().T / _NORM2[:, None]


def density(c: np.ndarray) -> np.ndarray:
    """Hermitian rho of shape S + (4, 4) from real coordinates of shape S + (16,)."""
    return (c @ _TO_VEC.T).reshape(np.shape(c)[:-1] + (4, 4))


def coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates S + (16,) of a Hermitian rho of shape S + (4, 4); inverse of density."""
    return (np.reshape(rho, np.shape(rho)[:-2] + (16,)) @ _FROM_VEC.T).real


def _commutator_superop(m: np.ndarray) -> np.ndarray:
    """-i [M, .] in the coordinates: column k is the image of the k-th basis state."""
    basis = density(np.eye(16))
    return coords(-1j * (m @ basis - basis @ m)).T


def _coupling(i: int, j: int) -> np.ndarray:
    """Hamiltonian per unit Rabi frequency of a field driving levels i and j."""
    h = np.zeros((4, 4))
    h[i, j] = h[j, i] = 0.5
    return h


# pump, Stokes and control superoperators, in the order of pulse_envelopes
L_PUMP = _commutator_superop(_coupling(0, 1))
L_STOKES = _commutator_superop(_coupling(1, 2))
L_CONTROL = _commutator_superop(_coupling(1, 3))
# c @ _DRIVE holds L_p c, L_s c and L_c c side by side
_DRIVE = np.concatenate([L_PUMP.T, L_STOKES.T, L_CONTROL.T], axis=1)
# the same for H_a - i W at unit Omega_rms, theta', phi' sin(theta) and phi' cos(theta), with
# diag(1, -1, 0, 0) exact: frame_generator at theta = pi/2 would keep a cos of 6e-17
_FRAME_DRIVE = np.concatenate([_commutator_superop(m).T for m in (
    np.diag([0.0, 0.0, 0.5, -0.5]), -1j * frame_generator(MixingAngles(0.0, 0.0, 1.0, 0.0)),
    np.diag([1.0, -1.0, 0.0, 0.0]), -1j * frame_generator(MixingAngles(0.0, 0.0, 0.0, 1.0)))], 1)


class Basis(enum.Enum):
    BARE = "bare"
    ADIABATIC = "adiabatic"


def dissipator(rho: np.ndarray, gamma: DephasingMatrix) -> np.ndarray:
    """Dephasing matrix D with D_mn = -i * gamma_mn * rho_mn, zero diagonal."""
    return -1j * gamma.rates * rho


@lru_cache(maxsize=4)
def _constants(batch: Batch) -> tuple:
    """Per-batch constants of the derivatives in s, the window spans folded in.

    At t = start + s * span the exponent (t - c_k)^2 / w_k is k_k (s - s_k)^2 with
    s_k = (c_k - start) / span and k_k = span^2 / w_k, kept as -k_k so that a call
    negates nothing; the amplitudes omega0 and the coordinate damping gamma_c carry
    span, and so does N gamma_c, the damping of the frame dephasing (_frame_damping).
    """
    span = batch.span[:, None]
    damping = batch.rates.take(_POS, axis=1) * span
    return ((batch.centers - batch.start[:, None]) / span, -span * span / batch.widths,
            batch.omega0 * span, damping, damping * _NORM2)


def _drive(weights: np.ndarray, vec: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """sum_k weights[:, k] L_k c for (B, K) weights and the K superoperators of `stacked`."""
    return (weights[:, None] @ (vec @ stacked).reshape(len(vec), -1, 16)).reshape(vec.shape)


def rhs_bare(s, c: np.ndarray, batch: Batch) -> np.ndarray:
    """Bare-basis c' = (sum_k Omega_k L_k + L_gamma) c in the real coordinates.

    dc/ds at the normalised time s for states c of shape (B, 16) or flat, in the shape of c.
    """
    centres, neg_k, amplitudes, damping, _ = _constants(batch)
    vec = c.reshape(len(batch), 16)
    d = s - centres
    out = _drive(amplitudes * np.exp(np.maximum(neg_k * d * d, -_EXP_CLAMP)), vec, _DRIVE)
    out -= damping * vec
    return out.reshape(c.shape)


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


def _frame_dephasing(rho_a: np.ndarray, r: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """-R^dag (gamma (.) (R rho^a R^dag)) R: the dephasing in the frame R, on stacks too."""
    r_h = r.conj().swapaxes(-1, -2)
    return -(r_h @ (rates * (r @ rho_a @ r_h)) @ r)


def _harmonics(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The 25 products h_k of [1, cos, sin](k theta) and [1, cos, sin](k phi), k <= 2.

    cos and sin hold those of (theta, phi) along their first axis, shape (2,) + S; the
    result has one row of 25 per angle pair, (prod S, 25), theta's harmonic the slower index.
    """
    h = np.array([np.ones(np.shape(cos)), cos, sin, cos * cos - sin * sin, 2.0 * sin * cos])
    return (h[:, None, 0] * h[None, :, 1]).reshape(25, -1).T


@lru_cache(maxsize=1)
def _frame_terms() -> np.ndarray:
    """The constant terms T_k of the frame map, T = sum_k h_k T_k, as a (25, 256) table.

    Every entry of R is +-1/sqrt(2) times products of 1, cos and sin of theta and of
    phi, so T, bilinear in R and R^*, is a trigonometric polynomial of degree <= 2 in
    each angle with coefficients that are multiples of 1/8.  Its values on the 5 x 5
    grid 2 pi j / 5 fix it, and rounding to eighths removes the rounding of the fit.
    Built on first use.
    """
    nodes = 0.4 * np.pi * np.arange(5)
    grid = np.array([np.repeat(nodes, 5), np.tile(nodes, 5)])  # (theta, phi) of 25 points
    r = frame_matrix(MixingAngles(grid[0], grid[1], 0.0, 0.0))[:, None]
    # column l of T at a grid point is coords(R E_l R^dag), E_l the l-th basis matrix
    values = coords(r @ density(np.eye(16)) @ r.conj().swapaxes(-1, -2)).swapaxes(-1, -2)
    h = _harmonics(np.cos(grid), np.sin(grid))
    # the harmonics are orthogonal on the grid: solving is projecting onto each of them
    terms = (h.T @ values.reshape(25, 256)) / (h * h).sum(0)[:, None]
    return np.round(8.0 * terms) / 8.0


def _frame_map(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """frame_map from the (2,) + S cosines and sines of (theta, phi)."""
    return (_harmonics(cos, sin) @ _frame_terms()).reshape(np.shape(cos)[1:] + (16, 16))


def frame_map(angles: MixingAngles) -> np.ndarray:
    """rho = R rho^a R^dag on the real coordinates: coords(rho) = T coords(rho^a).

    R is tripod.frame_matrix; T is real, and N^-1 T^T N is its inverse (R is unitary and
    tr(rho sigma) = c_rho @ (N c_sigma), N the squared norms of the basis matrices).
    T = sum_k h_k(theta, phi) T_k over the 25 harmonics of _harmonics.  Scalar angles give
    one (16, 16) map; angles of shape S, such as (n, B), give S + (16, 16) in one matmul.
    """
    angle = np.array([angles.theta, angles.phi])
    return _frame_map(np.cos(angle), np.sin(angle))


def _frame_damping(vec: np.ndarray, t: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """N^-1 T^T (N gamma_c (.) T c) for (B, 16) states c, (B, 16, 16) maps T and N gamma_c.

    The coordinate form of R^dag (gamma (.) (R rho^a R^dag)) R: rho^a taken to the bare
    basis, damped there as in rhs_bare (T = 1 gives gamma_c c), and taken back.
    """
    damped = weighted * (t @ vec[:, :, None])[:, :, 0]
    return (damped[:, None] @ t)[:, 0] / _NORM2


def rhs_adiabatic(s, c: np.ndarray, batch: Batch) -> np.ndarray:
    """Eigenframe rho^a' = -i [H_a - i W, rho^a] - R^dag (gamma (.) (R rho^a R^dag)) R.

    On the times, coordinates and shapes of rhs_bare.  H_a = diag(0, 0, Omega/2, -Omega/2)
    and W = tripod.frame_generator make the coherent part one contraction of _FRAME_DRIVE;
    the dephasing is -N^-1 T^T (N gamma_c (.) T c) with T the real frame map.  The angles
    come from the exponents in s (pulses._frame_angles), so their rates are per unit s.
    """
    centres, neg_k, amplitudes, _, weighted = _constants(batch)
    vec = c.reshape(len(batch), 16)
    d = s - centres
    neg_a = neg_k * d * d
    omega = amplitudes * np.exp(np.maximum(neg_a, -_EXP_CLAMP))
    cos, sin, theta_dot, phi_dot = _frame_angles(neg_a, -2.0 * neg_k * d)
    weights = np.array([np.sqrt((omega * omega).sum(1)), theta_dot, phi_dot * sin[0],
                        phi_dot * cos[0]]).T
    out = _drive(weights, vec, _FRAME_DRIVE)
    out -= _frame_damping(vec, _frame_map(cos, sin), weighted)
    return out.reshape(c.shape)


@dataclass
class Trajectory:
    """Sampled solution of one run, with derived observables.

    `states` holds the samples in the basis the engine solved in; the other
    basis is built on its first read through to_adiabatic or from_adiabatic
    and kept.
    """

    cfg: PulseConfig
    basis: Basis
    t: np.ndarray
    states: np.ndarray     # (n, 4, 4) in `basis`
    fidelity: np.ndarray   # (n,) squared overlap with the ideal end state
    target: TargetState
    stats: dict = field(default_factory=dict)

    @cached_property
    def rho(self) -> np.ndarray:
        """(n, 4, 4) bare basis."""
        if self.basis is Basis.BARE:
            return self.states
        return from_adiabatic(self.states, self.t, self.cfg)

    @cached_property
    def rho_a(self) -> np.ndarray:
        """(n, 4, 4) adiabatic basis."""
        if self.basis is Basis.ADIABATIC:
            return self.states
        return to_adiabatic(self.states, self.t, self.cfg)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho))

    @property
    def adiabatic_populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho_a))


def _solve(fun, t_span, y0, method: str, t_eval=None, rtol: float = RTOL, atol: float = ATOL,
           max_step: float = np.inf):
    """solve_ivp with the engine's explicit Runge-Kutta method; a failure raises a typed error.

    A non-finite derivative at the start would make the first step size
    NaN, and the step loop would then never end, so it is refused up front.
    Without events, a failed Runge-Kutta solve (status -1) is a step-size
    underflow.
    """
    if not np.all(np.isfinite(fun(t_span[0], y0))):
        raise ToleranceNotMet("non-finite derivative at the start of the window")
    sol = solve_ivp(fun, t_span, y0, method=method, t_eval=t_eval, rtol=rtol, atol=atol,
                    max_step=max_step)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    return sol


def _invariants(states: np.ndarray) -> dict:
    """Trace and Hermiticity errors and the least eigenvalue of a stack of states, in any basis.

    density builds exactly Hermitian states, so eigvalsh, which reads one triangle, takes
    them as they are.
    """
    return {
        "trace_error": float(np.max(np.abs(np.einsum("nii->n", states) - 1.0))),
        "hermiticity_error": float(np.max(np.abs(states - np.conj(states.swapaxes(1, 2))))),
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(states)[:, 0])),
    }


def _trajectory(cfg: PulseConfig, basis: Basis, states: np.ndarray, nfev: int,
                theta_g: float, invariants: dict | None = None,
                fidelity: Callable[[TargetState, np.ndarray], np.ndarray] | None = None
                ) -> Trajectory:
    """Fidelity and invariant errors of one member's sampled states, in the basis solved in.

    The target state takes the member's geometric angle theta_g, which both
    engines evaluate once per batch.  In the adiabatic basis the fidelity is
    <R^dag psi| rho^a |R^dag psi>, with R the frame at each sample.  The
    invariants, and the fidelity as a function of the target state and the
    sample times, are taken from the states unless the engine supplies them.
    """
    t_eval = np.linspace(cfg.start, cfg.end, len(states))
    tgt = target_state(cfg, theta_g)
    if fidelity is not None:
        fid = fidelity(tgt, t_eval)
    elif basis is Basis.BARE:
        fid = tgt.expectation(states)
    else:
        # row n is R_n^dag psi
        amps = tgt.amplitudes @ np.conj(frame_matrix(mixing_angles(t_eval, cfg)))
        fid = np.real(np.einsum("ni,nij,nj->n", np.conj(amps), states, amps))

    if invariants is None:
        invariants = _invariants(states)
    if invariants["min_eigenvalue"] < -1e-6:
        warnings.warn("density matrix lost positivity: "
                      f"min eigenvalue {invariants['min_eigenvalue']:.3e}")
    return Trajectory(cfg=cfg, basis=basis, t=t_eval, states=states, fidelity=fid,
                      target=tgt, stats={"nfev": nfev, **invariants})


def _solve_batch(derivative, y0: np.ndarray, batch: Batch, samples: int, method: str,
                 budget: str):
    """The scaffold of both ODE engines: one solve of derivative(s, y) = dy/ds on the flat
    batch state y over s in [0, 1], sampled at np.linspace(0, 1, samples).  Past MAX_NFEV
    calls, read at call time, it raises StepBudgetExceeded with `budget` formatted with the count.

    No step is longer than a member's default window (PulseConfig.reach): on a wider custom
    window the step would otherwise grow across the quiet edges and pass over the pulses
    without a stage landing on them.  On a window no wider than the default the bound is
    at least the whole window, and the solve is the unbounded one.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    calls = 0

    def fun(s, y):
        nonlocal calls
        if calls >= MAX_NFEV:
            raise StepBudgetExceeded(budget.format(calls))
        calls += 1
        return derivative(s, y)

    max_step = min(2.0 * cfg.reach / span for cfg, span in zip(batch.cfgs, batch.span))
    return _solve(fun, (0.0, 1.0), y0, method, np.linspace(0.0, 1.0, samples), max_step=max_step)


def integrate_many(cfgs, basis: Basis = Basis.BARE,
                   samples: int = 2000) -> Iterator[Trajectory]:
    """Propagate |psi_1><psi_1| for every configuration in one shared solve.

    Member b runs on t = start_b + s * (end_b - start_b) with s in [0, 1], so
    members with different windows share every DOP853 step on their (B, 16)
    real coordinates.  The step size follows the hardest member and the error
    norm spans the batch, so a member's values depend on the batch at the
    level of the solver's own error, and the same batch gives the same values.
    On the default fig5a, fig5b, fig6 and fig8 grids every member's final F2
    lies within 3.2e-9 (fig6, fig8: 6.6e-11), and its whole F2 trajectory
    within 1.1e-8, of a lone solve at rtol 1e-13.  On _solve_batch, the scaffold
    shared with effective.integrate_many, each trajectory is sampled at
    np.linspace(start, end, samples); its `nfev` counts the calls of the batch
    derivative, rhs_bare or rhs_adiabatic (from R^dag rho R), looked up by
    name at every call.  A solve past MAX_NFEV calls raises
    StepBudgetExceeded; like any failed solve it raises for the whole batch at
    the call.  The trajectories are built as the caller iterates, and only
    there do their states become complex 4x4 matrices.
    """
    batch = Batch.of(cfgs)
    n = len(batch)
    c0 = np.eye(16)[0]  # rho_11 = 1
    y0 = (np.tile(c0, n) if basis is Basis.BARE
          else coords(to_adiabatic(density(c0), batch.start, batch)).ravel())

    def derivative(s, y):
        rhs = rhs_bare if basis is Basis.BARE else rhs_adiabatic
        return rhs(s, y.reshape(n, 16), batch).ravel()

    sol = _solve_batch(derivative, y0, batch, samples, METHOD, "the master solve stopped at its "
                       "budget of {} derivative calls (about 45 per unit of Omega0); --engine "
                       "effective takes about 900 at any Omega0")
    return (_trajectory(cfg, basis, density(c.T), int(sol.nfev), theta_g)
            for cfg, c, theta_g in zip(batch.cfgs, sol.y.reshape(n, 16, samples),
                                       geometric_phases(batch.cfgs)))


def integrate(cfg: PulseConfig, basis: Basis = Basis.BARE, samples: int = 2000) -> Trajectory:
    """Propagate |psi_1><psi_1| from t_start to t_end: a batch of one."""
    return next(integrate_many([cfg], basis=basis, samples=samples))
